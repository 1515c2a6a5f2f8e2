//! # gcomm-machine — distributed-memory machine model and BSP simulator
//!
//! The paper evaluates on two 1996 machines: the IBM SP2 (custom switch,
//! MPL) and the Berkeley NOW (SPARC workstations, Myrinet, MPICH). Neither
//! is available, so this crate provides the closest synthetic equivalent
//! that exercises the same code path (see DESIGN.md):
//!
//! * [`grid`] — processor grids,
//! * [`net`] — parametric network models (startup + half-size bandwidth
//!   curve, cache-limited `bcopy`) with presets calibrated to the paper's
//!   Figure 5,
//! * [`sim`] — a bulk-synchronous simulator executing a loop-structured
//!   communication program and splitting time into compute and
//!   communication, the quantities Figure 10 plots,
//! * [`profile`] — the Figure-5 microbenchmark (bandwidth vs. buffer size).
//!
//! The interconnect is reliable, as the paper's cost model (§3) assumes.

pub mod grid;
pub mod net;
pub mod profile;
pub mod sim;

pub use grid::ProcGrid;
pub use net::NetworkModel;
pub use sim::{
    simulate, simulate_overlapped, CommPhase, CommProgram, Msg, MsgKind, OverlapResult, PhaseItem,
    SimResult, SimStep,
};
