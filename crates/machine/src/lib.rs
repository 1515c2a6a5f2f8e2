//! # gcomm-machine — distributed-memory machine model and BSP simulator
//!
//! The paper evaluates on two 1996 machines: the IBM SP2 (custom switch,
//! MPL) and the Berkeley NOW (SPARC workstations, Myrinet, MPICH). Neither
//! is available, so this crate provides the closest synthetic equivalent
//! that exercises the same code path (see DESIGN.md):
//!
//! * [`grid`] — processor grids and block ownership arithmetic,
//! * [`net`] — parametric network models (startup + half-size bandwidth
//!   curve, cache-limited `bcopy`) with presets calibrated to the paper's
//!   Figure 5,
//! * [`sim`] — a bulk-synchronous simulator executing a loop-structured
//!   communication program and splitting time into compute and
//!   communication, the quantities Figure 10 plots,
//! * [`profile`] — the Figure-5 microbenchmark (bandwidth vs. buffer size),
//! * [`fault`] — seeded fault injection (message loss, link degradation,
//!   stragglers) and the retry policy the simulator recovers with.

pub mod fault;
pub mod grid;
pub mod net;
pub mod profile;
pub mod sim;

pub use fault::{FaultPlan, FaultSpecError, RetryPolicy};
pub use grid::ProcGrid;
pub use net::NetworkModel;
pub use sim::{
    simulate, simulate_overlapped, simulate_with_faults, CommPhase, CommProgram, FaultStats, Msg,
    MsgKind, OverlapResult, PhaseItem, SimReport, SimResult, SimStep,
};
