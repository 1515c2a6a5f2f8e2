//! # gcomm-coll — topology-aware collective-algorithm backend
//!
//! The paper combines and vectorizes messages but prices every combined
//! pattern as point-to-point traffic on a flat SP2/NOW model (§6.1).
//! Modern systems lower those patterns to real collective *algorithms*
//! whose cost depends on where the partner ranks sit in the interconnect.
//! This crate adds that axis on top of the 1996 machine models without
//! touching their calibration (DESIGN.md §17):
//!
//! * [`topo`] — hierarchical topology models extending `gcomm-machine`:
//!   a fat-tree with node-local / same-switch / cross-switch link tiers
//!   (à la pMR) and a 2D torus with per-hop latency and congestion, each
//!   mapping a rank *distance* to a [`topo::Link`] multiplier pair so the
//!   placement of a rank pair actually changes cost.
//! * [`algo`] — a collective-algorithm library lowering the simulator's
//!   combined patterns (NNC shifts, reduction/broadcast trees,
//!   all-gather-style exchanges) to concrete schedules of point-to-point
//!   [`gcomm_machine::SimStep`]s: ring, recursive doubling, binomial
//!   (`p2p`, the legacy pricing) and Bine trees. The existing simulator
//!   executes the step lists unchanged.
//! * [`select`] — an algorithm selector that sweeps the
//!   latency/bandwidth pareto frontier per (pattern, size, topology) as
//!   in SCCL. `auto` picks the cheapest
//!   candidate under the *exact* step-sum cost the simulator charges and
//!   always includes `p2p` among the candidates, so `auto` is never
//!   costlier than `p2p` by construction.
//!
//! Everything is `std`-only like the rest of the workspace.

pub mod algo;
pub mod select;
pub mod topo;

pub use algo::{bine_dist, lower, Algo, PatternShape, ALL_ALGOS};
pub use select::{lower_msg, pareto, select, sweep, Candidate, CollChoice, CollConfig, Lowered};
pub use topo::{Link, Topology};
