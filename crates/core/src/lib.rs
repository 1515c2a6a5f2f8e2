//! # gcomm-core — global communication analysis and optimization
//!
//! This crate is the primary contribution of the reproduced paper, *Global
//! Communication Analysis and Optimization* (Chakrabarti, Gupta, Choi;
//! PLDI 1996): a compiler algorithm that decides the placement of **all**
//! communication in a procedure globally and interdependently, unifying
//! redundancy elimination and message combining.
//!
//! The pipeline (paper §4) is:
//!
//! 1. [`commgen`] — identify non-local references and build communication
//!    entries (owner-computes shift detection, diagonal coalescing,
//!    reductions),
//! 2. [`latest`] — `Latest(u)`: the latest, shallowest safe placement
//!    (§4.2, classic message vectorization),
//! 3. [`earliest`] — `Earliest(u)`: the earliest *single dominating* point,
//!    via the `Test`/`Rcount` SSA walk of Fig. 8 (§4.3),
//! 4. [`candidates`] — all single candidate positions: the dominator-tree
//!    walk from `Latest` up to `Earliest` (§4.4, Fig. 9e),
//! 5. [`subset`] — subset elimination of dominated communication sets
//!    (§4.5),
//! 6. [`redundancy`] — global ASD-based redundancy elimination propagated
//!    over dominators (§4.6, Fig. 9f),
//! 7. [`greedy`] — the greedy most-constrained-first choice of final
//!    positions and message groups (§4.7, Fig. 9g),
//! 8. [`codegen`] — lowering a placed schedule to an executable
//!    [`gcomm_machine::CommProgram`] (§4.8).
//!
//! [`strategy`] additionally implements the two comparison code versions of
//! the evaluation (§5): the *original* baseline (vectorization only) and
//! *earliest placement with redundancy elimination*.
//!
//! # Example
//!
//! ```
//! use gcomm_core::{compile, Strategy};
//!
//! let src = "
//! program stencil
//! param n
//! real a(n,n), b(n,n), c(n,n) distribute (block, block)
//! do t = 1, 10
//!   b(2:n, 1:n) = a(1:n-1, 1:n)
//!   c(2:n, 1:n) = a(1:n-1, 1:n)
//!   a(1:n, 1:n) = b(1:n, 1:n) + c(1:n, 1:n)
//! enddo
//! end";
//! let orig = compile(src, Strategy::Original)?;
//! let glob = compile(src, Strategy::Global)?;
//! // The two reads of the same shifted section cost two messages under the
//! // baseline and one under the global algorithm.
//! assert!(glob.static_messages() < orig.static_messages());
//! # Ok::<(), gcomm_core::CoreError>(())
//! ```

pub mod candidates;
pub mod check;
pub mod codegen;
pub mod commgen;
pub mod ctx;
pub mod earliest;
pub mod entry;
pub mod greedy;
pub mod incr;
pub mod latest;
pub mod optimal;
pub mod pipeline;
pub mod redundancy;
pub mod schedule;
pub mod strategy;
pub mod subset;

pub use check::{check_schedule, LegalityReport};
pub use codegen::{lower_to_sim, lower_to_sim_with, SimConfig};
pub use ctx::{AnalysisCtx, SectionCtx};
pub use entry::{CommEntry, CommKind, EntryId};
pub use greedy::{CombinePolicy, GreedyOrder};
pub use optimal::{exhaustive_placement, optimal_placement_jobs, OptimalResult};
pub use pipeline::{
    compile, compile_budgeted, compile_budgeted_with_policy, compile_diagnostics,
    compile_diagnostics_budgeted, compile_program_budgeted, compile_stats, compile_with_policy,
    CompileStats, Compiled, CompiledRef, CoreError, PassTimer,
};
pub use schedule::{PlacedGroup, Schedule};
pub use strategy::Strategy;
