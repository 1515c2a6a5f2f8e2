//! # gcomm — Global Communication Analysis and Optimization
//!
//! A from-scratch Rust reproduction of *Global Communication Analysis and
//! Optimization* (Soumen Chakrabarti, Manish Gupta, Jong-Deok Choi;
//! PLDI 1996): the IBM pHPF algorithm that places **all** communication of
//! a data-parallel (HPF-like) procedure globally and interdependently,
//! unifying redundancy elimination and message combining.
//!
//! This façade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`lang`] | mini-HPF frontend (lexer, parser, AST, validator) |
//! | [`ir`] | statement IR, augmented CFG, loop tree, dominators |
//! | [`ssa`] | whole-array SSA with φ-Enter / φ-Exit definitions |
//! | [`dep`] | dependence testing, direction vectors, access widening |
//! | [`sections`] | symbolic sections, mappings, ASDs |
//! | [`machine`] | processor grids, network models, cost model, simulator |
//! | [`core`] | the placement algorithm and comparison strategies |
//! | [`kernels`] | the paper's benchmark programs |
//! | [`exec`] | reference interpreter + dynamic schedule verification |
//! | [`obs`] | observability: spans, counters, stats reports (DESIGN.md §9) |
//! | [`guard`] | resource budgets + graceful degradation (DESIGN.md §10) |
//! | [`par`] | deterministic scoped worker pool for the drivers (DESIGN.md §11) |
//! | [`serve`] | persistent compile service: caching, batching, backpressure (DESIGN.md §12) |
//! | [`query`] | incremental query engine: content-addressed memoization (DESIGN.md §14) |
//! | [`coll`] | topology-aware collective-algorithm backend (DESIGN.md §17) |
//!
//! # Quickstart
//!
//! ```
//! use gcomm::{compile, Strategy};
//!
//! let compiled = compile(gcomm::kernels::SHALLOW, Strategy::Global)?;
//! assert_eq!(compiled.static_messages(), 8); // paper's Figure 10 table
//! # Ok::<(), gcomm::core::CoreError>(())
//! ```

pub use gcomm_coll as coll;
pub use gcomm_core as core;
pub use gcomm_dep as dep;
pub use gcomm_exec as exec;
pub use gcomm_guard as guard;
pub use gcomm_ir as ir;
pub use gcomm_kernels as kernels;
pub use gcomm_lang as lang;
pub use gcomm_machine as machine;
pub use gcomm_obs as obs;
pub use gcomm_par as par;
pub use gcomm_query as query;
pub use gcomm_sections as sections;
pub use gcomm_serve as serve;
pub use gcomm_ssa as ssa;
pub use gcomm_store as store;

pub use gcomm_core::{
    compile, compile_budgeted, compile_diagnostics, compile_stats, CommKind, Strategy,
};
pub use gcomm_guard::{Budget, BudgetSpec};
pub use gcomm_lang::{parse_program, parse_program_diagnostics};

/// Convenience: compiles a kernel under all three strategies and returns
/// the static message counts as `(orig, nored, comb)`.
///
/// # Errors
///
/// Returns [`gcomm_core::CoreError`] if the source fails to compile.
pub fn static_counts(src: &str) -> Result<(usize, usize, usize), gcomm_core::CoreError> {
    Ok((
        compile(src, Strategy::Original)?.static_messages(),
        compile(src, Strategy::EarliestRE)?.static_messages(),
        compile(src, Strategy::Global)?.static_messages(),
    ))
}
