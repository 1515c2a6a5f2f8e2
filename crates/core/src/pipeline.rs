//! End-to-end driver: source text → placed communication schedule.

use std::fmt;

use gcomm_ir::IrProgram;

use crate::commgen;
use crate::ctx::AnalysisCtx;
use crate::greedy::CombinePolicy;
use crate::schedule::Schedule;
use crate::strategy::{self, Strategy};

/// Per-compile observability snapshot: pass wall times, dataflow iteration
/// counts, and placement decision counters (see `gcomm_obs` and DESIGN.md
/// §9). Empty unless stats collection was active during the compile
/// ([`compile_stats`], or a caller-installed `gcomm_obs` registry).
pub type CompileStats = gcomm_obs::StatsReport;

/// RAII wall-clock timer for one named compiler pass: opens a `gcomm_obs`
/// span on construction and closes it on drop. A no-op (and free apart
/// from one thread-local read) when no stats registry is installed.
///
/// This is the hook the pipeline itself uses around each stage; external
/// drivers can use it to time their own phases into the same report.
#[derive(Debug)]
pub struct PassTimer {
    _span: gcomm_obs::SpanGuard,
}

impl PassTimer {
    /// Starts timing a pass.
    pub fn start(name: &'static str) -> Self {
        PassTimer {
            _span: gcomm_obs::span(name),
        }
    }
}

/// An error from any stage of the compilation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreError {
    /// Description of the failure (no location prefix; see [`Self::line`]).
    pub message: String,
    /// 1-based source line the error points at, or 0 when it has no
    /// specific location. Preserved from the frontend (`LangError`) and
    /// lowering (`LowerError`) so drivers can quote the offending line.
    pub line: u32,
}

impl CoreError {
    /// An error with no specific source location.
    pub fn general(message: impl Into<String>) -> Self {
        CoreError {
            message: message.into(),
            line: 0,
        }
    }

    /// An error at a specific 1-based source line.
    pub fn at(line: u32, message: impl Into<String>) -> Self {
        CoreError {
            message: message.into(),
            line,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CoreError {}

impl From<gcomm_lang::LangError> for CoreError {
    fn from(e: gcomm_lang::LangError) -> Self {
        CoreError {
            line: e.line,
            message: e.message,
        }
    }
}

impl From<gcomm_ir::LowerError> for CoreError {
    fn from(e: gcomm_ir::LowerError) -> Self {
        // `LowerError::Display` prefixes the line itself; strip it here so
        // the structured `line` field is the single source of location.
        let line = e.line();
        let full = e.to_string();
        let message = match full.strip_prefix(&format!("line {line}: ")) {
            Some(rest) => rest.to_string(),
            None => full,
        };
        CoreError { message, line }
    }
}

/// A compiled procedure: the lowered program plus its schedule.
///
/// Equality compares the program and schedule only — `stats` carries wall
/// times and is never part of a compiled artifact's identity.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The lowered program.
    pub prog: IrProgram,
    /// The placed communication schedule.
    pub schedule: Schedule,
    /// Observability snapshot of this compile (empty when stats were off).
    pub stats: CompileStats,
}

/// A borrowed view of a compiled procedure: what lowering and simulation
/// read. Callers that hold the program and the schedule separately (the
/// serve path keeps them behind `Arc`s in the query engine) lower through
/// this instead of cloning both into a [`Compiled`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledRef<'a> {
    /// The lowered program.
    pub prog: &'a IrProgram,
    /// The placed communication schedule.
    pub schedule: &'a Schedule,
}

impl<'a> From<&'a Compiled> for CompiledRef<'a> {
    fn from(c: &'a Compiled) -> Self {
        CompiledRef {
            prog: &c.prog,
            schedule: &c.schedule,
        }
    }
}

impl PartialEq for Compiled {
    fn eq(&self, other: &Self) -> bool {
        self.prog == other.prog && self.schedule == other.schedule
    }
}

impl Compiled {
    /// Static communication call sites per processor.
    pub fn static_messages(&self) -> usize {
        self.schedule.static_messages()
    }

    /// Human-readable placement report.
    pub fn report(&self) -> String {
        self.schedule.report(&self.prog)
    }
}

/// Compiles mini-HPF source under a strategy with the default combining
/// policy.
///
/// # Errors
///
/// Returns [`CoreError`] on parse, validation, or lowering failure.
pub fn compile(src: &str, strategy: Strategy) -> Result<Compiled, CoreError> {
    compile_with_policy(src, strategy, &CombinePolicy::default())
}

/// Compiles with an explicit combining policy (for ablations).
///
/// # Errors
///
/// Returns [`CoreError`] on parse, validation, or lowering failure.
pub fn compile_with_policy(
    src: &str,
    strategy: Strategy,
    policy: &CombinePolicy,
) -> Result<Compiled, CoreError> {
    compile_budgeted_with_policy(src, strategy, policy, gcomm_guard::Budget::unlimited())
}

/// Compiles under a resource [`Budget`](gcomm_guard::Budget) with the
/// default combining policy. On exhaustion the placement phases degrade
/// conservatively (DESIGN.md §10) — the compile still succeeds and the
/// schedule stays legal; `degraded.*` counters in [`Compiled::stats`]
/// record what was skipped. An unlimited budget is bit-identical to
/// [`compile`].
///
/// # Errors
///
/// Returns [`CoreError`] on parse, validation, or lowering failure —
/// never on budget exhaustion.
pub fn compile_budgeted(
    src: &str,
    strategy: Strategy,
    budget: gcomm_guard::Budget,
) -> Result<Compiled, CoreError> {
    compile_budgeted_with_policy(src, strategy, &CombinePolicy::default(), budget)
}

/// [`compile_budgeted`] with an explicit combining policy.
///
/// # Errors
///
/// Returns [`CoreError`] on parse, validation, or lowering failure.
pub fn compile_budgeted_with_policy(
    src: &str,
    strategy: Strategy,
    policy: &CombinePolicy,
    budget: gcomm_guard::Budget,
) -> Result<Compiled, CoreError> {
    let _compile = PassTimer::start("core.compile");
    let ast = gcomm_lang::parse_program(src)?;
    compile_ast(&ast, strategy, policy, budget)
}

/// What every `compile*` does with a parsed program: lower it, place its
/// communication, and snapshot the installed registry (if any).
fn compile_ast(
    ast: &gcomm_lang::Program,
    strategy: Strategy,
    policy: &CombinePolicy,
    budget: gcomm_guard::Budget,
) -> Result<Compiled, CoreError> {
    let prog = gcomm_ir::lower(ast)?;
    let schedule = compile_program_budgeted(&prog, strategy, policy, budget);
    let stats = gcomm_obs::current()
        .map(|r| r.snapshot())
        .unwrap_or_default();
    Ok(Compiled {
        prog,
        schedule,
        stats,
    })
}

/// Compiles with stats collection forced on: installs a fresh per-thread
/// `gcomm_obs` registry for the duration of the compile, so the returned
/// [`Compiled::stats`] is populated even when the caller has none
/// installed. The schedule is bit-identical to [`compile`]'s — collection
/// never influences placement decisions.
///
/// # Errors
///
/// Returns [`CoreError`] on parse, validation, or lowering failure.
pub fn compile_stats(src: &str, strategy: Strategy) -> Result<Compiled, CoreError> {
    let reg = gcomm_obs::Registry::new();
    let _scope = gcomm_obs::install(reg);
    compile_with_policy(src, strategy, &CombinePolicy::default())
}

/// Compiles like [`compile`], but accumulates frontend diagnostics instead
/// of stopping at the first: the parser recovers at statement boundaries
/// and reports every independent syntax error; a clean parse that fails
/// validation or lowering reports those errors with source lines.
///
/// # Errors
///
/// Returns every diagnostic collected (never an empty vector).
pub fn compile_diagnostics(src: &str, strategy: Strategy) -> Result<Compiled, Vec<CoreError>> {
    compile_diagnostics_budgeted(src, strategy, gcomm_guard::Budget::unlimited())
}

/// [`compile_diagnostics`] under a resource budget (see
/// [`compile_budgeted`] for the degradation contract).
///
/// # Errors
///
/// Returns every diagnostic collected (never an empty vector); budget
/// exhaustion is not an error.
pub fn compile_diagnostics_budgeted(
    src: &str,
    strategy: Strategy,
    budget: gcomm_guard::Budget,
) -> Result<Compiled, Vec<CoreError>> {
    let ast = gcomm_lang::parse_program_diagnostics(src)
        .map_err(|errs| errs.into_iter().map(CoreError::from).collect::<Vec<_>>())?;
    compile_ast(&ast, strategy, &CombinePolicy::default(), budget).map_err(|e| vec![e])
}

/// Runs a strategy over an already-lowered program.
pub fn compile_program(prog: &IrProgram, strategy: Strategy, policy: &CombinePolicy) -> Schedule {
    compile_program_budgeted(prog, strategy, policy, gcomm_guard::Budget::unlimited())
}

/// Runs a strategy over an already-lowered program under a resource
/// budget. Communication *generation* is never budgeted (dropping an entry
/// would be unsound); only the placement analyses degrade.
pub fn compile_program_budgeted(
    prog: &IrProgram,
    strategy: Strategy,
    policy: &CombinePolicy,
    budget: gcomm_guard::Budget,
) -> Schedule {
    let entries = {
        let _s = gcomm_obs::span("core.commgen");
        commgen::number(commgen::generate(prog))
    };
    let ctx = AnalysisCtx::with_budget(prog, budget);
    let schedule = strategy::run_with_policy(&ctx, entries, strategy, policy);
    record_entry_fates(&schedule);
    schedule
}

/// Records the placement fate of every candidate entry: each entry is
/// exactly one of placed (leads a group), combined away (rides in a group
/// behind its leader), or redundant (absorbed by another entry's data).
/// The partition `candidates == placed + redundant + combined_away` is the
/// schedule-shape invariant the property tests check.
fn record_entry_fates(schedule: &Schedule) {
    if !gcomm_obs::enabled() {
        return;
    }
    let candidates = schedule.entries.len() as u64;
    let placed = schedule.groups.len() as u64;
    let redundant = schedule.absorptions.len() as u64;
    let combined_away: u64 = schedule
        .groups
        .iter()
        .map(|g| g.entries.len() as u64 - 1)
        .sum();
    gcomm_obs::count("core.entries.candidates", candidates);
    gcomm_obs::count("core.entries.placed", placed);
    gcomm_obs::count("core.entries.redundant", redundant);
    gcomm_obs::count("core.entries.combined_away", combined_away);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CommKind;

    /// The running example of the paper (Figure 4), adapted to the mini-HPF
    /// syntax: `a` defined under a condition, `b` written in two strided
    /// halves, both read shifted inside the loop nest.
    const FIG4: &str = "
program fig4
param n
real a(n,n), b(n,n), c(n,n), d(n,n) distribute (block, *)
real cond
b(1:n, 1:n:2) = 1
b(1:n, 2:n:2) = 2
if (cond > 0) then
  a(1:n, 1:n) = 3
else
  a(1:n, 1:n) = d(1:n, 1:n)
endif
do i = 2, n
  do j = 1, n, 2
    c(i, j) = a(i-1, j) + b(i-1, j)
  enddo
  do j = 1, n
    c(i, j) = a(i-1, j) + b(i-1, j)
  enddo
enddo
end";

    #[test]
    fn figure4_original_counts_every_use() {
        let c = compile(FIG4, Strategy::Original).unwrap();
        // a1, b1, a2, b2: four messages.
        assert_eq!(c.static_messages(), 4, "{}", c.report());
    }

    #[test]
    fn figure4_earliest_re_misses_b1() {
        let c = compile(FIG4, Strategy::EarliestRE).unwrap();
        // a1 is subsumed by a2 at the join φ; b1 (earliest = after stmt 1)
        // is NOT dominated by b2's earliest point (after stmt 2), so the
        // redundancy is missed: 3 messages remain.
        assert_eq!(c.static_messages(), 3, "{}", c.report());
        assert_eq!(c.schedule.eliminated(), 1);
    }

    #[test]
    fn figure4_global_combines_to_one() {
        let c = compile(FIG4, Strategy::Global).unwrap();
        // b1 absorbed by b2 under a later placement, a1 by a2, and the
        // remaining {a2, b2} combine into a single message at the join.
        assert_eq!(c.static_messages(), 1, "{}", c.report());
        assert_eq!(c.schedule.eliminated(), 2);
        assert_eq!(c.schedule.groups[0].entries.len(), 2);
        assert_eq!(c.schedule.groups[0].kind, CommKind::Nnc);
    }

    #[test]
    fn error_on_bad_source() {
        assert!(compile("program x\nq = 1\nend", Strategy::Global).is_err());
    }

    #[test]
    fn diagnostics_accumulate_multiple_errors() {
        let src = "program x\nparam n\nreal a(n) distribute (block)\n\
                   a(2:n = 0\na(1) = = 1\nend";
        let errs = compile_diagnostics(src, Strategy::Global).unwrap_err();
        assert!(errs.len() >= 2, "got {errs:?}");
        assert!(errs.iter().all(|e| e.line > 0), "got {errs:?}");
        assert!(errs
            .iter()
            .all(|e| e.to_string().starts_with(&format!("line {}: ", e.line))));
    }

    #[test]
    fn errors_carry_source_line() {
        // `q = 1` on line 2 references an undeclared array.
        let err = compile("program x\nq = 1\nend", Strategy::Global).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(!err.message.starts_with("line"), "{err:?}");
    }

    #[test]
    fn compile_stats_populates_report_without_changing_schedule() {
        let plain = compile(FIG4, Strategy::Global).unwrap();
        let stats = compile_stats(FIG4, Strategy::Global).unwrap();
        assert_eq!(plain, stats, "stats collection must not perturb placement");
        assert!(plain.stats.passes().is_empty());
        assert!(!stats.stats.passes().is_empty());
        assert_eq!(stats.stats.counter("core.entries.candidates"), 4);
        assert_eq!(stats.stats.counter("core.entries.placed"), 1);
        assert_eq!(stats.stats.counter("core.entries.redundant"), 2);
        assert_eq!(stats.stats.counter("core.entries.combined_away"), 1);
    }

    #[test]
    fn diagnostics_match_compile_on_good_source() {
        let c = compile_diagnostics(FIG4, Strategy::Global).unwrap();
        assert_eq!(c.static_messages(), 1);
    }
}
