//! Edit-storm differential testing of the incremental query engine
//! (DESIGN.md §14).
//!
//! For a stream of fuzzed modules (1–3 well-formed routines each), and a
//! chain of seeded single-routine edits per module
//! (rename/retile/append-statement/delete-routine, from
//! `proptest::hpf::apply_edit`), every intermediate state is compiled
//! twice:
//!
//! * **cold** — `compile_module_cold`, the stage functions with no
//!   memoization, and
//! * **incremental** — through one `IncrCompiler` that persists across
//!   the *entire* storm, so its memo is maximally polluted by previous
//!   cases and edits.
//!
//! The property is bit-identity of every artifact: the lowered program,
//! the schedule, and the generated communication program must be equal,
//! the schedule must pass `check_schedule`, and (sampled, for runtime)
//! `verify_schedule` must replay it correctly. Equality deliberately
//! ignores `CompileStats`, as `Compiled`'s own `PartialEq` does — stats
//! describe the work done, which is exactly what incrementality changes.
//!
//! After the five content edits every chain takes three **AST-preserving**
//! edits (a trailing comment on an `end`, trailing blanks on a line, a
//! blank line after an `end`), from a helper local to this file —
//! `hpf::apply_edit` has none, and the benchmark's pinned `edit` inputs
//! depend on it staying as it is. The chunk's bytes change, so its parse
//! reruns; the AST fingerprint does not, so the stored product is reused
//! and the engine counts an early **cutoff** (DESIGN.md §14) — asserted
//! below.
//!
//! The same storm also goes through a `Service`, whose memo holds rendered
//! routines: every response must equal, byte for byte, what the memo-free
//! `cold_compile_payload` renders for the same request, over single- and
//! multi-routine modules with and without a simulation, and every
//! AST-preserving edit must count a cutoff there too.
//!
//! The case count defaults to 300 (the ISSUE-7 floor) and scales via
//! `GCOMM_INCR_CASES`. Seeds are sequential from a fixed base so every
//! run explores the same modules.

use gcomm::core::incr::{compile_module_cold, IncrCompiler, ModuleOutcome, RoutineArtifacts};
use gcomm::core::{check_schedule, lower_to_sim, Compiled, SimConfig};
use gcomm::guard::BudgetSpec;
use gcomm::machine::ProcGrid;
use gcomm::serve::protocol::assemble;
use gcomm::serve::service::cold_compile_payload;
use gcomm::serve::{CompileReq, Service, ServiceConfig, SimSpec};
use gcomm::Strategy;
use proptest::hpf;
use std::collections::HashMap;

const SEED_BASE: u64 = 0x1c4e11;
const EDITS_PER_CASE: u64 = 5;
/// Steps `EDITS_PER_CASE + 1 ..= LAST_STEP` are the AST-preserving edits.
const LAST_STEP: u64 = EDITS_PER_CASE + 3;

/// Offsets just past each line whose first word is `end`.
fn end_line_ends(module: &str) -> Vec<usize> {
    let mut pos = 0;
    let mut ends = Vec::new();
    for line in module.split_inclusive('\n') {
        pos += line.len();
        let t = line.trim_start();
        let word = t
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
            .count();
        if t[..word].eq_ignore_ascii_case("end") {
            ends.push(pos);
        }
    }
    ends
}

/// One edit that leaves every routine's AST as it was, line numbers
/// included: `kind` 0 appends a comment to an `end` line, 1 appends
/// blanks to some line, 2 adds a blank line after the last `end` (after
/// any other it would shift the next routine's line numbers).
fn ast_preserving_edit(module: &str, kind: u64, pick: u64) -> String {
    let ends = end_line_ends(module);
    let (at, text) = match kind {
        0 => {
            let end = ends[(pick % ends.len() as u64) as usize];
            // Before the line's newline, if it has one.
            (end - usize::from(module[..end].ends_with('\n')), " ! c")
        }
        1 => {
            let newlines: Vec<usize> = module.match_indices('\n').map(|(i, _)| i).collect();
            (newlines[(pick % newlines.len() as u64) as usize], "  \t")
        }
        _ => (*ends.last().expect("a routine"), "\n"),
    };
    format!("{}{text}{}", &module[..at], &module[at..])
}

/// The state after `step` of `seed`'s chain: five content edits, then
/// the three AST-preserving ones.
fn edited(module: &str, seed: u64, step: u64) -> String {
    if step < EDITS_PER_CASE {
        hpf::apply_edit(module, seed.wrapping_mul(1000) + step).0
    } else {
        ast_preserving_edit(module, step - EDITS_PER_CASE, seed)
    }
}

fn cases() -> u64 {
    std::env::var("GCOMM_INCR_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn as_compiled(a: &RoutineArtifacts) -> Compiled {
    Compiled {
        prog: (*a.prog).clone(),
        schedule: (*a.schedule).clone(),
        stats: Default::default(),
        asds: Default::default(),
    }
}

/// Deterministic analytical codegen of a compiled routine, as a
/// comparable string.
fn codegen_repr(c: &Compiled) -> String {
    let rank = c.prog.grid_rank();
    let cfg = SimConfig::uniform(c, ProcGrid::balanced(4, rank), 8).with("nsteps", 2);
    format!("{:?}", lower_to_sim(c, &cfg))
}

fn verify(c: &Compiled, seed: u64, what: &str) {
    let rank = c.prog.grid_rank();
    let grid = ProcGrid::balanced(4, rank);
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = gcomm::exec::verify_schedule(c, &grid, &params)
        .unwrap_or_else(|e| panic!("seed {seed} {what}: verify failed to run: {e}"));
    assert!(
        rep.ok(),
        "seed {seed} {what}: {} verify violation(s): {:?}",
        rep.errors.len(),
        rep.errors.first()
    );
}

/// Compares a cold and an incremental compile of the same module, down
/// to the generated communication program.
fn compare(seed: u64, step: u64, module: &str, cold: &ModuleOutcome, warm: &ModuleOutcome) {
    let what = format!("seed {seed} step {step}");
    assert_eq!(
        cold.routines.len(),
        warm.routines.len(),
        "{what}: routine counts diverged\n{module}"
    );
    // Deep verification is sampled: it multiplies runtime by the
    // interpreter's replay cost, and one in seven storms (first and last
    // state) already exercises every edit kind.
    let deep = seed.is_multiple_of(7) && (step == 0 || step == EDITS_PER_CASE || step == LAST_STEP);
    for (c, w) in cold.routines.iter().zip(&warm.routines) {
        assert_eq!(c.name, w.name, "{what}\n{module}");
        let (ca, wa) = match (&c.result, &w.result) {
            (Ok(ca), Ok(wa)) => (ca, wa),
            other => panic!("{what}: fuzzed routines must compile, got {other:?}\n{module}"),
        };
        assert_eq!(*ca.prog, *wa.prog, "{what}: IR diverged\n{module}");
        assert_eq!(
            *ca.schedule, *wa.schedule,
            "{what}: schedule diverged\n{module}"
        );
        assert_eq!(ca.degraded, wa.degraded, "{what}\n{module}");
        let cc = as_compiled(ca);
        let wc = as_compiled(wa);
        assert_eq!(
            codegen_repr(&cc),
            codegen_repr(&wc),
            "{what}: codegen diverged\n{module}"
        );
        let rep = check_schedule(&wc);
        assert!(rep.ok(), "{what}: illegal schedule:\n{rep}\n{module}");
        if deep {
            verify(&wc, seed, "incremental");
        }
    }
}

/// The storm: per seed, a module plus a chain of 5 single-routine
/// edits and 3 AST-preserving ones; every state compiled cold and
/// incrementally and compared.
/// One shared engine across all seeds and workers — artifact equality
/// must survive both memo pollution and concurrent compiles.
#[test]
fn edit_storm_incremental_matches_cold() {
    let ic = IncrCompiler::new(64 * 1024 * 1024);
    let spec = BudgetSpec::default();
    let seeds: Vec<u64> = (0..cases()).map(|i| SEED_BASE + i).collect();
    gcomm::par::map(gcomm::par::default_jobs(), &seeds, |_, &seed| {
        let mut module = hpf::generate_module(seed, 1 + (seed % 3) as usize);
        for step in 0..=LAST_STEP {
            let cold = compile_module_cold(&module, Strategy::Global, &spec);
            let warm = ic.compile_module(&module, Strategy::Global, &spec);
            compare(seed, step, &module, &cold, &warm);
            if step < LAST_STEP {
                module = edited(&module, seed, step);
            }
        }
    });
    let stats = ic.engine().stats();
    assert!(stats.hits > 0, "storm must exercise reuse: {stats:?}");
    assert!(
        stats.invalidations > 0,
        "storm must exercise invalidation: {stats:?}"
    );
    // Every AST-preserving edit re-parses one chunk into the AST it had.
    assert!(
        stats.cutoffs >= 3 * cases(),
        "storm must exercise early cutoff: {stats:?}"
    );
}

/// The storm through one shared `Service`: its responses equal the cold
/// payloads, and an AST-preserving edit reuses the rendered routine.
#[test]
fn served_edit_storm_matches_cold_payloads() {
    let svc = Service::new(ServiceConfig::default());
    let seeds: Vec<u64> = (0..cases()).map(|i| SEED_BASE + i).collect();
    gcomm::par::map(gcomm::par::default_jobs(), &seeds, |_, &seed| {
        let sim = seed.is_multiple_of(2).then(|| SimSpec::flat("sp2", 16));
        let mut module = hpf::generate_module(seed, 1 + (seed % 3) as usize);
        for step in 0..=LAST_STEP {
            let req = CompileReq {
                id: Some(step),
                source: module.clone(),
                strategy: Strategy::Global,
                budget: None,
                sim: sim.clone(),
            };
            let (served, _) = svc.compile(&req);
            let cold = assemble(req.id, &cold_compile_payload(&req, &BudgetSpec::default()));
            assert_eq!(
                served, cold,
                "seed {seed} step {step}: served diverged\n{module}"
            );
            if step < LAST_STEP {
                module = edited(&module, seed, step);
            }
        }
    });
    let life = svc.lifetime_report();
    assert!(
        life.counter("query.cutoff") >= 3 * cases(),
        "every AST-preserving edit reuses a render: {:?}",
        life.counters
    );
}

/// Strategy × budget keying: the same module under different strategies
/// and budgets must never cross-contaminate.
#[test]
fn strategies_and_budgets_do_not_cross_contaminate() {
    let ic = IncrCompiler::new(16 * 1024 * 1024);
    let module = hpf::generate_module(SEED_BASE, 2);
    let specs = [
        BudgetSpec::default(),
        BudgetSpec::parse("steps=200").unwrap(),
    ];
    for strategy in [Strategy::Original, Strategy::Global] {
        for spec in &specs {
            let cold = compile_module_cold(&module, strategy, spec);
            let warm = ic.compile_module(&module, strategy, spec);
            compare(SEED_BASE, 0, &module, &cold, &warm);
        }
    }
    // And again, now that every (strategy, budget) pair is cached.
    for strategy in [Strategy::Original, Strategy::Global] {
        for spec in &specs {
            let cold = compile_module_cold(&module, strategy, spec);
            let warm = ic.compile_module(&module, strategy, spec);
            compare(SEED_BASE, 1, &module, &cold, &warm);
        }
    }
}
