//! Structured fuzzing smoke test (DESIGN.md §10).
//!
//! Drives the seeded well-formed mini-HPF generator (`proptest::hpf`)
//! through the whole compiler and checks three properties per program:
//!
//! * **(a) total robustness** — every generated program compiles under all
//!   strategies without a panic, and still terminates (degrading
//!   gracefully) under a near-zero analysis budget;
//! * **(b) degraded legality** — schedules produced under a tight budget
//!   pass every invariant of `core::check::check_schedule` and replay
//!   correctly under `exec::verify_schedule`;
//! * **(c) budget transparency** — a budgeted compile that never tripped a
//!   `degraded.*` counter produces the *same schedule* as the unbudgeted
//!   compile (budgets only change results when they say so).
//!
//! The case count defaults to a fast local smoke and scales up in CI via
//! `GCOMM_FUZZ_CASES` (the workflow runs 2000). Seeds are sequential from
//! a fixed base so every run (local and CI) explores the same programs;
//! any failing seed can be replayed in `tests/fuzz_regressions.rs`.

use std::collections::HashMap;

use gcomm::core::{check_schedule, compile_program_budgeted, CombinePolicy, Compiled};
use gcomm::machine::ProcGrid;
use gcomm::{compile, compile_budgeted, Budget, Strategy};
use proptest::hpf;

const SEED_BASE: u64 = 0x9c077; // fixed: CI and local runs share seeds

const STRATEGIES: [Strategy; 4] = [
    Strategy::Original,
    Strategy::EarliestRE,
    Strategy::EarliestPartialRE,
    Strategy::Global,
];

fn cases() -> u64 {
    std::env::var("GCOMM_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

/// Fans the seed range across the worker pool (`GCOMM_JOBS` / available
/// cores). Seeds are independent, so this only changes wall-clock time;
/// a failing seed panics the pool and the test either way.
fn for_each_seed(f: impl Fn(u64) + Sync) {
    let seeds: Vec<u64> = (0..cases()).map(|i| SEED_BASE + i).collect();
    gcomm::par::map(gcomm::par::default_jobs(), &seeds, |_, &seed| f(seed));
}

/// Runs `exec::verify_schedule` on a compiled program at size 8.
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

/// (a) Every generated program compiles under every strategy, both
/// unbudgeted and with a near-zero budget (which must terminate, not hang).
#[test]
fn generated_programs_compile_under_all_strategies() {
    for_each_seed(|seed| {
        let src = hpf::generate(seed);
        for s in STRATEGIES {
            compile(&src, s).unwrap_or_else(|e| {
                panic!("seed {seed} {s:?}: generated program failed to compile: {e}\n{src}")
            });
            compile_budgeted(&src, s, Budget::steps(1))
                .unwrap_or_else(|e| panic!("seed {seed} {s:?} steps=1: {e}\n{src}"));
        }
    });
}

/// (b) Tightly budgeted (degraded) schedules are still legal and replay
/// correctly under the reference interpreter.
#[test]
fn degraded_schedules_stay_legal_and_verifiable() {
    for_each_seed(|seed| {
        let src = hpf::generate(seed);
        // A spread of tight budgets, including 0 (everything degrades).
        let steps = [0, 1, 7, 50][(seed % 4) as usize];
        for s in STRATEGIES {
            let c = compile_budgeted(&src, s, Budget::steps(steps))
                .unwrap_or_else(|e| panic!("seed {seed} {s:?} steps={steps}: {e}\n{src}"));
            let rep = check_schedule(&c);
            assert!(
                rep.ok(),
                "seed {seed} {s:?} steps={steps}: illegal degraded schedule:\n{rep}\n{src}"
            );
            verify(&c, seed, "budgeted");
        }
    });
}

/// (c) When no `degraded.*` counter fires, a budgeted compile is
/// bit-identical to the unbudgeted one.
#[test]
fn budgets_change_nothing_unless_a_degraded_counter_fired() {
    for_each_seed(|seed| {
        let src = hpf::generate(seed);
        // Middling budgets: big enough that small programs fit, small
        // enough that larger ones degrade — both sides get coverage.
        let steps = [200, 1000, 5000][(seed % 3) as usize];
        for s in STRATEGIES {
            let full = compile(&src, s).unwrap_or_else(|e| panic!("seed {seed} {s:?}: {e}\n{src}"));

            let ast = gcomm::parse_program(&src).unwrap();
            let prog = gcomm::ir::lower(&ast).unwrap();
            let reg = gcomm::obs::Registry::new();
            let budgeted = {
                let _scope = gcomm::obs::install(reg.clone());
                compile_program_budgeted(&prog, s, &CombinePolicy::default(), Budget::steps(steps))
            };
            let report = reg.snapshot();
            let degraded: u64 = [
                "core.degraded.candidates",
                "core.degraded.subset",
                "core.degraded.redundancy",
                "core.degraded.greedy",
                "sections.degraded.subsume",
            ]
            .iter()
            .map(|c| report.counter(c))
            .sum();
            if degraded == 0 {
                assert_eq!(
                    full.schedule, budgeted,
                    "seed {seed} {s:?} steps={steps}: schedules diverged with no \
                     degraded.* counter fired\n{src}"
                );
            }
        }
    });
}
