//! Graceful degradation under analysis budgets (DESIGN.md §10).
//!
//! Two bracketing properties on every named kernel and paper figure:
//!
//! * a **near-zero** budget still terminates quickly and produces a
//!   schedule that passes the static legality checker *and* replays
//!   correctly under the reference interpreter — degradation is
//!   conservative, never wrong;
//! * a **generous** budget is transparent: the schedule is bit-identical
//!   to the unbudgeted compile and no `degraded.*` counter fires.

use std::collections::HashMap;
use std::time::Instant;

use gcomm::core::{check_schedule, compile_program_budgeted, CombinePolicy, Compiled};
use gcomm::machine::ProcGrid;
use gcomm::{compile, compile_budgeted, Budget, Strategy};

const STRATEGIES: [Strategy; 4] = [
    Strategy::Original,
    Strategy::EarliestRE,
    Strategy::EarliestPartialRE,
    Strategy::Global,
];

fn corpus() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(b, r, s)| (format!("{b}:{r}"), s))
        .collect();
    v.push(("fig3-f90".into(), gcomm::kernels::FIG3_F90));
    v.push(("fig3-scalarized".into(), gcomm::kernels::FIG3_SCALARIZED));
    v.push(("fig4-running".into(), gcomm::kernels::FIG4_RUNNING));
    v
}

fn verify(name: &str, c: &Compiled) {
    let rank = c.prog.grid_rank();
    let grid = ProcGrid::balanced(4, rank);
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = gcomm::exec::verify_schedule(c, &grid, &params)
        .unwrap_or_else(|e| panic!("{name}: degraded schedule failed to execute: {e}"));
    assert!(
        rep.ok(),
        "{name}: degraded schedule violates reference semantics: {:?}",
        rep.errors.first()
    );
}

#[test]
fn near_zero_budgets_terminate_legal_and_verified() {
    let start = Instant::now();
    for (name, src) in corpus() {
        for s in STRATEGIES {
            for steps in [0u64, 1, 3] {
                let c = compile_budgeted(src, s, Budget::steps(steps))
                    .unwrap_or_else(|e| panic!("{name} {s:?} steps={steps}: {e}"));
                let rep = check_schedule(&c);
                assert!(rep.ok(), "{name} {s:?} steps={steps}:\n{rep}");
                verify(&format!("{name} {s:?} steps={steps}"), &c);
            }
        }
    }
    // "Terminates quickly": the whole corpus × strategies × budgets sweep
    // must not crawl — a hang under exhausted budgets is the bug class
    // this guards against (generous bound to absorb slow CI machines).
    assert!(
        start.elapsed().as_secs() < 120,
        "near-zero-budget sweep took {:?}",
        start.elapsed()
    );
}

#[test]
fn near_zero_budgets_actually_degrade_something() {
    // Sanity for the test above: at steps=0 the degraded paths must fire,
    // otherwise "legal under budget" would be vacuous.
    let reg = gcomm::obs::Registry::new();
    {
        let _scope = gcomm::obs::install(reg.clone());
        for (name, src) in corpus() {
            for s in STRATEGIES {
                compile_budgeted(src, s, Budget::steps(0))
                    .unwrap_or_else(|e| panic!("{name} {s:?}: {e}"));
            }
        }
    }
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
    assert!(
        degraded > 0,
        "steps=0 over the whole corpus degraded nothing"
    );
}

#[test]
fn generous_budgets_are_bit_identical_to_unbudgeted() {
    for (name, src) in corpus() {
        for s in STRATEGIES {
            let full = compile(src, s).unwrap_or_else(|e| panic!("{name} {s:?}: {e}"));
            let ast = gcomm::parse_program(src).unwrap();
            let prog = gcomm::ir::lower(&ast).unwrap();
            let reg = gcomm::obs::Registry::new();
            let budgeted = {
                let _scope = gcomm::obs::install(reg.clone());
                compile_program_budgeted(
                    &prog,
                    s,
                    &CombinePolicy::default(),
                    Budget::steps(50_000_000),
                )
            };
            let report = reg.snapshot();
            for c in [
                "core.degraded.candidates",
                "core.degraded.subset",
                "core.degraded.redundancy",
                "core.degraded.greedy",
                "sections.degraded.subsume",
            ] {
                assert_eq!(
                    report.counter(c),
                    0,
                    "{name} {s:?}: {c} fired under 50M steps"
                );
            }
            assert_eq!(
                full.schedule, budgeted,
                "{name} {s:?}: generous budget changed the schedule"
            );
        }
    }
}
