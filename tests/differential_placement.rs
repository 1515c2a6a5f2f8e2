//! Differential testing of the greedy placement against the exhaustive
//! optimum: for every paper-figure program, every benchmark kernel, and
//! the example programs, the greedy schedule must cost no more than the
//! best assignment the bounded enumeration finds (the search is seeded
//! with the greedy schedule, so `optimal ≤ greedy` is the invariant the
//! heuristic must uphold — a regression that worsens the greedy shows up
//! as a widened gap, never as a flipped inequality), and both schedules
//! must pass dynamic verification against the reference interpreter.

use std::collections::HashMap;

use gcomm::core::optimal::comm_cost;
use gcomm::core::{optimal_placement_jobs, CombinePolicy, Compiled, SimConfig, Strategy};
use gcomm::machine::{NetworkModel, ProcGrid};
use gcomm::{compile, exec};

/// Enumeration budget: small kernels exhaust it, big ones fall back to the
/// greedy-seeded scan — either way the inequality must hold.
const BUDGET: u64 = 5_000;

/// Inline copy of `examples/red_black.rs`'s program (examples are not
/// importable from integration tests).
const RED_BLACK: &str = "
program redblack
param n, nsteps
real u(n,n), f(n,n) distribute (block, *)
do t = 1, nsteps
  u(2:n-1:2, 1:n) = u(1:n-2:2, 1:n) + u(3:n:2, 1:n) + f(2:n-1:2, 1:n)
  u(3:n-1:2, 1:n) = u(2:n-2:2, 1:n) + u(4:n:2, 1:n) + f(3:n-1:2, 1:n)
enddo
end";

/// Inline copy of `examples/quickstart.rs`'s program.
const QUICKSTART: &str = "
program quickstart
param n, nsteps
real a(n,n), b(n,n), c(n,n) distribute (block, block)
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
  c(2:n, 1:n) = a(1:n-1, 1:n) * 0.5
  a(1:n, 1:n) = b(1:n, 1:n) + c(1:n, 1:n)
enddo
end";

fn verify(name: &str, what: &str, c: &Compiled, n: i64) {
    let grid = ProcGrid::balanced(4, c.prog.grid_rank());
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), n)).collect();
    params.insert("nsteps".into(), 2);
    let rep = exec::verify_schedule(c, &grid, &params)
        .unwrap_or_else(|e| panic!("{name}: {what} schedule failed to execute: {e}"));
    assert!(
        rep.ok(),
        "{name}: {what} schedule violates the reference semantics: {:?}",
        rep.errors.first()
    );
}

fn check(name: &str, src: &str, n: i64) {
    let c = compile(src, Strategy::Global).unwrap_or_else(|e| panic!("{name}: {e}"));
    let cfg =
        SimConfig::uniform(&c, ProcGrid::balanced(4, c.prog.grid_rank()), 32).with("nsteps", 4);
    let net = NetworkModel::sp2();
    let greedy_cost = comm_cost(&c, &cfg, &net);
    let budget = gcomm::guard::Budget::steps(BUDGET);
    let Some(opt) = optimal_placement_jobs(&c, &CombinePolicy::default(), &cfg, &net, &budget, 1)
    else {
        // No communication: nothing to compare, but the (empty) schedule
        // must still verify.
        verify(name, "greedy", &c, n);
        return;
    };
    assert!(
        greedy_cost >= opt.comm_us - 1e-9,
        "{name}: optimal search found cost {} above greedy {greedy_cost} \
         (seeding guarantees optimal ≤ greedy)",
        opt.comm_us
    );

    verify(name, "greedy", &c, n);
    let opt_compiled = Compiled {
        prog: c.prog.clone(),
        schedule: opt.schedule,
        stats: Default::default(),
        asds: Default::default(),
    };
    verify(name, "optimal", &opt_compiled, n);
}

#[test]
fn kernels_greedy_vs_optimal() {
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        check(&format!("{bench}:{routine}"), src, 8);
    }
}

#[test]
fn paper_figures_greedy_vs_optimal() {
    for (name, src) in [
        ("fig3-f90", gcomm::kernels::FIG3_F90),
        ("fig3-scalarized", gcomm::kernels::FIG3_SCALARIZED),
        ("fig4-running", gcomm::kernels::FIG4_RUNNING),
    ] {
        check(name, src, 8);
    }
}

#[test]
fn examples_greedy_vs_optimal() {
    // red_black needs an odd n ≥ 9 for its strided half-sweeps.
    check("red_black", RED_BLACK, 9);
    check("quickstart", QUICKSTART, 8);
}
