//! Minimized crashers found by the structured fuzzing harness
//! (`tests/fuzz_smoke.rs`), pinned as permanent regressions.
//!
//! Each test names the generator seed that first exposed the bug
//! (`proptest::hpf::generate(seed)` with the default `GenConfig`) and
//! replays a hand-minimized program reproducing it. The minimized source is
//! kept inline so these tests survive generator changes.

use std::collections::HashMap;

use gcomm::core::check_schedule;
use gcomm::machine::ProcGrid;
use gcomm::{compile, compile_budgeted, Budget, Strategy};

fn verify_ok(src: &str, s: Strategy) {
    let c = compile(src, s).unwrap();
    let rep = check_schedule(&c);
    assert!(rep.ok(), "{s:?}: {rep}");
    let rank = c.prog.grid_rank();
    let grid = ProcGrid::balanced(4, rank);
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = gcomm::exec::verify_schedule(&c, &grid, &params).unwrap();
    assert!(
        rep.ok(),
        "{s:?}: {} replay violation(s): {:?}",
        rep.errors.len(),
        rep.errors.first()
    );
}

/// Generator seed 639135: a self-updating array read twice in one loop
/// body. `a(3:n, 1:n)` is read by two statements with the array's own
/// write in between; `EarliestRE` used to absorb the second read into the
/// first even though the intervening write staled the fetched rows. The
/// fix requires an absorption cover to sit inside the covered entry's
/// legal `[earliest .. latest]` window (or chain validity through its own
/// use).
#[test]
fn absorption_must_not_cross_a_killing_write() {
    let src = "
program kill
param n, nsteps
real a(n,n), b(n,n) distribute (block, block)
do v = 2, n-1
  a(1:n-2, 1:n) = a(3:n, 1:n) + 1
  b(1:n-2, 1:n) = a(3:n, 1:n) + 2
enddo
end";
    for s in [
        Strategy::Original,
        Strategy::EarliestRE,
        Strategy::EarliestPartialRE,
        Strategy::Global,
    ] {
        verify_ok(src, s);
    }
}

/// Generator seed 641399: two overlapping broadcast reads placed at the
/// same point used to shave *each other* under `EarliestPartialRE`
/// (`a1(1:n-2)` minus `a1(2:n)` and vice versa), so the intersection
/// `a1(2:n-2)` was never shipped; additionally one cover had absorbed a
/// third entry, so shaving it also orphaned that entry's data. Covers now
/// must be unshaved, and absorbers are never shaved.
#[test]
fn partial_re_must_not_shave_mutually_or_shave_an_absorber() {
    let src = "
program shave
param n, nsteps
real a(n), b(n) distribute (block)
real c(n)
do t = 1, nsteps
  c(1:n-2) = a(1:n-2)
  do v = 2, n-1
    c(1:n-2) = a(3:n)
    c(1:n-1) = a(2:n)
  enddo
  b(1:n-2) = b(1:n-2)
enddo
end";
    for s in [Strategy::EarliestRE, Strategy::EarliestPartialRE] {
        verify_ok(src, s);
    }
}

/// Generator seed 645755: an absorption chain (`E0` absorbs `E1`, then
/// `E2` absorbs `E0`). Under `EarliestRE` the chain left `E1`'s data
/// unserved (no obligation inheritance), so absorbers now refuse to be
/// absorbed there; under `Global` the chain is legal (obligations are
/// inherited into the final placement) and the legality checker had to
/// learn to resolve chains before judging coverage.
#[test]
fn absorption_chains_stay_served() {
    let src = "
program chain
param n, nsteps
real a(n) distribute (cyclic)
real b(n) distribute (*)
real s
do v = 2, n-1
  b(1:n-1) = b(2:n) + 0.5 * b(2:n) - a(2:n)
  b(1:n-2) = a(2:n-1) - b(2:n-1) + 0.5 * b(3:n)
  b(v) = a(v-1) + a(v+1)
enddo
s = sum(a(1:n))
end";
    for s in [
        Strategy::Original,
        Strategy::EarliestRE,
        Strategy::EarliestPartialRE,
        Strategy::Global,
    ] {
        verify_ok(src, s);
        // The chain appeared under a tight budget first: re-check there.
        let c = compile_budgeted(src, s, Budget::steps(50)).unwrap();
        let rep = check_schedule(&c);
        assert!(rep.ok(), "{s:?} steps=50: {rep}");
    }
}

/// The exact generated programs for all three seeds, replayed end-to-end
/// (guards against the minimizations drifting from what the generator
/// actually produces).
#[test]
fn original_crasher_seeds_replay_clean() {
    for seed in [639135u64, 641399, 645755] {
        let src = proptest::hpf::generate(seed);
        for s in [
            Strategy::Original,
            Strategy::EarliestRE,
            Strategy::EarliestPartialRE,
            Strategy::Global,
        ] {
            verify_ok(&src, s);
            for steps in [0u64, 1, 7, 50] {
                let c = compile_budgeted(&src, s, Budget::steps(steps)).unwrap();
                let rep = check_schedule(&c);
                assert!(rep.ok(), "seed {seed} {s:?} steps={steps}: {rep}");
            }
        }
    }
}
