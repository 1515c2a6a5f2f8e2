//! Differential certification of the branch-and-bound optimal search
//! (DESIGN.md §16) against the retained exhaustive reference.
//!
//! The contract under test:
//!
//! * **Bit-identity when both complete** — on the paper kernels and on
//!   every fuzzed program whose assignment space the enumeration can
//!   cover, branch-and-bound returns the *same* cost bits and the *same*
//!   schedule as exhaustive enumeration, at `jobs = 1` and `jobs = 8`.
//!   Pruning uses a strict floating-point margin, so neither the true
//!   optimum nor any exact cost tie is ever discarded (the companion
//!   admissibility pin lives in `crates/core/src/optimal.rs`).
//! * **Truncated budgets stay deterministic and safe** — with a node
//!   budget too small to finish, `jobs = 1` and `jobs = 8` still agree
//!   bit-for-bit (schedule, cost, node/prune counts), and the result is
//!   never worse than the greedy seed.
//!
//! Seeds are sequential from the shared fuzz base so CI and local runs
//! explore the same programs; `GCOMM_FUZZ_CASES` scales the count.

use gcomm::core::optimal::{comm_cost, OptimalResult};
use gcomm::core::{
    exhaustive_placement, optimal_placement_jobs, CombinePolicy, Compiled, SimConfig,
};
use gcomm::machine::{NetworkModel, ProcGrid};
use gcomm::{compile, Budget, Strategy};
use proptest::hpf;

const SEED_BASE: u64 = 0x9c077; // shared with the fuzz suites

/// Spaces up to this size are enumerated outright for the bit-identity
/// check; larger fuzzed spaces are covered by the truncation checks.
const ENUM_LIMIT: u64 = 2_000;

/// Node budget for the branch-and-bound side of the comparison. A search
/// tree over `S` leaves has at most `2S` branching nodes (forced
/// single-candidate bindings are free), so this always suffices for a
/// space the enumeration finished — the margin absorbs allowance
/// rounding across subtrees.
const BNB_LIMIT: u64 = 4 * ENUM_LIMIT + 64;

fn cases() -> u64 {
    std::env::var("GCOMM_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
        .max(200) // the differential floor: at least 200 fuzzed programs
}

fn scoring(c: &Compiled) -> (SimConfig, NetworkModel) {
    let rank = c.prog.grid_rank();
    let cfg = SimConfig::uniform(c, ProcGrid::balanced(8, rank), 32).with("nsteps", 2);
    (cfg, NetworkModel::sp2())
}

/// Asserts branch-and-bound ≡ exhaustive (cost bits and schedule) on one
/// compiled program, at jobs 1 and 8. Returns false when the program has
/// no communication or its space exceeds `ENUM_LIMIT`.
fn assert_bnb_matches_exhaustive(c: &Compiled, what: &str) -> bool {
    bnb_matching_exhaustive(c, what, ENUM_LIMIT, BNB_LIMIT).is_some()
}

/// [`assert_bnb_matches_exhaustive`] under explicit budgets; returns the
/// (jobs-invariant) branch-and-bound result when the comparison ran.
fn bnb_matching_exhaustive(
    c: &Compiled,
    what: &str,
    enum_limit: u64,
    bnb_limit: u64,
) -> Option<OptimalResult> {
    let (cfg, net) = scoring(c);
    let policy = CombinePolicy::default();
    let ex = exhaustive_placement(c, &policy, &cfg, &net, &Budget::steps(enum_limit))?;
    if ex.truncated {
        return None; // space too large for the reference
    }
    let mut result = None;
    for jobs in [1usize, 8] {
        let bb = optimal_placement_jobs(c, &policy, &cfg, &net, &Budget::steps(bnb_limit), jobs)
            .expect("same front half as the reference");
        assert!(
            !bb.truncated,
            "{what} jobs {jobs}: branch-and-bound truncated inside a budget \
             the enumeration finished under (nodes {}, space {})",
            bb.nodes, bb.space
        );
        assert_eq!(
            bb.comm_us.to_bits(),
            ex.comm_us.to_bits(),
            "{what} jobs {jobs}: cost diverged from exhaustive \
             ({} vs {})",
            bb.comm_us,
            ex.comm_us
        );
        assert_eq!(
            bb.schedule, ex.schedule,
            "{what} jobs {jobs}: schedule diverged from exhaustive"
        );
        result = Some(bb);
    }
    result
}

/// Asserts the truncated search is jobs-invariant and never worse than
/// the greedy seed.
fn assert_truncated_is_deterministic(c: &Compiled, budget: u64, what: &str) {
    let (cfg, net) = scoring(c);
    let policy = CombinePolicy::default();
    let run =
        |jobs: usize| optimal_placement_jobs(c, &policy, &cfg, &net, &Budget::steps(budget), jobs);
    let Some(one) = run(1) else { return };
    let greedy = comm_cost(c, &cfg, &net);
    assert!(
        one.comm_us <= greedy,
        "{what}: truncated search returned {} above the greedy seed {greedy}",
        one.comm_us
    );
    let eight = run(8).expect("same front half");
    assert_eq!(
        one.comm_us.to_bits(),
        eight.comm_us.to_bits(),
        "{what}: truncated cost diverged between jobs 1 and 8"
    );
    assert_eq!(
        one.schedule, eight.schedule,
        "{what}: truncated schedule diverged between jobs 1 and 8"
    );
    assert_eq!(
        (
            one.nodes,
            one.leaves,
            one.pruned_bound,
            one.pruned_dominance,
            one.truncated
        ),
        (
            eight.nodes,
            eight.leaves,
            eight.pruned_bound,
            eight.pruned_dominance,
            eight.truncated
        ),
        "{what}: truncated search counters diverged between jobs 1 and 8"
    );
}

/// Paper kernels and figures: every enumerable space must be
/// bit-identical, and at least the small figures must actually exercise
/// the comparison.
#[test]
fn kernels_bnb_matches_exhaustive() {
    let figures = [
        ("fig3-f90", gcomm::kernels::FIG3_F90),
        ("fig3-scalarized", gcomm::kernels::FIG3_SCALARIZED),
        ("fig4-running", gcomm::kernels::FIG4_RUNNING),
    ];
    let mut cases: Vec<(String, &str)> = figures
        .iter()
        .map(|&(n, src)| (n.to_string(), src))
        .collect();
    cases.extend(
        gcomm::kernels::all_kernels()
            .into_iter()
            .map(|(bench, routine, src)| (format!("{bench}:{routine}"), src)),
    );
    let mut exercised = 0;
    for (name, src) in cases {
        let c = compile(src, Strategy::Global).unwrap_or_else(|e| panic!("{name}: {e}"));
        if assert_bnb_matches_exhaustive(&c, &name) {
            exercised += 1;
        }
    }
    assert!(
        exercised >= 3,
        "only {exercised} kernels had enumerable spaces — the differential \
         check lost its coverage"
    );
}

/// Dominance pruning earns its keep (ROADMAP 3b): it cuts nothing on the
/// five `compare_optimal` kernels, but on `gravity:main` (space 4 096, past
/// `ENUM_LIMIT`) it cuts subtrees the bound test let through, and the
/// certified result is still the enumeration's, bit for bit.
#[test]
fn dominance_pruning_fires_on_gravity_and_stays_exact() {
    let c = compile(gcomm::kernels::GRAVITY, Strategy::Global).expect("gravity compiles");
    let bb = bnb_matching_exhaustive(&c, "gravity:main", 4_096, 4 * 4_096 + 64)
        .expect("gravity:main's space is enumerable at 4 096");
    assert_eq!(bb.space, 4_096);
    assert!(bb.pruned_dominance > 0, "dominance never fired: {bb:?}");
}

/// ≥200 fuzzed programs, complete budgets: wherever the enumeration can
/// cover the space, branch-and-bound must agree bit-for-bit.
#[test]
fn fuzzed_programs_bnb_matches_exhaustive() {
    let seeds: Vec<u64> = (0..cases()).map(|i| SEED_BASE + i).collect();
    let exercised: usize = gcomm::par::map(gcomm::par::default_jobs(), &seeds, |_, &seed| {
        let src = hpf::generate(seed);
        let c =
            compile(&src, Strategy::Global).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        usize::from(assert_bnb_matches_exhaustive(&c, &format!("seed {seed}")))
    })
    .into_iter()
    .sum();
    // The generator makes mostly small programs; the differential check
    // must actually fire on a meaningful share of them.
    assert!(
        exercised >= 50,
        "only {exercised} fuzzed programs had enumerable spaces"
    );
}

/// ≥200 fuzzed programs, truncated budgets: a node budget far below the
/// space keeps jobs 1 and 8 bit-identical and never loses to the seed.
#[test]
fn fuzzed_programs_truncated_budgets_are_deterministic() {
    let seeds: Vec<u64> = (0..cases()).map(|i| SEED_BASE + i).collect();
    gcomm::par::map(gcomm::par::default_jobs(), &seeds, |_, &seed| {
        let src = hpf::generate(seed);
        let c =
            compile(&src, Strategy::Global).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        // 37 nodes: small enough to truncate anything non-trivial, odd
        // enough to land mid-subtree.
        assert_truncated_is_deterministic(&c, 37, &format!("seed {seed} budget 37"));
    });
}
