//! Determinism contract of the parallel layer (DESIGN.md §11).
//!
//! Everything `gcomm-par` touches must be **bit-identical** between
//! `--jobs 1` and `--jobs N`:
//!
//! * compiles fanned across the worker pool produce the same schedules as
//!   a serial loop;
//! * the branch-and-bound placement search returns the same schedule,
//!   cost bits, node/prune counts, and `truncated` flag for any worker
//!   count — workers share nothing mutable, and cost ties resolve by
//!   subtree order.

use gcomm::core::{optimal_placement_jobs, CombinePolicy, SimConfig};
use gcomm::machine::{NetworkModel, ProcGrid};
use gcomm::{compile, Budget, Strategy};
use proptest::hpf;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Original,
    Strategy::EarliestRE,
    Strategy::EarliestPartialRE,
    Strategy::Global,
];

/// The branch-and-bound search: same schedule, cost bits, node and prune
/// counts, and truncated flag for any worker count, across complete and
/// truncated budgets (DESIGN.md §16 determinism contract).
#[test]
fn optimal_search_is_jobs_invariant() {
    let cases: [(&str, usize, u64); 3] = [
        (gcomm_kernels::FIG4_RUNNING, 2, 20_000),
        (gcomm_kernels::FIG3_SCALARIZED, 2, 5_000),
        // Tight budget: the truncated path must stay jobs-invariant too.
        (gcomm_kernels::TRIMESH_GAUSS, 2, 100),
    ];
    for (src, axes, budget) in cases {
        let c = compile(src, Strategy::Global).expect("compiles");
        let cfg = SimConfig::uniform(&c, ProcGrid::balanced(8, axes), 48).with("nsteps", 4);
        let net = NetworkModel::sp2();
        let run = |jobs: usize| {
            let b = Budget::steps(budget);
            optimal_placement_jobs(&c, &CombinePolicy::default(), &cfg, &net, &b, jobs)
                .expect("has communication")
        };
        let one = run(1);
        for jobs in [2, 4, 8] {
            let many = run(jobs);
            assert_eq!(
                one.schedule, many.schedule,
                "jobs {jobs}: schedule diverged"
            );
            assert_eq!(
                one.comm_us.to_bits(),
                many.comm_us.to_bits(),
                "jobs {jobs}: cost diverged"
            );
            assert_eq!(one.nodes, many.nodes, "jobs {jobs}: nodes diverged");
            assert_eq!(one.leaves, many.leaves, "jobs {jobs}: leaves diverged");
            assert_eq!(
                (one.pruned_bound, one.pruned_dominance),
                (many.pruned_bound, many.pruned_dominance),
                "jobs {jobs}: prune counts diverged"
            );
            assert_eq!(
                one.truncated, many.truncated,
                "jobs {jobs}: truncated flag diverged"
            );
        }
    }
}

/// 200 fuzzed programs: compiling inside the worker pool is bit-identical
/// to compiling serially.
#[test]
fn fuzz_seeds_are_jobs_invariant() {
    let seeds: Vec<u64> = (0..200).map(|i| 0x9c077 + i).collect();
    let compile_all = |jobs: usize| {
        gcomm::par::map(jobs, &seeds, |_, &seed| {
            let src = hpf::generate(seed);
            STRATEGIES
                .map(|s| compile(&src, s).unwrap_or_else(|e| panic!("seed {seed} {s:?}: {e}")))
        })
    };
    let serial = compile_all(1);
    let parallel = compile_all(8);
    for (seed, (a, b)) in seeds.iter().zip(serial.iter().zip(&parallel)) {
        assert_eq!(a, b, "seed {seed}: schedules diverged between jobs 1 and 8");
    }
}
