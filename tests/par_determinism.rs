//! Determinism contract of the parallel layer (DESIGN.md §11).
//!
//! Everything `gcomm-par` touches must be **bit-identical** between
//! `--jobs 1` and `--jobs N`:
//!
//! * compiles fanned across the worker pool produce the same schedules,
//!   and per-item stats registries merged in item order produce the same
//!   counters, as a serial loop;
//! * the parallel exhaustive placement search returns the same schedule,
//!   cost bits, node/prune counts, and `truncated` flag for any worker count — the
//!   shared best-cost bound only prunes, and ties resolve by assignment
//!   index.

use std::collections::BTreeMap;

use gcomm::core::{optimal_placement_jobs, CombinePolicy, Compiled, SimConfig};
use gcomm::machine::{NetworkModel, ProcGrid};
use gcomm::{compile, Budget, Strategy};
use proptest::hpf;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Original,
    Strategy::EarliestRE,
    Strategy::EarliestPartialRE,
    Strategy::Global,
];

/// Counter snapshot with the wall-clock-valued entries stripped (any
/// `*.wall_ns` accumulating timer varies run to run by construction).
fn stable_counters(report: &gcomm::obs::StatsReport) -> BTreeMap<String, u64> {
    report
        .counters
        .iter()
        .filter(|(k, _)| !k.ends_with("wall_ns"))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Compiles every item on `jobs` workers, each under a fresh registry,
/// and merges the snapshots in item order — the driver pattern of
/// `gcomm_bench::reports::par_report`.
fn compile_matrix(
    jobs: usize,
    work: &[(&str, Strategy)],
) -> (Vec<Compiled>, BTreeMap<String, u64>) {
    let merged = gcomm::obs::Registry::new();
    let results = gcomm::par::map(jobs, work, |_, &(src, strategy)| {
        let reg = gcomm::obs::Registry::new();
        let c = {
            let _scope = gcomm::obs::install(reg.clone());
            compile(src, strategy).expect("kernel compiles")
        };
        (c, reg.snapshot())
    });
    let mut compiled = Vec::new();
    for (c, snap) in results {
        merged.absorb(&snap);
        compiled.push(c);
    }
    (compiled, stable_counters(&merged.snapshot()))
}

/// Every kernel × strategy cell: schedules and merged counters from an
/// 8-worker fan-out are bit-identical to the serial loop.
#[test]
fn kernel_matrix_is_jobs_invariant() {
    let mut work = Vec::new();
    for (_, _, src) in gcomm_kernels::all_kernels() {
        for s in STRATEGIES {
            work.push((src, s));
        }
    }
    let (serial, serial_counters) = compile_matrix(1, &work);
    let (parallel, parallel_counters) = compile_matrix(8, &work);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a, b,
            "kernel cell {i} ({:?}) diverged between jobs 1 and 8",
            work[i].1
        );
    }
    assert_eq!(
        serial_counters, parallel_counters,
        "merged stats counters diverged between jobs 1 and 8"
    );
}

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
