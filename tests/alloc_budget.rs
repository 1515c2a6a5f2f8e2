//! Heap-allocation budget of the in-process op the benchmark times:
//! `compile → report → SimConfig::uniform → lower_to_sim` — and of a served
//! one-routine edit and of a warm hit, in-process: `try_cached` (a miss)
//! → `compile`, and `try_cached` (a hit).
//!
//! Allocation *counts* are exact and clock-free, so the limits hold on any
//! runner. This binary exists for one reason — its `#[global_allocator]`
//! is a counting wrapper around the system allocator, which must not leak
//! into any other test. A per-stage table (a staged replay of `compile`
//! over the same inputs) is printed under `--nocapture` and carried by
//! every failure message, and the set-up stages have limits of their own,
//! so a regression names its stage.

use std::fmt::Write as _;

use gcomm::core::candidates::candidates;
use gcomm::core::earliest::earliest_pos;
use gcomm::core::greedy::choose;
use gcomm::core::latest::latest;
use gcomm::core::subset::{subset_eliminate, CandidateTable};
use gcomm::core::{
    commgen, lower_to_sim, redundancy, strategy, AnalysisCtx, CombinePolicy, SimConfig,
};
use gcomm::machine::ProcGrid;
use gcomm::serve::{CompileReq, Service, ServiceConfig};
use gcomm::{Budget, Strategy};
use proptest::hpf;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/edit_pool.rs"]
mod edit_pool;
use counting_alloc::{allocs_during, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, adds the allocations it made to `into`, returns its value.
fn counted<T>(into: &mut u64, f: impl FnOnce() -> T) -> T {
    let (out, n) = allocs_during(f);
    *into += n;
    out
}

/// The benchmark's `corpus` pool: 400 pinned generated programs, `comb`.
fn corpus_programs() -> Vec<(String, Strategy)> {
    (0..400u64)
        .map(|i| (hpf::generate(0x6763_1996 + i), Strategy::Global))
        .collect()
}

/// The benchmark's `kernels` pool: six routines × {orig, nored, comb}.
fn kernel_programs() -> Vec<(String, Strategy)> {
    gcomm::kernels::all_kernels()
        .into_iter()
        .flat_map(|(_, _, src)| {
            [Strategy::Original, Strategy::EarliestRE, Strategy::Global]
                .map(|s| (src.to_string(), s))
        })
        .collect()
}

/// Allocation totals over a pool.
#[derive(Default)]
struct Totals {
    /// The whole op.
    op: u64,
    /// `Compiled::report` alone.
    report: u64,
    /// `lower_to_sim` alone.
    lower_to_sim: u64,
}

fn run_ops(programs: &[(String, Strategy)]) -> Totals {
    let mut t = Totals::default();
    for (src, strategy) in programs {
        counted(&mut t.op, || {
            let c = gcomm::compile(src, *strategy).expect("pool programs compile");
            let report = counted(&mut t.report, || c.report());
            let rank = c.prog.grid_rank();
            let cfg = SimConfig::uniform(&c, ProcGrid::balanced(25, rank), 64).with("nsteps", 10);
            let lowered = counted(&mut t.lower_to_sim, || lower_to_sim(&c, &cfg));
            std::hint::black_box((report, lowered));
        });
    }
    t
}

/// Mean allocations per program of each `compile` stage, from a staged
/// replay through the public pass functions, plus the op's own `report`
/// and `lower_to_sim` means.
fn stage_means(programs: &[(String, Strategy)], t: &Totals) -> Vec<(&'static str, f64)> {
    const STAGES: [&str; 10] = [
        "lex",
        "parse",
        "lower",
        "commgen",
        "AnalysisCtx",
        "candidates",
        "subset",
        "redundancy",
        "greedy",
        "place(orig/nored)",
    ];
    let mut a = [0u64; STAGES.len()];
    for (src, strat) in programs {
        let _tokens = counted(&mut a[0], || gcomm::lang::lexer::lex(src));
        let ast = counted(&mut a[1], || gcomm::parse_program(src)).expect("parses");
        let prog = counted(&mut a[2], || gcomm::ir::lower(&ast)).expect("lowers");
        let entries = counted(&mut a[3], || commgen::number(commgen::generate(&prog)));
        let ctx = counted(&mut a[4], || {
            AnalysisCtx::with_budget(&prog, Budget::unlimited())
        });
        if *strat != Strategy::Global {
            counted(&mut a[9], || strategy::run(&ctx, entries, *strat));
            continue;
        }
        let mut table = CandidateTable::default();
        counted(&mut a[5], || {
            for e in &entries {
                let lp = latest(&ctx, e);
                let ep = earliest_pos(&ctx, e);
                table.cands.insert(e.id, candidates(&ctx, e, ep, lp));
            }
        });
        counted(&mut a[6], || {
            subset_eliminate(&mut table, &ctx.dt, &ctx.budget)
        });
        counted(&mut a[7], || {
            redundancy::eliminate(&ctx, &entries, &mut table)
        });
        counted(&mut a[8], || {
            choose(&ctx, &entries, &mut table, &CombinePolicy::default())
        });
    }
    let n = programs.len() as f64;
    STAGES
        .into_iter()
        .zip(a)
        .chain([("report", t.report), ("lower_to_sim", t.lower_to_sim)])
        .map(|(stage, allocs)| (stage, allocs as f64 / n))
        .collect()
}

/// Checks the op's mean against `op_limit` and each `(stage, limit)` of
/// `stage_limits` against that row of the stage table.
fn check(pool: &str, programs: &[(String, Strategy)], op_limit: f64, stage_limits: &[(&str, f64)]) {
    let t = run_ops(programs);
    let op = t.op as f64 / programs.len() as f64;
    let stages = stage_means(programs, &t);
    let mut report = format!("{pool}: {op:.1} allocations per op (limit {op_limit}), by stage:\n");
    let mut over = op > op_limit;
    for (stage, mean) in &stages {
        let limit = stage_limits.iter().find(|(s, _)| s == stage);
        let _ = write!(report, "  {stage:<18} {mean:>8.1}");
        if let Some((_, limit)) = limit {
            let _ = write!(report, "  (limit {limit})");
            over |= mean > limit;
        }
        report.push('\n');
    }
    print!("{report}"); // shown by `--nocapture`
    assert!(!over, "{report}");
}

#[test]
fn corpus_op_stays_within_its_allocation_budget() {
    // `parse` is all of `parse_program` — lexing (one vector), the parser
    // and `validate`: 41.8 a program into an index arena sized from the
    // token count, from 85.7 while every expression node was a `Box` and
    // every reference's subscripts a `Vec`. `lower` 61.1. `commgen` 13.8,
    // from 28.0 while every entry stored a formatted label. `AnalysisCtx`
    // 45.4, from 62.5 while the SSA builder kept a vector per array and per
    // φ-holding node. `candidates` is one row per entry plus the pair
    // table: 13.3, from 40.9 while a window was a `BTreeSet` and each
    // analysis returned a `Vec`; `greedy` 18.3, from 29.9 with a B-tree per
    // grouping and a copied row per entry. `report` is its one buffer, from
    // 17.0 with a `Vec` and a `join` per group. `lower_to_sim` 15.6, from
    // 23.6 while it widened every section again and bound variables through
    // hash maps. Limits sit 10 % above the readings (226.3 for the op;
    // 282.7 with labels, re-widening and per-array SSA scratch, 326.6 with
    // the boxed tree).
    let limits = [
        ("parse", 46.0),
        ("lower", 67.2),
        ("commgen", 15.2),
        ("AnalysisCtx", 49.9),
        ("candidates", 14.6),
        ("greedy", 20.1),
        ("report", 1.1),
        ("lower_to_sim", 17.2),
    ];
    check("corpus", &corpus_programs(), 249.0, &limits);
}

#[test]
fn kernels_op_stays_within_its_allocation_budget() {
    // 414.1 measured: 600.8 while every entry stored a formatted label
    // (`commgen` 129.7, now 65.5), the report joined a `Vec` per group
    // (`report` 39.4, now 1.0), `lower_to_sim` widened every section again
    // and bound variables through hash maps (71.2, now 32.3) and the SSA
    // builder kept a vector per array and per φ-holding node
    // (`AnalysisCtx` 82.2, now 49.7); 770.5 with the boxed expression tree,
    // 915.4 before the dense placement tables. Limits sit 10 % above.
    let limits = [
        ("commgen", 72.0),
        ("AnalysisCtx", 54.7),
        ("report", 1.1),
        ("lower_to_sim", 35.5),
    ];
    check("kernels", &kernel_programs(), 456.0, &limits);
}

/// A served edit of the benchmark's first `edit` module (64 routines, 50
/// single-routine edits): what the transports do with a parsed request
/// that misses the response cache. About 165 of the allocations were the
/// compile of the routine that changed (0.75 of one on average
/// — a deleted routine recompiles nothing) while the bookkeeping around it
/// — key material, splitting, probing, render, stats — took the rest.
/// 300.8 per edit while the splitter built a `String` per routine name,
/// 245.3 since it borrows them, 192.1 while the engine memoized every
/// pass and 193.0 with one product per routine (a copy of the chunk's
/// bytes is its guard, and the slots of same-named routines are counted
/// apart); 182.9 once the engine's recency index was a list in a slab
/// rather than B-tree nodes, a slot's fingerprint a plain `u64` rather
/// than an `Arc`, and the batch's result vector the products' own, and
/// 177.9 with the module payload allocated once rather than grown by
/// doubling; 127.6 once a request ticked a registry that outlives it
/// instead of building, snapshotting and absorbing one of its own, 118.6
/// with the key material and the response each allocated once, and 102.6
/// with the report, the rendered payload and its simulation object each
/// written into one buffer (and the compile's own savings: on-demand entry
/// labels, index-bound lowering, one SSA renaming stack). The limit sits
/// 10 % above.
#[test]
fn served_edit_stays_within_its_allocation_budget() {
    const LIMIT: f64 = 113.0;
    let request = |source: &str| CompileReq {
        id: Some(1),
        source: source.to_string(),
        strategy: Strategy::Global,
        budget: None,
        sim: None,
    };
    let svc = Service::new(ServiceConfig::default());
    let states = edit_pool::edit_chain(0);
    svc.compile(&request(&states[0]));
    let mut allocs = 0;
    for state in &states[1..] {
        let req = request(state);
        counted(&mut allocs, || {
            assert!(svc.try_cached(&req).is_none(), "an edit misses the cache");
            std::hint::black_box(svc.compile(&req));
        });
    }
    let per_edit = allocs as f64 / (states.len() - 1) as f64;
    println!("edit: {per_edit:.1} allocations per served edit (limit {LIMIT})");
    assert!(
        per_edit <= LIMIT,
        "edit: {per_edit:.1} allocations per served edit (limit {LIMIT})"
    );
}

/// A served warm hit, in-process: `try_cached` on each of the benchmark's
/// 400 corpus programs (`sim: sp2/64`, as the `serve` workload asks) once
/// all are cached. The key material and the response are the two
/// allocations a hit needs: 15.0 per hit while the key and the response
/// grew by doubling, the payload was cloned out of the cache, and the hit
/// built a report of two counter names for a reorder buffer to absorb;
/// 2.0 since the payload is shared and each string allocated once. The
/// limit sits 10 % above.
#[test]
fn served_warm_hit_stays_within_its_allocation_budget() {
    const LIMIT: f64 = 2.2;
    let svc = Service::new(ServiceConfig::default());
    let requests: Vec<CompileReq> = corpus_programs()
        .into_iter()
        .map(|(source, strategy)| CompileReq {
            id: Some(1),
            source,
            strategy,
            budget: None,
            sim: Some(gcomm::serve::SimSpec::flat("sp2", 64)),
        })
        .collect();
    for req in &requests {
        svc.compile(req);
    }
    let mut allocs = 0;
    for req in &requests {
        counted(&mut allocs, || {
            std::hint::black_box(svc.try_cached(req).expect("a cached program hits"));
        });
    }
    let per_hit = allocs as f64 / requests.len() as f64;
    println!("warm hit: {per_hit:.1} allocations per served hit (limit {LIMIT})");
    assert!(
        per_hit <= LIMIT,
        "warm hit: {per_hit:.1} allocations per served hit (limit {LIMIT})"
    );
}
