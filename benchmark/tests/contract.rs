//! What the benchmark promises about itself: the seed fixes the inputs,
//! the exact metrics repeat, and the correctness check can fail.

use gcomm_benchmark::e2e::{self, Outcome};
use gcomm_benchmark::inproc::Inproc;
use gcomm_benchmark::inputs::{corpus_programs, edit_chains, EXPECTED_STATIC_COUNTS};
use gcomm_benchmark::rounds::{run_rounds, Laps, NoSpans};
use gcomm_benchmark::served::{RoundBuf, Served};
use gcomm_benchmark::spec;
use gcomm_benchmark::verdict::Verdict;

fn sources(w: &Inproc) -> Vec<&str> {
    w.programs.iter().map(|p| p.src.as_str()).collect()
}

#[test]
fn same_seed_same_inputs_and_exact_metrics() {
    for workload in ["kernels", "corpus"] {
        let a = Inproc::prepare(workload, 11, EXPECTED_STATIC_COUNTS);
        let b = Inproc::prepare(workload, 11, EXPECTED_STATIC_COUNTS);
        assert!(a.oracle_errors.is_empty(), "{:?}", a.oracle_errors);
        assert_eq!(sources(&a), sources(&b));
        assert_eq!(a.order, b.order);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.sim_us_geomean.to_bits(), b.sim_us_geomean.to_bits());
        assert_eq!(a.static_msgs_total, b.static_msgs_total);
        assert!(a.order.len() >= 400, "p95 needs 20 samples beyond it");

        // Another seed: the same pinned pool in another order, so the
        // exact metrics do not move between the driver's seeds.
        let c = Inproc::prepare(workload, 12, EXPECTED_STATIC_COUNTS);
        assert_eq!(sources(&a), sources(&c));
        assert_ne!(a.order, c.order);
        assert_eq!(a.sim_us_geomean.to_bits(), c.sim_us_geomean.to_bits());
        assert_eq!(a.static_msgs_total, c.static_msgs_total);
    }
}

#[test]
fn kernels_static_total_is_the_papers() {
    let w = Inproc::prepare("kernels", 1, EXPECTED_STATIC_COUNTS);
    assert_eq!(w.static_msgs_total, 137 + 109 + 34);
}

/// The untraced run reads its verdict from a `prep` child's standard
/// output: what arrives is what `prepare` finds in-process.
#[test]
fn the_prep_child_says_what_prepare_finds() {
    let told = Verdict::parse(&e2e::prep("kernels", "1").expect("seed parses")).expect("parses");
    let mut w = Inproc::new("kernels", 1);
    assert_eq!(told, w.verify(EXPECTED_STATIC_COUNTS));
    // Until a verdict is adopted nothing is vouched for: every op fails.
    let mut outs = Vec::new();
    let all = w.order.len() as u64;
    assert_eq!(w.round(&mut Laps::default(), &mut outs, &mut NoSpans), all);
    w.adopt(told);
    assert_eq!(w.round(&mut Laps::default(), &mut outs, &mut NoSpans), 0);
    assert!(e2e::prep("kernels", "one").is_err());
}

#[test]
fn pools_are_pinned_and_distinct() {
    let corpus = corpus_programs();
    let mut distinct: Vec<&str> = corpus.iter().map(|p| p.src.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), corpus.len(), "corpus programs repeat");
    let chains = edit_chains();
    assert_eq!(chains, edit_chains());
    for chain in &chains {
        for pair in chain.windows(2) {
            assert_ne!(pair[0], pair[1], "an edit changed nothing");
        }
    }
}

#[test]
fn served_workloads_repeat_and_classes_hold() {
    for (workload, ops) in [("serve", 1200), ("edit", 400)] {
        let a = Served::prepare(workload, 3);
        let b = Served::prepare(workload, 3);
        assert!(a.oracle_errors.is_empty(), "{:?}", a.oracle_errors);
        assert_eq!(a.ops.len(), ops);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.expected, b.expected);
        assert!(a.expected.iter().all(Option::is_some));
        assert_eq!(a.expected_counts, b.expected_counts);
        assert_eq!(a.config.cache_bytes, b.config.cache_bytes);
        assert_ne!(a.ops, Served::prepare(workload, 4).ops);

        // A timed round reproduces the verified responses.
        let mut buf = RoundBuf::default();
        assert_eq!(a.round(&mut Laps::default(), &mut buf, &mut NoSpans), 0);
    }
    // Every round: 900 hits of 1200 requests, and cold entries evicted.
    let counts = Served::prepare("serve", 5)
        .expected_counts
        .expect("serve is checked");
    assert_eq!((counts.hits, counts.misses), (900, 400));
    assert!(counts.evictions > 0);
}

/// The check must be able to fail: a corrupted digest and a corrupted
/// static count both end in `ok_share` < 1 and `"correct": false`.
#[test]
fn a_wrong_answer_is_caught() {
    let outcome = |w: Inproc| {
        let mut outs = Vec::new();
        let summary = run_rounds(
            0.0,
            w.order.len(),
            |laps| w.round(laps, &mut outs, &mut NoSpans),
            |_| {},
        );
        Outcome {
            summary,
            setup_s: 1.0,
            sim_us_geomean: w.sim_us_geomean,
            static_msgs_total: w.static_msgs_total,
            oracle_errors: w.oracle_errors,
        }
    };

    let mut w = Inproc::prepare("kernels", 1, EXPECTED_STATIC_COUNTS);
    let good = outcome(Inproc::prepare("kernels", 1, EXPECTED_STATIC_COUNTS));
    assert!(good.correct() && good.summary.ok_share() == 1.0);
    assert!(good.line().contains("\"correct\": true"));

    w.expected[4] = w.expected[4].map(|d| d ^ 1);
    let bad = outcome(w);
    assert!(!bad.correct());
    assert!(bad.summary.ok_share() < 1.0);
    assert!(bad.line().contains("\"correct\": false"));

    // shallow main NNC comb: 8 in the paper's table.
    let table = EXPECTED_STATIC_COUNTS.replacen("14      8", "14      9", 1);
    assert_ne!(table, EXPECTED_STATIC_COUNTS);
    let bad = outcome(Inproc::prepare("kernels", 1, &table));
    assert!(!bad.correct());
    assert!(bad.oracle_errors.iter().any(|e| e.contains("shallow:main")));
    assert!(bad.summary.ok_share() < 1.0);
    assert!(bad.line().contains("\"correct\": false"));
}

#[test]
fn manifest_is_the_committed_benchmark_json() {
    let committed = include_str!("../../BENCHMARK.json");
    assert_eq!(spec::manifest(), committed);
}
