//! Property tests for the observability layer's core guarantees:
//!
//! * the entry-fate partition `candidates == placed + redundant +
//!   combined_away` holds for every kernel × strategy,
//! * a stats-enabled compile is bit-identical in program and schedule to a
//!   stats-disabled compile (collection never influences placement),
//! * every canonical taxonomy counter — including the serve robustness
//!   counters, the incremental-query counters, and the persistent-store
//!   counters — is zero-filled in every emitted report,
//! * the incremental path (DESIGN.md §14) produces programs and
//!   schedules bit-identical to a stats-enabled cold compile — memo
//!   reuse, like stats collection, never influences placement.

use proptest::prelude::*;

use gcomm::{compile, compile_stats, Strategy as Opt};

/// The canonical counter taxonomy is a contract: every report carries the
/// full key set (zero-filled), so dashboards and diffs never miss a key
/// because a run happened not to exercise it. This pins both halves: the
/// zero-fill mechanism, and membership of the counters each layer owns.
#[test]
fn canonical_taxonomy_is_zero_filled_in_every_report() {
    let empty = gcomm::obs::Registry::new().snapshot().to_json();
    for name in gcomm::obs::CANONICAL_COUNTERS {
        let key = format!("\"{name}\":0");
        assert!(
            empty.contains(&key),
            "canonical counter {name} missing from an empty report"
        );
    }
    for required in [
        "serve.overloaded",
        "query.hit",
        "query.miss",
        "query.cutoff",
        "query.invalidate",
        "store.append",
        "store.fsync",
        "store.compact",
        "store.recover_ok",
        "store.recover_torn",
        "store.quarantined",
        "search.nodes",
        "search.pruned_bound",
        "search.pruned_dominance",
        "search.complete",
        "coll.lowered",
        "coll.steps",
        "coll.selected_ring",
        "coll.selected_tree",
        "coll.selected_p2p",
        "coll.fallback",
    ] {
        assert!(
            gcomm::obs::CANONICAL_COUNTERS.contains(&required),
            "{required} must be part of the canonical taxonomy"
        );
    }
}

fn any_kernel() -> impl Strategy<Value = (&'static str, &'static str)> {
    prop::sample::select(
        gcomm::kernels::all_kernels()
            .into_iter()
            .map(|(b, _r, src)| (b, src))
            .collect::<Vec<_>>(),
    )
}

fn any_strategy() -> impl Strategy<Value = Opt> {
    prop::sample::select(vec![
        Opt::Original,
        Opt::EarliestRE,
        Opt::EarliestPartialRE,
        Opt::Global,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every candidate entry ends in exactly one fate: leading a placed
    /// group, riding combined inside a group, or absorbed as redundant.
    #[test]
    fn entry_fates_partition_candidates(
        kernel in any_kernel(),
        strategy in any_strategy(),
    ) {
        let (name, src) = kernel;
        let c = compile_stats(src, strategy)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = &c.stats;
        let candidates = s.counter("core.entries.candidates");
        let placed = s.counter("core.entries.placed");
        let redundant = s.counter("core.entries.redundant");
        let combined = s.counter("core.entries.combined_away");
        prop_assert_eq!(
            candidates, placed + redundant + combined,
            "{}/{:?}: {} candidates != {} placed + {} redundant + {} combined",
            name, strategy, candidates, placed, redundant, combined
        );
        // And the counters agree with the schedule shape itself.
        prop_assert_eq!(candidates as usize, c.schedule.entries.len());
        prop_assert_eq!(placed as usize, c.schedule.groups.len());
        prop_assert_eq!(redundant as usize, c.schedule.absorptions.len());
    }

    /// Stats collection must be observationally free: the compiled program
    /// and schedule are identical with and without it.
    #[test]
    fn stats_run_is_bit_identical(
        kernel in any_kernel(),
        strategy in any_strategy(),
    ) {
        let (name, src) = kernel;
        let plain = compile(src, strategy)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = compile_stats(src, strategy).unwrap();
        prop_assert!(plain.stats.passes().is_empty(), "{}: plain compile collected stats", name);
        prop_assert!(!stats.stats.passes().is_empty(), "{}: stats compile collected nothing", name);
        // `Compiled` equality covers program + schedule and ignores stats.
        prop_assert_eq!(&plain, &stats, "{}/{:?}: schedules differ", name, strategy);
        prop_assert_eq!(
            plain.report(), stats.report(),
            "{}/{:?}: placement reports differ", name, strategy
        );
    }

    /// The incremental path must be observationally free too: compiling
    /// through a warm `IncrCompiler` (twice, so the second pass is pure
    /// memo reuse) yields the same program and schedule as a
    /// stats-enabled cold compile. Equality ignores stats — the work
    /// *done* is exactly what incrementality changes.
    #[test]
    fn incremental_run_is_bit_identical_to_stats_run(
        kernel in any_kernel(),
        strategy in any_strategy(),
    ) {
        let (name, src) = kernel;
        let stats = compile_stats(src, strategy)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ic = gcomm::core::incr::IncrCompiler::new(16 * 1024 * 1024);
        let spec = gcomm::guard::BudgetSpec::default();
        for pass in 0..2 {
            let out = ic.compile_module(src, strategy, &spec);
            prop_assert_eq!(out.routines.len(), 1, "{}: kernels are single-routine", name);
            let art = out.routines[0].result.as_ref()
                .unwrap_or_else(|e| panic!("{name}/{strategy:?}: {e:?}"));
            let warm = gcomm::core::Compiled {
                prog: (*art.prog).clone(),
                schedule: (*art.schedule).clone(),
                stats: Default::default(),
                asds: Default::default(),
            };
            // `Compiled` equality covers program + schedule, not stats.
            prop_assert_eq!(
                &warm, &stats,
                "{}/{:?} pass {}: incremental diverged from cold", name, strategy, pass
            );
        }
    }
}
