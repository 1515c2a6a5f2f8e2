//! Property tests for span nesting well-formedness: random open/close
//! trees, executed as real RAII guards, must snapshot to records where
//! every child's interval sits inside its parent's, depths step by one,
//! and ids are unique.

use proptest::prelude::*;

use gcomm_obs::{install, span, Registry, SpanRecord};

/// A random span tree: each node is a name index plus children.
#[derive(Debug, Clone)]
struct Tree {
    name: usize,
    children: Vec<Tree>,
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = (0usize..6).prop_map(|name| Tree {
        name,
        children: Vec::new(),
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        ((0usize..6), prop::collection::vec(inner, 0..4))
            .prop_map(|(name, children)| Tree { name, children })
    })
}

/// Span names are `&'static str` (the tick path never builds a string).
const NAMES: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "s5"];

fn execute(t: &Tree) {
    let _g = span(NAMES[t.name]);
    for c in &t.children {
        execute(c);
    }
}

fn count_nodes(t: &Tree) -> usize {
    1 + t.children.iter().map(count_nodes).sum::<usize>()
}

fn by_id(spans: &[SpanRecord], id: u64) -> &SpanRecord {
    spans.iter().find(|s| s.id == id).expect("parent id exists")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nesting_is_well_formed(forest in prop::collection::vec(tree(), 1..4)) {
        let reg = Registry::new();
        {
            let _scope = install(reg.clone());
            for t in &forest {
                execute(t);
            }
        }
        let report = reg.snapshot();
        let spans = &report.spans;
        let expected: usize = forest.iter().map(count_nodes).sum();
        prop_assert_eq!(spans.len(), expected);
        prop_assert_eq!(report.dropped_spans, 0);

        // Ids unique.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), spans.len());

        for s in spans {
            match s.parent {
                None => prop_assert_eq!(s.depth, 0, "root {} has depth {}", s.name, s.depth),
                Some(pid) => {
                    let p = by_id(spans, pid);
                    prop_assert_eq!(
                        s.depth, p.depth + 1,
                        "{} depth {} under parent depth {}", s.name, s.depth, p.depth
                    );
                    // The child's interval nests inside the parent's: the
                    // parent opened first and closed last (monotonic clock).
                    prop_assert!(p.start_ns <= s.start_ns);
                    prop_assert!(
                        s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns,
                        "child [{}, +{}] escapes parent [{}, +{}]",
                        s.start_ns, s.dur_ns, p.start_ns, p.dur_ns
                    );
                }
            }
        }
    }

    /// Span records never outlive the cap: overflowing trees aggregate
    /// into the pass table instead of growing the raw record list.
    #[test]
    fn span_cap_bounds_raw_records(extra in 0usize..64) {
        let reg = Registry::new();
        {
            let _scope = install(reg.clone());
            for _ in 0..(gcomm_obs::SPAN_CAP + extra) {
                let _g = span("hot");
            }
        }
        let report = reg.snapshot();
        prop_assert_eq!(report.spans.len(), gcomm_obs::SPAN_CAP);
        prop_assert_eq!(report.dropped_spans, extra as u64);
        // The aggregate still counts every call.
        let hot = report.passes().iter().find(|p| p.name == "hot").unwrap();
        prop_assert_eq!(hot.calls, (gcomm_obs::SPAN_CAP + extra) as u64);
    }
}
