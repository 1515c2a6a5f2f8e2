//! Property tests for `Histogram`: merging is associative and commutative
//! (shards recorded on different threads sum to one histogram however they
//! are combined), counts add up, and a reported quantile lies within the
//! bounds of the bucket holding the sample of that rank.

use proptest::prelude::*;

use gcomm_obs::Histogram;

/// Samples spread over every magnitude: a random width of bits, then a
/// random value of that width.
fn sample() -> BoxedStrategy<u64> {
    (0u32..=64, any::<u64>())
        .prop_map(|(bits, x)| if bits == 0 { 0 } else { x >> (64 - bits) })
        .boxed()
}

fn samples() -> BoxedStrategy<Vec<u64>> {
    prop::collection::vec(sample(), 0..200)
}

fn of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// `a + b` as a fresh histogram.
fn sum(a: &Histogram, b: &Histogram) -> Histogram {
    let h = Histogram::new();
    h.merge(a);
    h.merge(b);
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_associative_and_commutative(a in samples(), b in samples(), c in samples()) {
        let (a, b, c) = (of(&a), of(&b), of(&c));
        prop_assert_eq!(sum(&a, &b).buckets(), sum(&b, &a).buckets());
        prop_assert_eq!(
            sum(&sum(&a, &b), &c).buckets(),
            sum(&a, &sum(&b, &c)).buckets()
        );
    }

    #[test]
    fn counts_add_up(a in samples(), b in samples()) {
        let (ha, hb) = (of(&a), of(&b));
        prop_assert_eq!(ha.count(), a.len() as u64);
        prop_assert_eq!(ha.buckets().iter().map(|b| b.2).sum::<u64>(), a.len() as u64);
        prop_assert_eq!(sum(&ha, &hb).count(), (a.len() + b.len()) as u64);
        // Merging equals recording both sample sets into one histogram.
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(sum(&ha, &hb).buckets(), of(&both).buckets());
    }

    #[test]
    fn a_quantile_lies_within_its_bucket(values in samples(), q in 0.0f64..1.0) {
        let h = of(&values);
        let Some(got) = h.quantile(q) else {
            prop_assert!(values.is_empty());
            return Ok(());
        };
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let (lo, hi) = Histogram::bucket_bounds(sorted[rank - 1]);
        prop_assert!(
            (lo..=hi).contains(&got),
            "q {} reported {} outside [{}, {}]", q, got, lo, hi
        );
        for (lo, hi, _) in h.buckets() {
            prop_assert_eq!(Histogram::bucket_bounds(lo), (lo, hi));
            prop_assert_eq!(Histogram::bucket_bounds(hi), (lo, hi));
        }
    }
}
