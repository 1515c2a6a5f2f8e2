//! A mergeable log-bucket histogram of `u64` samples (latencies in
//! nanoseconds, in practice).
//!
//! The buckets are fixed: values below 4 have a bucket each, and every
//! power-of-two range `[2^e, 2^(e+1))` above is split into four equal
//! buckets, so a bucket's bounds are within 25 % of each other and the
//! whole `u64` range takes [`BUCKETS`] counters. Recording is one relaxed
//! atomic add — no lock, no allocation — and two histograms merge by
//! adding counts bucket by bucket, so shards recorded on different threads
//! sum to the histogram one thread would have recorded.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;

/// Buckets of every histogram: `SUB` exact small values, then `SUB` for
/// each exponent from `SUB_BITS` to 63.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Counts of samples per fixed log-scale bucket; see the module docs.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// The bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// The inclusive bounds of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let (e, sub) = ((i - SUB) / SUB + SUB_BITS as usize, (i - SUB) % SUB);
    let width = 1u64 << (e - SUB_BITS as usize);
    let lo = (1u64 << e) + sub as u64 * width;
    (lo, lo + (width - 1))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Counts one sample.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Samples recorded (merged ones included).
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The inclusive bounds of the bucket a sample `v` is counted in.
    pub fn bucket_bounds(v: u64) -> (u64, u64) {
        bounds_of(bucket_of(v))
    }

    /// `(low, high, count)` of every non-empty bucket, low to high, bounds
    /// inclusive.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = bounds_of(i);
                    (lo, hi, n)
                })
            })
            .collect()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) to within its bucket: the midpoint
    /// of the bucket holding the sample of rank `⌈q·count⌉` (at least 1).
    /// `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let buckets = self.buckets();
        let total: u64 = buckets.iter().map(|b| b.2).sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        buckets.into_iter().find_map(|(lo, hi, n)| {
            seen += n;
            (seen >= rank).then_some(lo + (hi - lo) / 2)
        })
    }

    /// `{"count":N,"p50":…,"p95":…,"p99":…}` (quantiles `null` when
    /// empty).
    pub fn to_json(&self) -> String {
        let q = |q| {
            self.quantile(q)
                .map_or("null".to_string(), |v| v.to_string())
        };
        format!(
            "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            self.count(),
            q(0.5),
            q(0.95),
            q(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        assert_eq!(bounds_of(0), (0, 0));
        assert_eq!(bounds_of(BUCKETS - 1).1, u64::MAX);
        for i in 1..BUCKETS {
            assert_eq!(bounds_of(i).0, bounds_of(i - 1).1 + 1, "bucket {i}");
            let (lo, hi) = bounds_of(i);
            assert_eq!((bucket_of(lo), bucket_of(hi)), (i, i));
        }
    }

    #[test]
    fn quantiles_of_a_known_set() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        let (lo, hi) = Histogram::bucket_bounds(50);
        assert!((lo..=hi).contains(&p50));
        assert!(h.to_json().starts_with("{\"count\":100,\"p50\":"));
    }
}
