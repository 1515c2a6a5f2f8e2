//! The consistent-hash ring mapping content-addressed cache keys to
//! shards.
//!
//! Each shard owns `vnodes` points on a 64-bit ring (the `gcomm-query`
//! fingerprint of `(shard, vnode)`; it avalanches on its own, so no extra
//! finaliser sits in front of the ring); a key routes to the shard owning
//! the first point at or after the key's own hash, wrapping at the top.
//! Virtual nodes keep
//! the keyspace split roughly even for small shard counts, and the
//! *successor* walk — the next **distinct** shards around the ring —
//! defines the failover order: a dead shard's requests go to the next
//! shard on the ring, so its death hands its keyspace to exactly the
//! shard that inherits it.

use gcomm_query::Fingerprinter;

/// An immutable consistent-hash ring over `shards` shard indices.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` shards with `vnodes` points each
    /// (both clamped to at least 1).
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((Fingerprinter::of(&(s, v)), s));
            }
        }
        // Ties (two points hashing identically) resolve to the lower
        // shard index, deterministically.
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key_hash`: the first ring point at or after it,
    /// wrapping around the top of the ring.
    pub fn primary(&self, key_hash: u64) -> usize {
        let idx = self.points.partition_point(|&(p, _)| p < key_hash);
        self.points[idx % self.points.len()].1
    }

    /// The first `count` **distinct** shards in ring order starting at
    /// the key's primary — `[primary, first replica, ...]`. Never longer
    /// than the shard count.
    pub fn successors(&self, key_hash: u64, count: usize) -> Vec<usize> {
        let count = count.clamp(1, self.shards);
        let start = self.points.partition_point(|&(p, _)| p < key_hash);
        let mut order = Vec::with_capacity(count);
        for i in 0..self.points.len() {
            let shard = self.points[(start + i) % self.points.len()].1;
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == count {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_query::fingerprint;

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = Ring::new(4, 64);
        for i in 0..1000u64 {
            let h = fingerprint(format!("key{i}").as_bytes());
            let p = ring.primary(h);
            assert!(p < 4);
            assert_eq!(p, ring.primary(h), "primary must be stable");
            assert_eq!(p, Ring::new(4, 64).primary(h), "and rebuild-stable");
        }
    }

    #[test]
    fn keyspace_is_roughly_balanced() {
        let ring = Ring::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[ring.primary(fingerprint(format!("key{i}").as_bytes()))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // 4000 keys over 4 shards: each should land near 1000. A wide
            // tolerance still catches a broken ring (all keys on one shard).
            assert!((400..=1800).contains(&c), "shard {s} owns {c} of 4000");
        }
    }

    #[test]
    fn successors_are_distinct_and_start_at_primary() {
        let ring = Ring::new(3, 16);
        for i in 0..200u64 {
            let h = fingerprint(format!("k{i}").as_bytes());
            let succ = ring.successors(h, 2);
            assert_eq!(succ.len(), 2);
            assert_eq!(succ[0], ring.primary(h));
            assert_ne!(succ[0], succ[1], "replica must be a distinct shard");
        }
        // Requesting more replicas than shards caps at the shard count.
        let all = ring.successors(7, 99);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = Ring::new(1, 8);
        assert_eq!(ring.primary(0), 0);
        assert_eq!(ring.primary(u64::MAX), 0);
        assert_eq!(ring.successors(42, 3), vec![0]);
    }

    #[test]
    fn removal_only_moves_the_dead_shards_keys() {
        // Consistency property: shrinking 4 → 3 shards must not reshuffle
        // keys between surviving shards (only shard 3's keys move).
        let four = Ring::new(4, 64);
        let three = Ring::new(3, 64);
        let mut moved_from_survivor = 0;
        for i in 0..2000u64 {
            let h = fingerprint(format!("key{i}").as_bytes());
            let (a, b) = (four.primary(h), three.primary(h));
            if a < 3 && a != b {
                moved_from_survivor += 1;
            }
        }
        assert_eq!(moved_from_survivor, 0, "survivor keyspaces must be stable");
    }
}
