//! `ByteLru` against the B-tree LRU it replaced (kept verbatim in
//! `tests/support/lru_reference.rs`): seeded streams of `get`, `peek` and
//! `insert` — same-key replacements and entries over the cap included —
//! at caps 0, tiny and roomy. After every operation both maps must return
//! the same thing, have evicted as many entries, hold as many entries and
//! bytes, and list their keys in the same recency order.

use gcomm_query::ByteLru;

#[path = "support/lru_reference.rs"]
mod lru_reference;

/// A small linear congruential stream (the property tests' own).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn drive(seed: u64, cap: u64, keys: u64, ops: usize) {
    let mut new = ByteLru::new(cap);
    let mut old = lru_reference::ByteLru::new(cap);
    let mut rng = Rng(seed);
    for op in 0..ops {
        let key = rng.below(keys);
        let what = match rng.below(10) {
            0..=2 => {
                let (a, b) = (new.get(&key).copied(), old.get(&key).copied());
                assert_eq!(a, b, "get {key}");
                format!("get {key}")
            }
            3 => {
                let (a, b) = (new.peek(&key).copied(), old.peek(&key).copied());
                assert_eq!(a, b, "peek {key}");
                format!("peek {key}")
            }
            _ => {
                // Mostly within the cap, sometimes exactly at it or over it.
                let bytes = match rng.below(20) {
                    0 => cap,
                    1 => cap + 1 + rng.below(8),
                    _ => rng.below(cap / 4 + 2),
                };
                let value = rng.below(1 << 20);
                let evicted = (new.insert(key, value, bytes), old.insert(key, value, bytes));
                assert_eq!(evicted.0, evicted.1, "insert {key} ({bytes} B): evicted");
                format!("insert {key} ({bytes} B)")
            }
        };
        let ctx = format!("seed {seed}, cap {cap}, op {op}: {what}");
        assert_eq!(new.len(), old.len(), "{ctx}: len");
        assert_eq!(new.is_empty(), old.is_empty(), "{ctx}: is_empty");
        assert_eq!(new.used_bytes(), old.used_bytes(), "{ctx}: used_bytes");
        assert!(new.used_bytes() <= cap, "{ctx}: over the cap");
        let order: Vec<u64> = new.keys_lru_first().copied().collect();
        assert_eq!(order, old.keys_lru_first(), "{ctx}: recency order");
    }
}

#[test]
fn cap_zero_stores_only_free_entries() {
    for seed in 0..8 {
        drive(seed, 0, 6, 400);
    }
}

#[test]
fn tiny_cap_evicts_on_most_inserts() {
    for seed in 0..16 {
        drive(seed, 24, 12, 2_000);
    }
}

#[test]
fn roomy_cap_replaces_and_reorders_without_evicting_much() {
    for seed in 0..8 {
        drive(seed, 4_096, 64, 5_000);
    }
}

#[test]
fn a_wide_key_space_churns_the_slab() {
    for seed in 0..4 {
        drive(seed, 400, 1_000, 20_000);
    }
}
