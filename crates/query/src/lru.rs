//! The workspace's one byte-capped LRU: a hash map, a recency index and
//! the eviction loop, shared by the query engine's memo and the compile
//! service's response cache. Policy stays with each caller — what a key
//! is, what an entry is charged, what a same-key insert means.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

struct Entry<V> {
    value: V,
    /// What the caller charged this entry against the cap.
    bytes: u64,
    /// Recency tick; the entry also appears in `order` under this tick.
    tick: u64,
}

/// An LRU map bounded by the total of caller-reported entry sizes.
///
/// Not internally synchronized — callers wrap it in a `Mutex` (the
/// critical sections are a hash plus a map probe, far cheaper than a
/// compile).
pub struct ByteLru<K, V> {
    cap_bytes: u64,
    used_bytes: u64,
    map: HashMap<K, Entry<V>>,
    /// Recency tick → key; the first (smallest-tick) entry is the eviction
    /// victim.
    order: BTreeMap<u64, K>,
    next_tick: u64,
}

impl<K, V> std::fmt::Debug for ByteLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteLru")
            .field("cap_bytes", &self.cap_bytes)
            .field("used_bytes", &self.used_bytes)
            .field("len", &self.map.len())
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V> ByteLru<K, V> {
    /// An empty map holding at most `cap_bytes` of charged entry bytes.
    pub fn new(cap_bytes: u64) -> Self {
        ByteLru {
            cap_bytes,
            used_bytes: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }

    /// Looks up `key`, making a resident entry the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let entry = self.map.get_mut(key)?;
        let old_tick = std::mem::replace(&mut entry.tick, self.next_tick);
        self.order.remove(&old_tick);
        self.order.insert(self.next_tick, key.clone());
        self.next_tick += 1;
        Some(&entry.value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|entry| &entry.value)
    }

    /// Inserts `value` under `key`, charged `bytes`, as the most recently
    /// used entry — replacing a resident entry of the same key — then
    /// evicts least-recently-used entries until the cap holds again.
    /// Returns the number of entries evicted. An entry larger than the
    /// whole cap is not stored (and changes nothing).
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> u64 {
        if bytes > self.cap_bytes {
            return 0;
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.insert(tick, key.clone());
        self.used_bytes += bytes;
        if let Some(old) = self.map.insert(key, Entry { value, bytes, tick }) {
            self.used_bytes -= old.bytes;
            self.order.remove(&old.tick);
        }
        let mut evicted = 0;
        while self.used_bytes > self.cap_bytes {
            // The newcomer fits the cap alone and holds the largest tick,
            // so the loop ends before reaching it.
            let (_, victim) = self
                .order
                .pop_first()
                .expect("used_bytes > 0 implies a resident entry");
            let victim = self.map.remove(&victim).expect("order and map agree");
            self.used_bytes -= victim.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the cap.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string-valued map charged key + value lengths, as the response
    /// cache charges.
    fn put(c: &mut ByteLru<&'static str, String>, key: &'static str, value: &str) -> u64 {
        c.insert(key, value.to_string(), (key.len() + value.len()) as u64)
    }

    fn keys_lru_first(c: &ByteLru<&'static str, String>) -> Vec<&'static str> {
        assert_eq!(c.order.len(), c.map.len(), "a stale tick stayed behind");
        c.order.values().copied().collect()
    }

    #[test]
    fn get_hits_after_insert_and_misses_cold() {
        let mut c = ByteLru::new(1024);
        assert_eq!(c.get(&"k1"), None);
        put(&mut c, "k1", "v1");
        assert_eq!(c.get(&"k1").map(String::as_str), Some("v1"));
        assert_eq!(c.get(&"k2"), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 4);
    }

    #[test]
    fn eviction_is_lru_order() {
        // Each entry is 4 bytes (2-byte key + 2-byte value); cap 12 holds 3.
        let mut c = ByteLru::new(12);
        put(&mut c, "k1", "v1");
        put(&mut c, "k2", "v2");
        put(&mut c, "k3", "v3");
        assert_eq!(keys_lru_first(&c), ["k1", "k2", "k3"]);
        // Touch k1 so k2 becomes the LRU victim; a peek of k2 does not
        // rescue it.
        assert!(c.get(&"k1").is_some());
        assert!(c.peek(&"k2").is_some());
        assert_eq!(put(&mut c, "k4", "v4"), 1);
        assert_eq!(c.get(&"k2"), None, "k2 was the least recently used");
        assert!(c.get(&"k1").is_some());
        assert!(c.get(&"k3").is_some());
        assert!(c.get(&"k4").is_some());
        // The gets above refreshed recency in k1, k3, k4 order.
        assert_eq!(keys_lru_first(&c), ["k1", "k3", "k4"]);
        // A 10-byte entry forces three evictions in LRU order.
        assert_eq!(put(&mut c, "kx", "12345678"), 3);
        assert_eq!(keys_lru_first(&c), ["kx"]);
    }

    #[test]
    fn replacement_updates_bytes_and_recency() {
        let mut c = ByteLru::new(64);
        put(&mut c, "k", "aa");
        put(&mut c, "j", "cc");
        put(&mut c, "k", "bbbb");
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_bytes(), 3 + 5);
        assert_eq!(c.get(&"k").map(String::as_str), Some("bbbb"));
        assert_eq!(keys_lru_first(&c), ["j", "k"]);
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let mut c = ByteLru::new(8);
        put(&mut c, "key", "v");
        assert_eq!(put(&mut c, "key", "valuevalue"), 0);
        assert_eq!(c.peek(&"key").map(String::as_str), Some("v"));
        assert_eq!(put(&mut c, "big", "valuevalue"), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 4);
        assert_eq!(c.get(&"big"), None);
    }

    #[test]
    fn capacity_bound_always_holds() {
        let mut c: ByteLru<String, String> = ByteLru::new(100);
        let mut state = 7u64;
        for i in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (key, value) = (format!("key{i}"), "x".repeat((state % 40) as usize));
            let bytes = (key.len() + value.len()) as u64;
            c.insert(key, value, bytes);
            assert!(c.used_bytes() <= c.cap_bytes, "bound violated at {i}");
            let resident: u64 = c.map.values().map(|e| e.bytes).sum();
            assert_eq!(resident, c.used_bytes(), "accounting drifted at {i}");
            assert_eq!(c.order.len(), c.len(), "recency index drifted at {i}");
        }
    }
}
