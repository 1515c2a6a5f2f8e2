//! Content-addressed compile cache: keys indexed by the workspace's one
//! hasher (`gcomm_query::Fingerprinter`), byte-capacity-bounded LRU
//! eviction.
//!
//! The cache maps a **canonical key string** — the exact bytes of
//! `(protocol version, strategy, budget spec, sim spec, source)` joined
//! with NUL separators (see `protocol::cache_key_material`) — to the
//! rendered response payload of a cold compile. Because the stored value
//! *is* the response payload, a hit is bit-identical to a cold compile by
//! construction; the property tests then prove the converse (a cold
//! recompile reproduces the stored bytes).
//!
//! The 64-bit fingerprint is only the index; the full key material is
//! kept in each entry and compared on lookup, so a hash collision
//! degrades to a miss (and the colliding insert replaces the entry) —
//! never to a wrong answer.

use std::collections::{BTreeMap, HashMap};

use gcomm_query::fingerprint;

/// Canonical key material together with its index hash, so a request that
/// probes and then inserts hashes its (source-sized) key once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    material: String,
    hash: u64,
}

impl CacheKey {
    /// Hashes `material` (the full canonical key string).
    pub fn new(material: String) -> CacheKey {
        let hash = fingerprint(material.as_bytes());
        CacheKey { material, hash }
    }

    /// The full canonical key string.
    pub fn material(&self) -> &str {
        &self.material
    }
}

#[derive(Debug)]
struct Entry {
    /// Full canonical key material (collision guard).
    key: String,
    /// Cached response payload.
    value: String,
    /// Recency tick; the entry also appears in `order` under this tick.
    tick: u64,
}

/// An LRU cache bounded by total bytes (key + value lengths).
///
/// Not internally synchronized — the service wraps it in a `Mutex` (the
/// critical sections are a hash + map probe, far cheaper than a compile).
#[derive(Debug)]
pub struct LruCache {
    cap_bytes: u64,
    used_bytes: u64,
    /// Hash → entry.
    map: HashMap<u64, Entry>,
    /// Recency tick → hash; the first (smallest-tick) entry is the LRU
    /// eviction victim.
    order: BTreeMap<u64, u64>,
    next_tick: u64,
}

impl LruCache {
    /// An empty cache holding at most `cap_bytes` of key+value bytes.
    pub fn new(cap_bytes: u64) -> LruCache {
        LruCache {
            cap_bytes,
            used_bytes: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. A hash collision
    /// with different key material is a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<String> {
        let hash = key.hash;
        let entry = self.map.get_mut(&hash)?;
        if entry.key != key.material {
            return None;
        }
        let old_tick = entry.tick;
        entry.tick = self.next_tick;
        self.next_tick += 1;
        let tick = entry.tick;
        let value = entry.value.clone();
        self.order.remove(&old_tick);
        self.order.insert(tick, hash);
        Some(value)
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used
    /// entries until the capacity bound holds again. Returns the number of
    /// entries evicted. An entry larger than the whole capacity is not
    /// stored (and evicts nothing).
    pub fn insert(&mut self, key: CacheKey, value: String) -> u64 {
        let CacheKey {
            material: key,
            hash,
        } = key;
        let entry_bytes = (key.len() + value.len()) as u64;
        if entry_bytes > self.cap_bytes {
            return 0;
        }
        if let Some(old) = self.map.remove(&hash) {
            // Replacement (same key re-inserted, or a hash collision: the
            // newcomer wins — the old entry can no longer be trusted to be
            // reachable anyway).
            self.used_bytes -= (old.key.len() + old.value.len()) as u64;
            self.order.remove(&old.tick);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.used_bytes += entry_bytes;
        self.map.insert(hash, Entry { key, value, tick });
        self.order.insert(tick, hash);
        let mut evicted = 0;
        while self.used_bytes > self.cap_bytes {
            let (&victim_tick, &victim_hash) = self
                .order
                .iter()
                .next()
                .expect("used_bytes > 0 implies a resident entry");
            if victim_hash == hash && self.map.len() == 1 {
                break; // never evict the entry just inserted when alone
            }
            self.order.remove(&victim_tick);
            let victim = self.map.remove(&victim_hash).expect("order and map agree");
            self.used_bytes -= (victim.key.len() + victim.value.len()) as u64;
            evicted += 1;
        }
        evicted
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently held (keys + values).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// The byte capacity.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Keys of the resident entries in LRU → MRU order (test aid).
    pub fn keys_lru_first(&self) -> Vec<String> {
        self.order
            .values()
            .map(|h| self.map[h].key.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(material: &str) -> CacheKey {
        CacheKey::new(material.to_string())
    }

    #[test]
    fn get_hits_after_insert_and_misses_cold() {
        let mut c = LruCache::new(1024);
        assert_eq!(c.get(&k("k1")), None);
        c.insert(k("k1"), "v1".into());
        assert_eq!(c.get(&k("k1")), Some("v1".into()));
        assert_eq!(c.get(&k("k2")), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 4);
    }

    #[test]
    fn eviction_is_lru_order() {
        // Each entry is 4 bytes (2-byte key + 2-byte value); cap 12 holds 3.
        let mut c = LruCache::new(12);
        c.insert(k("k1"), "v1".into());
        c.insert(k("k2"), "v2".into());
        c.insert(k("k3"), "v3".into());
        assert_eq!(c.keys_lru_first(), ["k1", "k2", "k3"]);
        // Touch k1 so k2 becomes the LRU victim.
        assert!(c.get(&k("k1")).is_some());
        assert_eq!(c.insert(k("k4"), "v4".into()), 1);
        assert_eq!(c.get(&k("k2")), None, "k2 was the least recently used");
        assert!(c.get(&k("k1")).is_some());
        assert!(c.get(&k("k3")).is_some());
        assert!(c.get(&k("k4")).is_some());
        // The gets above refreshed recency in k1, k3, k4 order.
        assert_eq!(c.keys_lru_first(), ["k1", "k3", "k4"]);
        // A 10-byte entry forces three evictions in LRU order.
        assert_eq!(c.insert(k("kx"), "12345678".into()), 3);
        assert_eq!(c.keys_lru_first(), ["kx"]);
    }

    #[test]
    fn replacement_updates_bytes() {
        let mut c = LruCache::new(64);
        c.insert(k("k"), "aa".into());
        c.insert(k("k"), "bbbb".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 5);
        assert_eq!(c.get(&k("k")), Some("bbbb".into()));
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let mut c = LruCache::new(8);
        c.insert(k("key"), "valuevalue".into());
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.get(&k("key")), None);
    }

    #[test]
    fn capacity_bound_always_holds() {
        let mut c = LruCache::new(100);
        let mut state = 7u64;
        for i in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let vlen = (state % 40) as usize;
            c.insert(CacheKey::new(format!("key{i}")), "x".repeat(vlen));
            assert!(c.used_bytes() <= c.cap_bytes(), "bound violated at {i}");
            let resident: u64 = c
                .keys_lru_first()
                .iter()
                .map(|name| (name.len() + c.get(&k(name)).unwrap().len()) as u64)
                .sum();
            assert_eq!(resident, c.used_bytes(), "accounting drifted at {i}");
        }
    }
}
