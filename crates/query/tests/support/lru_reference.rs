//! The byte-capped LRU this repository shipped until its recency index
//! became an intrusive list (`crates/query/src/lru.rs`), verbatim: a
//! SipHash map and a `BTreeMap` from recency tick to key, re-keyed on
//! every `get`. Kept as the oracle of `tests/lru_differential.rs`
//! (`#[path]`-included); only `keys_lru_first`, at the end, is new.

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

impl<K: Clone, V> ByteLru<K, V> {
    /// Resident keys, least recently used first.
    pub fn keys_lru_first(&self) -> Vec<K> {
        self.order.values().cloned().collect()
    }
}
