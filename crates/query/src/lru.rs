//! The workspace's one byte-capped LRU: a hash map, a recency list and
//! the eviction loop, shared by the query engine's memo and the compile
//! service's response cache. Policy stays with each caller — what a key
//! is, what an entry is charged, what a same-key insert means.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use crate::Fingerprinter;

/// Builds [`Fingerprinter`]s that start from a seed drawn once per
/// `SeededState` from the standard library's [`RandomState`]. For maps
/// keyed by fingerprints or names that clients choose: the fold is the
/// workspace's one hash, and the seed keeps a client from picking keys
/// that share a bucket (DESIGN.md §14).
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// A state with a fresh random seed.
    pub fn new() -> Self {
        SeededState {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl Default for SeededState {
    fn default() -> Self {
        SeededState::new()
    }
}

impl BuildHasher for SeededState {
    type Hasher = Fingerprinter;

    fn build_hasher(&self) -> Fingerprinter {
        Fingerprinter::seeded(self.seed)
    }
}

/// The end of the recency list, and of the free list.
const NIL: u32 = u32::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    /// What the caller charged this entry against the cap.
    bytes: u64,
}

/// A slot's place in the recency list — or, for a free slot, in the free
/// list (through `next`).
#[derive(Clone, Copy)]
struct Link {
    /// The next less recently used slot.
    prev: u32,
    /// The next more recently used slot, or the next free one.
    next: u32,
}

/// An LRU map bounded by the total of caller-reported entry sizes.
///
/// Recency is an intrusive doubly linked list over slots, by `u32` index:
/// a hit relinks one slot, an insert links one (a freed slot first), an
/// eviction unlinks the head. The links sit in an array of their own, apart
/// from the entries, so relinking touches a few words of a small, hot
/// array. Not internally synchronized — callers wrap it in a `Mutex` (the
/// critical sections are a hash plus a map probe, far cheaper than a
/// compile).
pub struct ByteLru<K, V> {
    cap_bytes: u64,
    used_bytes: u64,
    /// Key → its slot.
    map: HashMap<K, u32, SeededState>,
    /// By slot: the resident entry, or `None` for a free slot.
    entries: Vec<Option<Entry<K, V>>>,
    links: Vec<Link>,
    /// Least recently used resident slot (the eviction victim) and most
    /// recently used one.
    head: u32,
    tail: u32,
    /// First free slot.
    free: u32,
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
            map: HashMap::with_hasher(SeededState::new()),
            entries: Vec::new(),
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Looks up `key`, making a resident entry the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let at = *self.map.get(key)?;
        if at != self.tail {
            self.unlink(at);
            self.link_last(at);
        }
        self.entry(at).map(|entry| &entry.value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let at = *self.map.get(key)?;
        self.entry(at).map(|entry| &entry.value)
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
        self.used_bytes += bytes;
        match self.map.get(&key) {
            Some(&at) => {
                let old = self.entries[at as usize].replace(Entry { key, value, bytes });
                self.used_bytes -= old.expect("mapped slots are resident").bytes;
                self.unlink(at);
                self.link_last(at);
            }
            None => {
                let at = self.alloc(Entry {
                    key: key.clone(),
                    value,
                    bytes,
                });
                self.map.insert(key, at);
                self.link_last(at);
            }
        }
        let mut evicted = 0;
        while self.used_bytes > self.cap_bytes {
            // The newcomer fits the cap alone and is the tail, so the loop
            // ends before reaching it.
            let victim = self.head;
            self.unlink(victim);
            let entry = self.entries[victim as usize].take();
            let entry = entry.expect("listed slots are resident");
            self.links[victim as usize].next = std::mem::replace(&mut self.free, victim);
            self.map.remove(&entry.key);
            self.used_bytes -= entry.bytes;
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

    /// Resident keys, least recently used (the next victim) first.
    pub fn keys_lru_first(&self) -> impl Iterator<Item = &K> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let entry = self.entry(at)?;
            at = self.links[at as usize].next;
            Some(&entry.key)
        })
    }

    fn entry(&self, at: u32) -> Option<&Entry<K, V>> {
        self.entries.get(at as usize)?.as_ref()
    }

    /// A slot for `entry`, reusing a free one first; not yet linked.
    fn alloc(&mut self, entry: Entry<K, V>) -> u32 {
        let at = self.free;
        if at == NIL {
            let at = u32::try_from(self.entries.len()).expect("fewer than 2^32 - 1 entries");
            assert_ne!(at, NIL, "fewer than 2^32 - 1 entries");
            self.entries.push(Some(entry));
            self.links.push(Link {
                prev: NIL,
                next: NIL,
            });
            return at;
        }
        self.free = self.links[at as usize].next;
        self.entries[at as usize] = Some(entry);
        at
    }

    /// Takes slot `at` out of the recency list.
    fn unlink(&mut self, at: u32) {
        let Link { prev, next } = self.links[at as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    /// Appends slot `at` to the recency list as the most recently used.
    fn link_last(&mut self, at: u32) {
        self.links[at as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = at,
            t => self.links[t as usize].next = at,
        }
        self.tail = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    /// A string-valued map charged key + value lengths, as the response
    /// cache charges.
    fn put(c: &mut ByteLru<&'static str, String>, key: &'static str, value: &str) -> u64 {
        c.insert(key, value.to_string(), (key.len() + value.len()) as u64)
    }

    fn keys_lru_first(c: &ByteLru<&'static str, String>) -> Vec<&'static str> {
        let keys: Vec<_> = c.keys_lru_first().copied().collect();
        assert_eq!(
            keys.len(),
            c.map.len(),
            "the recency list and the map disagree"
        );
        keys
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
        // The freed slots are reused before the slab grows.
        put(&mut c, "k5", "");
        assert_eq!(c.entries.len(), 4);
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
            let resident: u64 = c.map.values().map(|&at| c.entry(at).unwrap().bytes).sum();
            assert_eq!(resident, c.used_bytes(), "accounting drifted at {i}");
            assert_eq!(
                c.keys_lru_first().count(),
                c.len(),
                "recency list drifted at {i}"
            );
        }
    }

    /// Two maps hash one key apart: each draws its own seed, so keys a
    /// client chose to share a bucket in one map do not in the next.
    #[test]
    fn the_map_hash_is_seeded_per_map() {
        let (a, b) = (SeededState::new(), SeededState::new());
        assert_ne!(a.hash_one(0x6763_1996u64), b.hash_one(0x6763_1996u64));
        let (x, y): (ByteLru<u64, ()>, ByteLru<u64, ()>) = (ByteLru::new(0), ByteLru::new(0));
        assert_ne!(x.map.hasher().hash_one(7u64), y.map.hasher().hash_one(7u64));
        // The hash is still the fold: unseeded, it is the fingerprint.
        let mut h = Fingerprinter::seeded(0);
        h.write_u64(7);
        assert_eq!(h.finish(), Fingerprinter::of(&7u64));
    }
}
