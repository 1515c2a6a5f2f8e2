//! # gcomm-query — a hand-rolled incremental query engine
//!
//! Salsa-style incrementality without the framework: what a pass produces
//! is memoized under a content-addressed key, and invalidation falls out
//! of the keying instead of a revision counter. If the fingerprint of a
//! query's input is unchanged, the key is unchanged and the memo hits. If
//! an upstream pass *does* recompute but produces output with the same
//! fingerprint as before, the downstream key is again unchanged and the
//! recomputation stops there — that is the early-cutoff rule, and it is a
//! property of the key derivation rather than bookkeeping in the engine
//! (DESIGN.md §14).
//!
//! The engine is one byte-capped LRU ([`ByteLru`]) keyed by `(query name,
//! fingerprint)`, holding `Arc<dyn Any>` values and, as plain `u64`s, input
//! slots' fingerprints: [`QueryEngine::memo`] probes, computes *outside*
//! the lock and stores; [`QueryEngine::note_input`] records the fingerprint
//! last presented for an input slot (a routine) so an edit that changed it
//! counts `query.invalidate`; [`QueryEngine::present`] does both for a
//! whole module under one lock, handing each hit to the caller as a borrow.
//! A caller that probes and computes across more than one key uses the
//! pieces of `memo` — `probe`, `store`, `count` — itself.
//!
//! Results computed under an exhausted budget (degraded) are **never
//! cached** ([`Computed::cacheable`]), and keys are 64-bit
//! [`Fingerprinter`] fingerprints. A key whose input is cheap to keep is
//! guarded — the value keeps the input and `present`'s guard compares it,
//! so a collision is a miss; a key over a structure (an AST) is not, at a
//! ~2⁻⁶⁴ risk per key pair (DESIGN.md §14).

use std::any::Any;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod lru;

pub use lru::{ByteLru, SeededState};

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Multipliers of the folded multiply (wyhash's: odd, bit-balanced).
const K0: u64 = 0xa076_1d64_78bd_642f;
const K1: u64 = 0xe703_7ed1_a0b4_28db;

/// 64×64→128-bit multiply, the high half folded onto the low half.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// The workspace's one content-addressing hasher: every fingerprint, memo
/// key, cache index and ring position goes through it. Eight bytes per
/// folded-multiply step (wyhash/rapidhash family), so a value hashed
/// through `#[derive(Hash)]` costs a few steps instead of a byte loop over
/// a rendered `String`. No per-process seed: fingerprints agree across
/// runs and machines. (A map's hasher is the same fold started from a
/// per-map seed: [`SeededState`].)
///
/// * Integer writes are one step each and `usize` hashes as `u64` (no
///   pointer-width dependence). Integer *slices* reach [`Hasher::write`]
///   as native-endian bytes; nothing persists a fingerprint.
/// * A byte write ends with a step that folds in its length, and writes
///   are **not** split-invariant (`write(b"ab"); write(b"c")` differs from
///   `write(b"abc")`): hash the same parts in the same order.
/// * [`Hasher::finish`] runs a finaliser, so short inputs avalanche too.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    /// The fingerprint of one `Hash` value.
    pub fn of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Fingerprinter::default();
        value.hash(&mut h);
        h.finish()
    }

    /// A hasher whose state starts `seed` away from the default's.
    pub(crate) fn seeded(seed: u64) -> Self {
        Fingerprinter { state: K1 ^ seed }
    }

    #[inline]
    fn step(&mut self, word: u64) {
        self.state = fold(self.state ^ word, K0);
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter { state: K1 }
    }
}

macro_rules! one_step_writes {
    ($($name:ident: $int:ty),*) => {$(
        #[inline]
        fn $name(&mut self, v: $int) {
            self.step(v as u64);
        }
    )*};
}

impl Hasher for Fingerprinter {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        let len = bytes.len() as u64;
        self.state = fold(self.state ^ u64::from_le_bytes(tail), K1 ^ len);
    }

    one_step_writes!(write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize);

    #[inline]
    fn finish(&self) -> u64 {
        fold(fold(self.state, K0) ^ K1, K0)
    }
}

/// The fingerprint of a byte string.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    Fingerprinter::of(bytes)
}

/// Folds a 64-bit value (typically another fingerprint) into a hash;
/// order-sensitive.
pub fn mix(hash: u64, value: u64) -> u64 {
    Fingerprinter::of(&(hash, value))
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// What the fingerprint recorded for an input slot did on this
/// presentation. `Changed` means a previously-seen slot arrived with a
/// different fingerprint — the definition of an invalidating edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputChange {
    /// First time this slot has been seen.
    Fresh,
    /// Same fingerprint as last time; everything keyed on it will hit.
    Unchanged,
    /// Fingerprint differs from the previous presentation.
    Changed,
}

/// One input of a [`QueryEngine::present`] batch.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    /// The input slot's identity (e.g. a routine name's fingerprint).
    pub slot: u64,
    /// The fingerprint presented for the slot.
    pub fp: u64,
    /// The memo key whose value is wanted for this input.
    pub key: u64,
}

/// The result of a query computation, as returned by the closure passed
/// to [`QueryEngine::memo`].
pub struct Computed<T> {
    /// The value to return (and possibly cache).
    pub value: T,
    /// Approximate heap footprint, charged against the engine's byte cap.
    pub bytes: u64,
    /// `false` for results that must not be reused — e.g. anything
    /// produced under an exhausted budget (degraded). Uncacheable
    /// results are returned to the caller but leave the memo untouched.
    pub cacheable: bool,
}

/// Monotonic engine totals, independent of any `gcomm-obs` registry so
/// property tests can observe the engine without installing one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub hits: u64,
    pub misses: u64,
    pub cutoffs: u64,
    pub invalidations: u64,
    pub evictions: u64,
}

/// A memo key: a query name and a fingerprint. Only the fingerprint is
/// hashed — equal keys have equal fingerprints, and the few query names
/// are told apart by the comparison — so a probe hashes one word, and
/// compares one before it looks at a name (by address first: every name
/// is a constant).
#[derive(Debug, Clone, Copy)]
struct MemoKey {
    query: &'static str,
    key: u64,
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && (std::ptr::eq(self.query, other.query) || self.query == other.query)
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key);
    }
}

/// What the engine holds under one key.
enum Held {
    /// The last fingerprint presented for an input slot.
    Input(u64),
    /// A memoized value.
    Value(Arc<dyn Any + Send + Sync>),
}

/// Everything the engine holds, under one byte cap: memoized values keyed
/// by (query name, content fingerprint), each charged its reported
/// footprint plus [`ENTRY_OVERHEAD`], and — under [`INPUT`] — the last
/// fingerprint presented per input slot, charged [`ENTRY_OVERHEAD`].
type Memo = ByteLru<MemoKey, Held>;

/// The query name input slots are recorded under.
const INPUT: &str = "query.input";

/// The value memoized under `(query, key)`, made the most recent.
fn touch<'m>(
    memo: &'m mut Memo,
    query: &'static str,
    key: u64,
) -> Option<&'m Arc<dyn Any + Send + Sync>> {
    match memo.get(&MemoKey { query, key })? {
        Held::Value(value) => Some(value),
        Held::Input(_) => None,
    }
}

/// Records `fp` as the latest fingerprint of input slot `slot`; returns
/// what changed and how many entries the write evicted. An unchanged slot
/// writes nothing and keeps its recency, so a slot nobody edits ages out:
/// it reads `Fresh` the next time it does change — one `query.invalidate`
/// short, never a wrong answer.
fn note(memo: &mut Memo, slot: u64, fp: u64) -> (InputChange, u64) {
    let key = MemoKey {
        query: INPUT,
        key: slot,
    };
    let prev = match memo.peek(&key) {
        Some(&Held::Input(prev)) => Some(prev),
        _ => None,
    };
    if prev == Some(fp) {
        return (InputChange::Unchanged, 0);
    }
    let evicted = memo.insert(key, Held::Input(fp), ENTRY_OVERHEAD);
    let change = match prev {
        Some(_) => InputChange::Changed,
        None => InputChange::Fresh,
    };
    (change, evicted)
}

/// Fixed per-entry overhead charged on top of the caller-reported value
/// footprint (map entries, Arc headers, recency bookkeeping).
pub const ENTRY_OVERHEAD: u64 = 96;

/// Adds `n` to an engine total and to the installed registry's counter.
fn bump(total: &AtomicU64, counter: &'static str, n: u64) {
    if n > 0 {
        total.fetch_add(n, Ordering::Relaxed);
        gcomm_obs::count(counter, n);
    }
}

/// A byte-capped, thread-safe memo table for content-addressed queries.
pub struct QueryEngine {
    memo: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
    cutoffs: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryEngine {
    /// Creates an engine holding at most `cap_bytes` of memoized values
    /// (as reported by each query's own footprint estimate).
    pub fn new(cap_bytes: u64) -> Self {
        QueryEngine {
            memo: Mutex::new(ByteLru::new(cap_bytes)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cutoffs: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `(query, key)`; on a miss, runs `compute` *outside* the
    /// engine lock and stores the result if it is cacheable. Returns the
    /// value and whether this call was a hit. Queries must be pure: two
    /// threads racing on one key may both compute, and the later store
    /// replaces the earlier, equal value.
    pub fn memo<T, F>(&self, query: &'static str, key: u64, compute: F) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> Computed<T>,
    {
        if let Some(value) = self.probe::<T>(query, key) {
            self.count(1, 0, 0);
            return (value, true);
        }

        let computed = compute();
        self.count(0, 1, 0);
        let value = Arc::new(computed.value);
        if computed.cacheable {
            self.store(query, key, Arc::clone(&value), computed.bytes);
        }
        (value, false)
    }

    /// A hit-only probe: returns the memoized value without computing.
    pub fn probe<T>(&self, query: &'static str, key: u64) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        let mut memo = self.memo.lock().unwrap();
        Arc::clone(touch(&mut memo, query, key)?).downcast().ok()
    }

    /// Presents a whole module's inputs in **one** critical section: per
    /// input, in order, [`QueryEngine::note_input`] and a probe of `query`
    /// whose value is a hit only if `take(index, value)` makes something of
    /// it — under the lock, from a borrow. Hits are counted here; a `None`
    /// is not — the caller probes again (a value an earlier miss of the
    /// batch stored still hits) and counts the miss when it computes, so
    /// every total equals the one-at-a-time loop's.
    pub fn present<T: Send + Sync + 'static, R>(
        &self,
        query: &'static str,
        inputs: &[Input],
        mut take: impl FnMut(usize, &T) -> Option<R>,
    ) -> Vec<Option<R>> {
        let (mut changed, mut evicted, mut hits) = (0, 0, 0);
        let mut memo = self.memo.lock().unwrap();
        let values: Vec<Option<R>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let (change, out) = note(&mut memo, input.slot, input.fp);
                changed += u64::from(change == InputChange::Changed);
                evicted += out;
                let taken = take(i, touch(&mut memo, query, input.key)?.downcast_ref()?);
                hits += u64::from(taken.is_some());
                taken
            })
            .collect();
        drop(memo);
        bump(&self.invalidations, "query.invalidate", changed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.count(hits, 0, 0);
        values
    }

    /// Stores `value` under `(query, key)`, charged `bytes` plus the entry
    /// overhead, replacing whatever the key held: the newcomer wins. A
    /// value larger than the whole cap is not stored.
    pub fn store<T: Send + Sync + 'static>(
        &self,
        query: &'static str,
        key: u64,
        value: Arc<T>,
        bytes: u64,
    ) {
        let mut memo = self.memo.lock().unwrap();
        let charged = bytes.saturating_add(ENTRY_OVERHEAD);
        let evicted = memo.insert(MemoKey { query, key }, Held::Value(value), charged);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Records the fingerprint presented for input slot `slot` (itself a
    /// fingerprint of the slot's identity, e.g. a routine name). Returns
    /// what changed; a `Changed` result bumps `query.invalidate`.
    pub fn note_input(&self, slot: u64, fp: u64) -> InputChange {
        let (change, evicted) = note(&mut self.memo.lock().unwrap(), slot, fp);
        let changed = u64::from(change == InputChange::Changed);
        bump(&self.invalidations, "query.invalidate", changed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        change
    }

    /// Counts lookups answered from the memo (`query.hit`), computations
    /// (`query.miss`) and early cutoffs (`query.cutoff`: an upstream pass
    /// recomputed, but a downstream memo still hit because its output's
    /// fingerprint was unchanged).
    pub fn count(&self, hits: u64, misses: u64, cutoffs: u64) {
        bump(&self.hits, "query.hit", hits);
        bump(&self.misses, "query.miss", misses);
        bump(&self.cutoffs, "query.cutoff", cutoffs);
    }

    /// Monotonic totals since construction.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cutoffs: self.cutoffs.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently charged against the cap.
    pub fn used_bytes(&self) -> u64 {
        self.memo.lock().unwrap().used_bytes()
    }

    /// Number of live entries (memoized values and input-slot records).
    pub fn len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// True when the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn mix_is_order_sensitive() {
        let a = mix(mix(fingerprint(b"x"), 1), 2);
        let b = mix(mix(fingerprint(b"x"), 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn memo_hits_second_time() {
        let eng = QueryEngine::new(1 << 20);
        let calls = AtomicUsize::new(0);
        let f = || {
            calls.fetch_add(1, Ordering::SeqCst);
            Computed {
                value: 42u64,
                bytes: 8,
                cacheable: true,
            }
        };
        let (v1, hit1) = eng.memo("t.answer", 7, f);
        let (v2, hit2) = eng.memo::<u64, _>("t.answer", 7, || unreachable!());
        assert_eq!((*v1, hit1), (42, false));
        assert_eq!((*v2, hit2), (42, true));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            eng.stats(),
            EngineStats {
                hits: 1,
                misses: 1,
                ..EngineStats::default()
            }
        );
    }

    #[test]
    fn distinct_queries_do_not_alias() {
        let eng = QueryEngine::new(1 << 20);
        let mk = |v: u64| {
            move || Computed {
                value: v,
                bytes: 8,
                cacheable: true,
            }
        };
        eng.memo("t.a", 1, mk(10));
        eng.memo("t.b", 1, mk(20));
        let (a, _) = eng.memo::<u64, _>("t.a", 1, || unreachable!());
        let (b, _) = eng.memo::<u64, _>("t.b", 1, || unreachable!());
        assert_eq!((*a, *b), (10, 20));
    }

    #[test]
    fn uncacheable_results_never_stored() {
        let eng = QueryEngine::new(1 << 20);
        let (_, hit) = eng.memo("t.degraded", 9, || Computed {
            value: 1u32,
            bytes: 4,
            cacheable: false,
        });
        assert!(!hit);
        assert!(eng.is_empty());
        let (_, hit) = eng.memo("t.degraded", 9, || Computed {
            value: 1u32,
            bytes: 4,
            cacheable: false,
        });
        assert!(!hit, "uncacheable result must recompute every time");
    }

    #[test]
    fn lru_evicts_oldest_under_byte_cap() {
        // Cap fits exactly two entries (bytes + ENTRY_OVERHEAD each).
        let per = 100 + ENTRY_OVERHEAD;
        let eng = QueryEngine::new(2 * per);
        let mk = |v: u64| {
            move || Computed {
                value: v,
                bytes: 100,
                cacheable: true,
            }
        };
        eng.memo("t.k", 1, mk(1));
        eng.memo("t.k", 2, mk(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(eng.probe::<u64>("t.k", 1).is_some());
        eng.memo("t.k", 3, mk(3));
        assert_eq!(eng.stats().evictions, 1);
        assert!(eng.probe::<u64>("t.k", 1).is_some());
        assert!(eng.probe::<u64>("t.k", 2).is_none());
        assert!(eng.probe::<u64>("t.k", 3).is_some());
        assert!(eng.used_bytes() <= 2 * per);
    }

    #[test]
    fn overwriting_a_slot_of_another_type_releases_its_charge() {
        let eng = QueryEngine::new(1 << 20);
        eng.memo("t.k", 1, || Computed {
            value: 1u64,
            bytes: 1000,
            cacheable: true,
        });
        // Same (query, key) at another type: the probe's downcast fails,
        // the compute runs, and the insert replaces the old slot.
        let (v, hit) = eng.memo("t.k", 1, || Computed {
            value: "x",
            bytes: 50,
            cacheable: true,
        });
        assert_eq!((*v, hit), ("x", false));
        assert_eq!(eng.len(), 1);
        assert_eq!(eng.used_bytes(), 50 + ENTRY_OVERHEAD, "old charge leaked");
    }

    #[test]
    fn oversized_value_served_uncached() {
        let eng = QueryEngine::new(64);
        let (v, hit) = eng.memo("t.big", 1, || Computed {
            value: 7u8,
            bytes: 1 << 20,
            cacheable: true,
        });
        assert_eq!((*v, hit), (7, false));
        assert!(eng.is_empty());
    }

    #[test]
    fn note_input_tracks_changes() {
        let eng = QueryEngine::new(1 << 20);
        let slot = fingerprint(b"routine:main");
        assert_eq!(eng.note_input(slot, 11), InputChange::Fresh);
        assert_eq!(eng.note_input(slot, 11), InputChange::Unchanged);
        assert_eq!(eng.note_input(slot, 12), InputChange::Changed);
        assert_eq!(eng.note_input(slot, 12), InputChange::Unchanged);
        assert_eq!(eng.stats().invalidations, 1);
    }

    #[test]
    fn input_slots_are_bounded_by_the_byte_cap() {
        let fits = 16;
        let cap = fits * ENTRY_OVERHEAD;
        let eng = QueryEngine::new(cap);
        for slot in 0..10 * fits {
            assert_eq!(eng.note_input(slot, 1), InputChange::Fresh);
            assert!(eng.used_bytes() <= cap, "slot {slot} broke the cap");
        }
        assert_eq!(eng.len() as u64, fits);
        assert_eq!(eng.stats().evictions, 9 * fits);
        // An evicted slot reads fresh again (an undercount, never a wrong
        // answer); a resident one still reports its change.
        assert_eq!(eng.note_input(0, 2), InputChange::Fresh);
        assert_eq!(eng.note_input(10 * fits - 1, 2), InputChange::Changed);
        assert_eq!(eng.stats().invalidations, 1);
    }

    #[test]
    fn racing_computes_share_one_value() {
        let eng = Arc::new(QueryEngine::new(1 << 20));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let eng = Arc::clone(&eng);
            handles.push(std::thread::spawn(move || {
                let (v, _) = eng.memo("t.race", 5, || Computed {
                    value: 99u64,
                    bytes: 8,
                    cacheable: true,
                });
                Arc::as_ptr(&v) as usize
            }));
        }
        let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All callers that arrived after the first store alias it; the
        // value itself is identical for everyone by purity.
        assert!(ptrs.iter().all(|&p| p != 0));
        assert_eq!(eng.len(), 1);
    }
}
