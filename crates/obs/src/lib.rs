//! # gcomm-obs — compiler-wide observability
//!
//! A zero-dependency span/counter/event subsystem for the gcomm pipeline.
//! The paper's entire evaluation (Tables 2–4, Figures 5/10) is driven by
//! counters — static/dynamic message counts, redundancy hits, combining
//! decisions — so every stage of the compiler threads its decisions
//! through this crate, and every binary can emit a structured report.
//!
//! Three primitives:
//!
//! * **Counters** — named, monotonically increasing totals held in a
//!   thread-safe [`Registry`]. Bumping a counter never changes program
//!   behaviour; a run with stats enabled is bit-identical in its outputs
//!   to a run without (a property test in the workspace proves this for
//!   compiled schedules).
//! * **Spans** — RAII wall-time intervals on the monotonic clock
//!   ([`Instant`]), recorded with parent/depth links so nesting is
//!   reconstructible. Raw records are capped (see [`SPAN_CAP`]); an
//!   always-on aggregation (calls + total wall time per name) backs the
//!   per-pass timing table regardless of the cap.
//! * **Accumulating timers** — [`time`] guards for hot inner loops
//!   (dependence queries, section algebra) that feed only the per-name
//!   aggregation, never the raw span list.
//!
//! Collection is *opt-in per thread*: nothing is recorded unless a
//! registry is [`install`]ed on the current thread, so library users and
//! tests that never ask for stats pay one thread-local read per
//! instrumentation point. The installed registry itself is fully
//! thread-safe and may be shared across worker threads (each worker
//! installs a clone of the same registry).
//!
//! With a registry installed, a tick ([`count`], [`time`], [`span`]) is
//! one lock and one map probe: names are `&'static str` literals, the tick
//! borrows the thread's installed registry rather than cloning it, and
//! after a name's first use it does not allocate. Everything string-shaped
//! (the `{timer}.calls` / `{timer}.wall_ns` counters, the report's owned
//! keys) is built once, at [`Registry::snapshot`].
//!
//! ```
//! let reg = gcomm_obs::Registry::new();
//! {
//!     let _scope = gcomm_obs::install(reg.clone());
//!     let _pass = gcomm_obs::span("demo.pass");
//!     gcomm_obs::count("demo.widgets", 3);
//! }
//! let report = reg.snapshot();
//! assert_eq!(report.counter("demo.widgets"), 3);
//! assert_eq!(report.passes()[0].name, "demo.pass");
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Maximum raw span records kept per registry; closes beyond the cap are
/// still aggregated into the per-pass table and counted under the
/// `obs.spans.dropped` counter.
pub const SPAN_CAP: usize = 4096;

/// Counter names every full-pipeline report is expected to carry, one
/// taxonomy entry per stage (DESIGN.md §9). Report emitters zero-fill
/// these so downstream consumers can rely on the keys existing.
pub const CANONICAL_COUNTERS: &[&str] = &[
    // lang: frontend volume.
    "lang.tokens",
    "lang.stmts",
    "lang.parse_errors",
    // ir: lowering and control-flow analyses.
    "ir.cfg.nodes",
    "ir.cfg.edges",
    "ir.dom.iterations",
    // dep: dependence queries issued by the placement passes.
    "dep.queries",
    "dep.query.calls",
    "dep.query.wall_ns",
    // sections: ASD construction and the section algebra.
    "sections.asd_built",
    "sections.subsume_checks",
    "sections.degraded.subsume",
    // core: per-entry placement fates (the partition invariant
    // `candidates == placed + redundant + combined_away`) plus the
    // dataflow/iteration counts of the individual passes.
    "core.entries.candidates",
    "core.entries.placed",
    "core.entries.redundant",
    "core.entries.combined_away",
    "core.candidate_positions",
    "core.asd_cache_hits",
    "core.earliest.tests",
    "core.subset.eliminated",
    "core.redundancy.checks",
    "core.greedy.rounds",
    // core: graceful-degradation markers — nonzero when the resource
    // budget forced a pass to stop early (DESIGN.md §10).
    "core.degraded.candidates",
    "core.degraded.subset",
    "core.degraded.redundancy",
    "core.degraded.greedy",
    // search: the branch-and-bound optimal placement (DESIGN.md §16) —
    // nodes expanded (the budget unit), subtrees cut by each pruning
    // rule, and whether the space was fully certified.
    "search.nodes",
    "search.pruned_bound",
    "search.pruned_dominance",
    "search.complete",
    // machine: dynamic simulation volume and the fault/retry path.
    "machine.sim.runs",
    "machine.sim.messages",
    "machine.sim.comm_us",
    "machine.fault.retransmits",
    "machine.fault.timeouts",
    "machine.fault.fallbacks",
    "machine.fault.giveups",
    // serve: the persistent compile service (DESIGN.md §12) — request
    // volume, load shedding, and the content-addressed compile cache.
    "serve.requests",
    "serve.compiles",
    "serve.errors",
    "serve.overloaded",
    "serve.unavailable",
    "serve.degraded",
    "cache.hit",
    "cache.miss",
    "cache.evict",
    "cache.bypass",
    // cluster: the sharded router (DESIGN.md §13) — routing volume, the
    // failure/recovery path (retries with wall-clock backoff, failover to
    // the ring replica), and shard health transitions.
    "cluster.requests",
    "cluster.retry",
    "cluster.failover",
    "cluster.replica_hit",
    "cluster.conn_lost",
    "cluster.marked_down",
    "cluster.marked_up",
    "cluster.respawn",
    // store: the crash-safe persistent cache (DESIGN.md §15) — appends
    // and fsyncs on the write path, recovery-scan outcomes on open
    // (clean records warmed, torn tails truncated, checksum failures
    // quarantined and never served), and segment compactions.
    "store.append",
    "store.fsync",
    "store.compact",
    "store.recover_ok",
    "store.recover_torn",
    "store.quarantined",
    // coll: the topology-aware collective backend (DESIGN.md §17) —
    // messages routed through the backend, the total point-to-point
    // steps they lowered to, which algorithm family the selector chose
    // per message, and forced algorithms that fell back to p2p because
    // they cannot lower the pattern.
    "coll.lowered",
    "coll.steps",
    "coll.selected_ring",
    "coll.selected_tree",
    "coll.selected_p2p",
    "coll.fallback",
    // query: the incremental query engine (DESIGN.md §14) — memo
    // hits/misses across all pass-level queries, early-cutoff events
    // (upstream recomputed, downstream still hit), and input-slot
    // invalidations (a routine chunk's fingerprint actually changed).
    "query.hit",
    "query.miss",
    "query.cutoff",
    "query.invalidate",
];

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A counter or pass name: borrowed from the call site's literal on the
/// tick path, owned only for names that arrive in an absorbed report.
type Name = Cow<'static, str>;

#[derive(Debug, Default)]
struct PassAgg {
    calls: u64,
    total_ns: u64,
    /// The share of the two fields above recorded by [`time`] guards on
    /// this registry: what `{name}.calls` / `{name}.wall_ns` report.
    timed_calls: u64,
    timed_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<Name, u64>,
    passes: BTreeMap<Name, PassAgg>,
    spans: Vec<SpanRecord>,
    events: Vec<Event>,
    dropped_spans: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span_id: AtomicU64,
    state: Mutex<State>,
}

/// A thread-safe collection point for counters, spans, and events.
///
/// Cheaply clonable (clones share the same storage); safe to share across
/// threads.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry; its epoch (span time zero) is now.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(0),
                state: Mutex::new(State::default()),
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Every update leaves `State` valid at every step (and guards tick
        // from `Drop`, which must not panic): ignore poisoning.
        self.inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds `delta` to the named counter, creating it on first use.
    pub fn add(&self, name: &'static str, delta: u64) {
        *self
            .state()
            .counters
            .entry(Cow::Borrowed(name))
            .or_default() += delta;
    }

    /// Appends an event.
    pub fn push_event(&self, name: &str, detail: &str) {
        let at_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        self.state().events.push(Event {
            name: name.to_string(),
            detail: detail.to_string(),
            at_ns,
        });
    }

    /// One closed interval under `name`: a [`time`] guard's (`span: None`),
    /// or a span's with its raw record.
    fn record(&self, name: &'static str, dur_ns: u64, span: Option<SpanRecord>) {
        let mut st = self.state();
        let slot = st.passes.entry(Cow::Borrowed(name)).or_default();
        slot.calls += 1;
        slot.total_ns += dur_ns;
        match span {
            None => {
                slot.timed_calls += 1;
                slot.timed_ns += dur_ns;
            }
            Some(rec) if st.spans.len() < SPAN_CAP => st.spans.push(rec),
            Some(_) => st.dropped_spans += 1,
        }
    }

    /// Merges a snapshot taken from another registry into this one:
    /// counters and the per-pass aggregation add, events append, and raw
    /// spans are re-numbered into this registry's id space (preserving
    /// their internal parent links) subject to the usual [`SPAN_CAP`].
    ///
    /// This is how the parallel drivers keep `--stats` output identical to
    /// a serial run: each work item records into a fresh registry, and the
    /// coordinating thread absorbs the snapshots **in item order**, so the
    /// merged report never depends on worker scheduling (span timestamps
    /// excepted — they are wall-clock by nature).
    pub fn absorb(&self, report: &StatsReport) {
        let mut st = self.state();
        for (name, v) in report.counters.iter().filter(|(_, v)| **v > 0) {
            match st.counters.get_mut(name.as_str()) {
                Some(c) => *c += v,
                None => drop(st.counters.insert(Cow::Owned(name.clone()), *v)),
            }
        }
        for p in &report.pass_table {
            // The report's `{name}.calls` counters already carry its
            // timers' share; here the pass only adds to the table.
            let slot = match st.passes.get_mut(p.name.as_str()) {
                Some(slot) => slot,
                None => st.passes.entry(Cow::Owned(p.name.clone())).or_default(),
            };
            slot.calls += p.calls;
            slot.total_ns += p.total_ns;
        }
        st.events.extend(report.events.iter().cloned());
        st.dropped_spans += report.dropped_spans;
        let room = SPAN_CAP.saturating_sub(st.spans.len());
        st.dropped_spans += report.spans.len().saturating_sub(room) as u64;
        if room == 0 || report.spans.is_empty() {
            return;
        }
        // Map the foreign ids (unique within their registry) onto a
        // freshly reserved block of this registry's id space.
        let base = self
            .inner
            .next_span_id
            .fetch_add(report.spans.len() as u64, Ordering::Relaxed);
        let remap: BTreeMap<u64, u64> = report
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, base + i as u64))
            .collect();
        st.spans
            .extend(report.spans.iter().take(room).map(|s| SpanRecord {
                id: remap[&s.id],
                parent: s.parent.and_then(|p| remap.get(&p).copied()),
                ..s.clone()
            }));
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> StatsReport {
        let st = self.state();
        let mut counters: BTreeMap<String, u64> = st
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        for (name, p) in st.passes.iter().filter(|(_, p)| p.timed_calls > 0) {
            *counters.entry(format!("{name}.calls")).or_default() += p.timed_calls;
            *counters.entry(format!("{name}.wall_ns")).or_default() += p.timed_ns;
        }
        let mut spans = st.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let pass_table = st
            .passes
            .iter()
            .map(|(k, v)| PassStat {
                name: k.to_string(),
                calls: v.calls,
                total_ns: v.total_ns,
            })
            .collect();
        StatsReport {
            counters,
            spans,
            pass_table,
            events: st.events.clone(),
            dropped_spans: st.dropped_spans,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local installation
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
    /// Open spans of this thread: `(span id, depth)`.
    static OPEN: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Installs `reg` as the current thread's collection target until the
/// returned guard drops (installations nest; the previous target is
/// restored).
#[must_use = "collection stops when the guard drops"]
pub fn install(reg: Registry) -> ScopeGuard {
    CURRENT.with(|c| c.borrow_mut().push(reg));
    ScopeGuard { _priv: () }
}

/// Restores the previously installed registry (if any) on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The registry currently installed on this thread, if any.
pub fn current() -> Option<Registry> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// True when a registry is installed on this thread (collection is live).
pub fn enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Runs `f` on the registry installed at depth `slot` of this thread's
/// install stack (`None`: the innermost), borrowing it in place.
fn with_installed<R>(slot: Option<usize>, f: impl FnOnce(&Registry, usize) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let stack = c.borrow();
        let slot = slot.unwrap_or(stack.len().wrapping_sub(1));
        stack.get(slot).map(|reg| f(reg, slot))
    })
}

/// Adds `delta` to a counter on the current registry; no-op when none is
/// installed.
pub fn count(name: &'static str, delta: u64) {
    with_installed(None, |reg, _| reg.add(name, delta));
}

// ---------------------------------------------------------------------------
// Spans and timers
// ---------------------------------------------------------------------------

/// One closed span: a wall-time interval with its nesting links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the registry (allocation order).
    pub id: u64,
    /// Id of the enclosing span open on the same thread, if any.
    pub parent: Option<u64>,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Span name (dotted stage-qualified, e.g. `core.greedy`).
    pub name: &'static str,
    /// Start, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A named point event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name.
    pub name: String,
    /// Free-form detail.
    pub detail: String,
    /// Nanoseconds since the registry epoch.
    pub at_ns: u64,
}

/// Times a named span until dropped. No-op when no registry is installed.
///
/// Guards are scoped like the [`install`] they were opened under: a guard
/// dropped after that installation ended records nothing.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let open = with_installed(None, |reg, slot| {
        let id = reg.inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let (parent, depth) = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map(|&(pid, _)| pid);
            let depth = o.len() as u32;
            o.push((id, depth));
            (parent, depth)
        });
        let started = Instant::now();
        let rec = SpanRecord {
            id,
            parent,
            depth,
            name,
            start_ns: started.duration_since(reg.inner.epoch).as_nanos() as u64,
            dur_ns: 0, // set when the guard drops
        };
        (slot, started, rec)
    });
    SpanGuard {
        open,
        _this_thread: PhantomData,
    }
}

/// RAII guard returned by [`span`]. Tied to the thread that opened it.
#[derive(Debug)]
pub struct SpanGuard {
    /// Depth of the registry on this thread's install stack, the start,
    /// and the record-to-be.
    open: Option<(usize, Instant, SpanRecord)>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((slot, started, mut rec)) = self.open.take() else {
            return;
        };
        rec.dur_ns = started.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&(id, _)| id == rec.id) {
                o.truncate(pos);
            }
        });
        with_installed(Some(slot), |reg, _| {
            reg.record(rec.name, rec.dur_ns, Some(rec))
        });
    }
}

/// Starts an accumulating timer: on drop, adds one call and the elapsed
/// nanoseconds to the per-pass aggregation under `name`; a snapshot
/// reports them as the `{name}.calls` / `{name}.wall_ns` counters. Never
/// allocates a raw span record — safe for hot inner loops. No-op when no
/// registry is installed.
#[must_use = "the timer stops when the guard drops"]
pub fn time(name: &'static str) -> TimeGuard {
    TimeGuard {
        open: with_installed(None, |_, slot| (slot, name, Instant::now())),
        _this_thread: PhantomData,
    }
}

/// RAII guard returned by [`time`]. Tied to the thread that opened it.
#[derive(Debug)]
pub struct TimeGuard {
    open: Option<(usize, &'static str, Instant)>,
    _this_thread: PhantomData<*const ()>,
}

impl Drop for TimeGuard {
    fn drop(&mut self) {
        let Some((slot, name, started)) = self.open.take() else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos() as u64;
        with_installed(Some(slot), |reg, _| reg.record(name, dur_ns, None));
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Aggregated wall time of one named pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name.
    pub name: String,
    /// Number of completed spans/timers with this name.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
}

/// A point-in-time statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Counter values, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Raw span records (bounded by [`SPAN_CAP`]), sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Aggregated per-pass wall times (spans + accumulating timers),
    /// sorted by name.
    pub pass_table: Vec<PassStat>,
    /// Point events in record order.
    pub events: Vec<Event>,
    /// Span closes that exceeded [`SPAN_CAP`] and kept no raw record.
    pub dropped_spans: u64,
}

impl StatsReport {
    /// The value of a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The aggregated pass table.
    pub fn passes(&self) -> &[PassStat] {
        &self.pass_table
    }

    /// The report as a JSON object (hand-rolled; the build environment has
    /// no serialization crates). Canonical taxonomy counters
    /// ([`CANONICAL_COUNTERS`]) are zero-filled so every report carries
    /// the full key set.
    pub fn to_json(&self) -> String {
        let mut counters: BTreeMap<&str, u64> =
            CANONICAL_COUNTERS.iter().map(|&name| (name, 0)).collect();
        for (k, v) in &self.counters {
            counters.insert(k.as_str(), *v);
        }
        let mut out = String::from("{\"schema\":\"gcomm-obs/v1\",\"passes\":[");
        for (i, p) in self.pass_table.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"calls\":{},\"wall_ns\":{}}}",
                json_str(&p.name),
                p.calls,
                p.total_ns
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), v);
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"depth\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.depth,
                json_str(s.name),
                s.start_ns,
                s.dur_ns
            );
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"detail\":{},\"at_ns\":{}}}",
                json_str(&e.name),
                json_str(&e.detail),
                e.at_ns
            );
        }
        let _ = write!(out, "],\"dropped_spans\":{}}}", self.dropped_spans);
        out
    }

    /// A human-readable report: pass timing table, then counters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>8} {:>12}", "pass", "calls", "wall");
        for p in &self.pass_table {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12}",
                p.name,
                p.calls,
                fmt_ns(p.total_ns)
            );
        }
        let _ = writeln!(out, "{:<42} {:>10}", "counter", "value");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<42} {v:>10}");
        }
        if self.dropped_spans > 0 {
            let _ = writeln!(out, "({} span records dropped)", self.dropped_spans);
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} us", ns as f64 / 1e3)
    }
}

/// Escapes a string as a JSON string literal (the workspace's one JSON
/// string writer; `gcomm-serve` re-exports it as `json::escape`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!enabled());
        count("x", 1);
        let _s = span("y");
        // Nothing to assert against — the calls must simply be no-ops.
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = Registry::new();
        {
            let _g = install(reg.clone());
            count("a.one", 2);
            count("a.one", 3);
            count("b.two", 1);
        }
        let rep = reg.snapshot();
        assert_eq!(rep.counter("a.one"), 5);
        assert_eq!(rep.counter("b.two"), 1);
        assert_eq!(rep.counter("missing"), 0);
    }

    #[test]
    fn spans_nest_with_parent_links() {
        let reg = Registry::new();
        {
            let _g = install(reg.clone());
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner2 = span("inner2");
            }
        }
        let rep = reg.snapshot();
        assert_eq!(rep.spans.len(), 3);
        let outer = rep.spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["inner", "inner2"] {
            let s = rep.spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer.id));
            assert_eq!(s.depth, 1);
            assert!(s.start_ns >= outer.start_ns);
            assert!(s.start_ns + s.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
    }

    #[test]
    fn install_nests_and_restores() {
        let a = Registry::new();
        let b = Registry::new();
        {
            let _ga = install(a.clone());
            count("k", 1);
            {
                let _gb = install(b.clone());
                count("k", 10);
            }
            count("k", 1);
        }
        assert!(!enabled());
        assert_eq!(a.snapshot().counter("k"), 2);
        assert_eq!(b.snapshot().counter("k"), 10);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = Registry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = reg.clone();
                std::thread::spawn(move || {
                    let _g = install(r);
                    for _ in 0..1000 {
                        count("t.n", 1);
                    }
                    let _s = span("t.work");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rep = reg.snapshot();
        assert_eq!(rep.counter("t.n"), 4000);
        let pass = rep.passes().iter().find(|p| p.name == "t.work").unwrap();
        assert_eq!(pass.calls, 4);
    }

    #[test]
    fn timers_feed_the_pass_table_not_the_span_list() {
        let reg = Registry::new();
        {
            let _g = install(reg.clone());
            for _ in 0..10 {
                let _t = time("hot.loop");
            }
        }
        let rep = reg.snapshot();
        assert!(rep.spans.is_empty());
        let p = rep.passes().iter().find(|p| p.name == "hot.loop").unwrap();
        assert_eq!(p.calls, 10);
        assert_eq!(rep.counter("hot.loop.calls"), 10);
        // Absorbed, a timer's counters arrive as plain counters: once per
        // absorption, never doubled by the pass row that travels with them.
        let sink = Registry::new();
        sink.absorb(&rep);
        sink.absorb(&rep);
        assert_eq!(sink.snapshot().counter("hot.loop.calls"), 20);
        assert_eq!(sink.snapshot().passes()[0].calls, 20);
    }

    #[test]
    fn json_is_parseable_shape_and_zero_fills_taxonomy() {
        let reg = Registry::new();
        {
            let _g = install(reg.clone());
            count("lang.tokens", 7);
            let _s = span("lang.parse");
        }
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"gcomm-obs/v1\""));
        assert!(json.contains("\"lang.tokens\":7"));
        // Zero-filled canonical keys.
        assert!(json.contains("\"machine.fault.retransmits\":0"));
        assert!(json.contains("\"core.entries.candidates\":0"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn span_cap_drops_but_still_aggregates() {
        let reg = Registry::new();
        {
            let _g = install(reg.clone());
            for _ in 0..(SPAN_CAP + 5) {
                let _s = span("many");
            }
        }
        let rep = reg.snapshot();
        assert_eq!(rep.spans.len(), SPAN_CAP);
        assert_eq!(rep.dropped_spans, 5);
        let p = rep.passes().iter().find(|p| p.name == "many").unwrap();
        assert_eq!(p.calls, (SPAN_CAP + 5) as u64);
    }

    #[test]
    fn absorb_merges_counters_passes_and_spans() {
        let main = Registry::new();
        {
            let _g = install(main.clone());
            count("k.a", 2);
            let _s = span("main.work");
        }
        let worker = Registry::new();
        {
            let _g = install(worker.clone());
            count("k.a", 3);
            count("k.b", 7);
            let _outer = span("w.outer");
            let _inner = span("w.inner");
        }
        main.absorb(&worker.snapshot());
        let rep = main.snapshot();
        assert_eq!(rep.counter("k.a"), 5);
        assert_eq!(rep.counter("k.b"), 7);
        assert_eq!(rep.spans.len(), 3);
        // Re-numbered ids stay unique and parent links survive the remap.
        let mut ids: Vec<u64> = rep.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let outer = rep.spans.iter().find(|s| s.name == "w.outer").unwrap();
        let inner = rep.spans.iter().find(|s| s.name == "w.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let p = rep.passes().iter().find(|p| p.name == "w.inner").unwrap();
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn absorb_is_order_deterministic_for_counters() {
        let mk = |n: u64| {
            let r = Registry::new();
            let _g = install(r.clone());
            count("c.x", n);
            drop(_g);
            r.snapshot()
        };
        let (a, b) = (mk(1), mk(10));
        let fwd = Registry::new();
        fwd.absorb(&a);
        fwd.absorb(&b);
        let rev = Registry::new();
        rev.absorb(&b);
        rev.absorb(&a);
        assert_eq!(
            fwd.snapshot().counters.get("c.x"),
            rev.snapshot().counters.get("c.x")
        );
    }
}
