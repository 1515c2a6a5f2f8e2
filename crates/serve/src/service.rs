//! The transport-independent service core: request execution, the compile
//! cache, per-request observability, and the in-order stats absorber.
//!
//! A [`Service`] is shared (behind an `Arc`) between every connection
//! thread and every pool worker. It owns:
//!
//! * the content-addressed response cache, a [`ByteLru`] under a mutex
//!   (the critical section is a hash plus a map probe, orders of
//!   magnitude cheaper than a compile);
//! * the **lifetime registry** all per-request stats merge into, and the
//!   sequencing machinery that keeps that merge *jobs-invariant*: every
//!   request draws a sequence number at submission ([`Service::begin`])
//!   and its snapshot is absorbed strictly in sequence order
//!   ([`Service::finish`] holds out-of-order reports in a reorder
//!   buffer), so a `stats` report taken after a set of requests completed
//!   is identical whether the pool ran 1 worker or 8.

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gcomm_core::incr::{self, IncrCompiler, RoutineArtifacts, RoutineOutcome};
use gcomm_core::{lower_to_sim, CompiledRef, SimConfig};
use gcomm_guard::BudgetSpec;
use gcomm_machine::{simulate_with_faults, FaultPlan, NetworkModel, ProcGrid};
use gcomm_obs::{Registry, StatsReport};
use gcomm_query::{fingerprint, ByteLru, Computed, Fingerprinter};
use gcomm_store::{FsyncPolicy, Store, StoreConfig};

use crate::json::escape;
use crate::protocol::{assemble, cache_key_material, CompileReq, SimSpec};

/// Tuning knobs of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing compiles (`--jobs`/`GCOMM_JOBS`).
    pub jobs: usize,
    /// Bounded request-queue capacity; submissions beyond it are rejected
    /// with `overloaded` (backpressure, never unbounded buffering).
    pub queue_cap: usize,
    /// Byte capacity of the compile cache (`--cache-bytes`).
    pub cache_bytes: u64,
    /// Budget applied to compile requests that do not carry their own.
    pub default_budget: BudgetSpec,
    /// Byte capacity of the incremental query engine's memo (a cap of `0`
    /// simply holds nothing: every routine of every response-cache miss
    /// recompiles, through the same engine).
    pub query_cache_bytes: u64,
    /// Directory of the persistent compile cache (`--persist`); `None`
    /// keeps the cache purely in memory. With a directory, cache inserts
    /// are written through to a crash-safe segmented log
    /// ([`gcomm_store::Store`]) and a restarted service warms from it —
    /// recovered hits are bit-identical to cold compiles because the
    /// stored value *is* the rendered payload (DESIGN.md §15).
    pub persist: Option<PathBuf>,
    /// fsync policy of the persistent log (`--persist-fsync`).
    pub persist_fsync: FsyncPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: gcomm_par::default_jobs(),
            queue_cap: 64,
            cache_bytes: 32 * 1024 * 1024,
            default_budget: BudgetSpec::default(),
            query_cache_bytes: 64 * 1024 * 1024,
            persist: None,
            persist_fsync: FsyncPolicy::Always,
        }
    }
}

/// The content address of a compile request: the canonical key material
/// — the exact bytes of `(protocol version, strategy, budget spec, sim
/// spec, source)` joined with NUL separators, see
/// [`cache_key_material`] — together with its index hash, so a request
/// that probes and then inserts hashes its (source-sized) key once.
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

/// A rendered response payload with the key material it was stored under.
struct CachedResponse {
    material: String,
    payload: String,
}

/// The response cache: key hash → rendered payload of a cold compile,
/// bounded by key + payload bytes. Because the stored value *is* the
/// response payload, a hit is bit-identical to a cold compile by
/// construction; the property tests prove the converse (a cold recompile
/// reproduces the stored bytes).
///
/// The 64-bit hash is only the index: the full key material is kept in
/// each entry and compared on every hit, so a hash collision degrades to a
/// miss (and the colliding insert replaces the entry — the old one could
/// no longer be trusted to be reachable anyway), never to a wrong answer.
#[derive(Debug)]
struct ResponseCache(ByteLru<u64, CachedResponse>);

impl ResponseCache {
    /// The payload stored under `key`, made the most recently used.
    fn get(&mut self, key: &CacheKey) -> Option<String> {
        let entry = self.0.get(&key.hash)?;
        (entry.material == key.material).then(|| entry.payload.clone())
    }

    /// Stores `payload` under `key`; returns the number of entries evicted.
    fn insert(&mut self, key: CacheKey, payload: String) -> u64 {
        let CacheKey { material, hash } = key;
        let bytes = (material.len() + payload.len()) as u64;
        self.0
            .insert(hash, CachedResponse { material, payload }, bytes)
    }
}

/// Reorder buffer absorbing per-request reports in sequence order.
#[derive(Debug, Default)]
struct Absorber {
    next_expected: u64,
    pending: std::collections::BTreeMap<u64, StatsReport>,
}

/// The shared state of one running compile service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    cache: Mutex<ResponseCache>,
    /// Write-through persistent log shadowing the cache (DESIGN.md §15).
    store: Option<Mutex<Store>>,
    incr: IncrCompiler,
    lifetime: Registry,
    absorber: Mutex<Absorber>,
    next_seq: AtomicU64,
}

impl Service {
    /// A fresh in-memory service with an empty cache and zeroed lifetime
    /// stats.
    ///
    /// # Panics
    ///
    /// When the config carries a `persist` directory that cannot be
    /// opened — prefer [`Service::open`] for persistent services, which
    /// surfaces the error.
    pub fn new(config: ServiceConfig) -> Service {
        Service::open(config).expect("opening the persistent cache failed")
    }

    /// Opens a service, recovering the persistent compile cache first
    /// when `config.persist` names a directory: the segmented log's
    /// recovery scan runs (truncating torn records, quarantining corrupt
    /// ones — see [`gcomm_store::Store::open`]), surviving entries warm
    /// the in-memory LRU in last-write order, and the
    /// `store.recover_ok`/`store.recover_torn`/`store.quarantined`
    /// counters land in the lifetime registry. By the time `open`
    /// returns, every recovered entry is servable and bit-identical to
    /// the cold compile that produced it.
    ///
    /// # Errors
    ///
    /// Any I/O error creating, scanning, or repairing the persist
    /// directory. Infallible when `config.persist` is `None`.
    pub fn open(config: ServiceConfig) -> io::Result<Service> {
        let lifetime = Registry::new();
        let mut cache = ResponseCache(ByteLru::new(config.cache_bytes));
        let store = match &config.persist {
            None => None,
            Some(dir) => {
                let store_cfg = StoreConfig {
                    fsync: config.persist_fsync,
                    ..StoreConfig::default()
                };
                let (store, recovery) = Store::open(dir, store_cfg)?;
                lifetime.add("store.recover_ok", recovery.records_ok);
                lifetime.add("store.recover_torn", recovery.torn);
                lifetime.add("store.quarantined", recovery.quarantined);
                for (key, value) in recovery.entries {
                    // The log stores opaque bytes, but every record we
                    // write is UTF-8 (key material and JSON payloads). A
                    // non-UTF-8 record is foreign — quarantine it too.
                    match (String::from_utf8(key), String::from_utf8(value)) {
                        (Ok(k), Ok(v)) => {
                            cache.insert(CacheKey::new(k), v);
                        }
                        _ => lifetime.add("store.quarantined", 1),
                    }
                }
                Some(Mutex::new(store))
            }
        };
        Ok(Service {
            incr: IncrCompiler::new(config.query_cache_bytes),
            config,
            cache: Mutex::new(cache),
            store,
            lifetime,
            absorber: Mutex::new(Absorber::default()),
            next_seq: AtomicU64::new(0),
        })
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Draws the sequence number for a request **at submission time**.
    /// Every `begin` must be paired with exactly one [`Service::finish`]
    /// (even for rejected or failed requests), or later reports stall in
    /// the reorder buffer.
    pub fn begin(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Completes sequence number `seq` with the request's stats snapshot.
    /// Reports are absorbed into the lifetime registry strictly in
    /// sequence order; an out-of-order completion parks in the reorder
    /// buffer until its predecessors arrive.
    pub fn finish(&self, seq: u64, report: StatsReport) {
        let mut ab = self.absorber.lock().unwrap();
        ab.pending.insert(seq, report);
        loop {
            let next = ab.next_expected;
            let Some(rep) = ab.pending.remove(&next) else {
                break;
            };
            self.lifetime.absorb(&rep);
            ab.next_expected += 1;
        }
    }

    /// A one-off report carrying only the given counters — the completion
    /// shape for requests that never execute (rejections, parse errors).
    pub fn counter_report(&self, counters: &[(&str, u64)]) -> StatsReport {
        StatsReport {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..StatsReport::default()
        }
    }

    /// Snapshot of the lifetime registry (completed requests only — an
    /// in-flight request's stats appear once it finishes and its turn in
    /// the sequence order comes up).
    pub fn lifetime_report(&self) -> StatsReport {
        self.lifetime.snapshot()
    }

    /// Executes a compile request, returning the full response and the
    /// request's stats snapshot (pass it to [`Service::finish`]).
    pub fn compile(&self, req: &CompileReq) -> (String, StatsReport) {
        self.compile_keyed(req, self.cache_key(req))
    }

    /// The request's content address, hashed here once: the transports
    /// build it, probe with it ([`Service::cached`]) and hand it on to the
    /// pooled compile ([`Service::compile_keyed`]), so a source-sized key
    /// is rendered and fingerprinted once per request. `None` for a
    /// wall-clock (`ms=`) budget — its degradation depends on the clock,
    /// so the payload is not a pure function of any key.
    pub(crate) fn cache_key(&self, req: &CompileReq) -> Option<CacheKey> {
        let effective = req.budget.unwrap_or(self.config.default_budget);
        (effective.ms.is_none()).then(|| CacheKey::new(cache_key_material(req, &effective)))
    }

    /// [`Service::compile`] under `key`, which must be
    /// [`Service::cache_key`] of `req`.
    pub(crate) fn compile_keyed(
        &self,
        req: &CompileReq,
        key: Option<CacheKey>,
    ) -> (String, StatsReport) {
        let reg = Registry::new();
        let payload = {
            let _g = gcomm_obs::install(reg.clone());
            gcomm_obs::count("serve.requests", 1);
            self.compile_payload(req, key)
        };
        (assemble(req.id, &payload), reg.snapshot())
    }

    /// The response payload (everything after `"id":…,`) for a compile
    /// request: served from the cache when possible, compiled cold
    /// otherwise. Requests without a key (wall-clock budgets) bypass the
    /// cache.
    fn compile_payload(&self, req: &CompileReq, key: Option<CacheKey>) -> String {
        let effective = req.budget.unwrap_or(self.config.default_budget);
        let Some(key) = key else {
            gcomm_obs::count("cache.bypass", 1);
            gcomm_obs::count("serve.compiles", 1);
            return cold_compile_payload(req, &effective);
        };
        if let Some(hit) = self.cache.lock().unwrap().get(&key) {
            gcomm_obs::count("cache.hit", 1);
            return hit;
        }
        gcomm_obs::count("cache.miss", 1);
        gcomm_obs::count("serve.compiles", 1);
        // The warm-edit path: a near-miss (an edited source) recompiles
        // only the routines whose bytes and AST are both new; everything
        // else is reused bit-identically (DESIGN.md §14).
        let payload = incremental_payload(&self.incr, req, &effective);
        self.persist_entry(key.material(), &payload);
        let evicted = self.cache.lock().unwrap().insert(key, payload.clone());
        if evicted > 0 {
            gcomm_obs::count("cache.evict", evicted);
        }
        payload
    }

    /// Write-through to the persistent log (when configured): the exact
    /// key material and payload the in-memory cache holds, so recovery
    /// re-creates cache entries byte for byte. An append failure degrades
    /// the service to in-memory caching for that entry — compiles must
    /// keep flowing on a full or failing disk.
    fn persist_entry(&self, key: &str, payload: &str) {
        let Some(store) = &self.store else { return };
        match store
            .lock()
            .unwrap()
            .append(key.as_bytes(), payload.as_bytes())
        {
            Ok(a) => {
                gcomm_obs::count("store.append", 1);
                if a.fsynced {
                    gcomm_obs::count("store.fsync", 1);
                }
                if a.compacted {
                    gcomm_obs::count("store.compact", 1);
                }
            }
            Err(e) => eprintln!("gcomm-serve: persist append failed: {e}"),
        }
    }

    /// Inline cache probe for the transports: on a hit the reader thread
    /// answers directly — the request never consumes a worker slot or
    /// queue capacity, so warm latency stays flat under compile load and
    /// backpressure never rejects a request the cache could have served.
    /// Counts exactly what the pooled hit path would have counted
    /// (`serve.requests` + `cache.hit`), keeping stats jobs-invariant.
    pub fn try_cached(&self, req: &CompileReq) -> Option<(String, StatsReport)> {
        self.cached(req.id, &self.cache_key(req)?)
    }

    /// [`Service::try_cached`] under an already built key.
    pub(crate) fn cached(&self, id: Option<u64>, key: &CacheKey) -> Option<(String, StatsReport)> {
        let payload = self.cache.lock().unwrap().get(key)?;
        Some((
            assemble(id, &payload),
            self.counter_report(&[("serve.requests", 1), ("cache.hit", 1)]),
        ))
    }

    /// Cache occupancy `(entries, used_bytes)` (for reports and tests).
    pub fn cache_usage(&self) -> (usize, u64) {
        let c = self.cache.lock().unwrap();
        (c.0.len(), c.0.used_bytes())
    }

    /// Query-engine occupancy `(entries, used_bytes)` (for tests).
    pub fn engine_usage(&self) -> (usize, u64) {
        let eng = self.incr.engine();
        (eng.len(), eng.used_bytes())
    }
}

/// Compiles a request without consulting any cache and renders its
/// response payload. Pure in the content-addressing sense: for a fixed
/// `(req minus id, effective)` the returned bytes are identical across
/// invocations, which is the property the cache relies on (and the
/// bit-identity property test checks). Runs the same stage functions as
/// the incremental path with no memoization, so the two paths agree
/// byte for byte (tests/incremental_differential.rs).
pub fn cold_compile_payload(req: &CompileReq, effective: &BudgetSpec) -> String {
    let outcome = incr::compile_module_cold(&req.source, req.strategy, effective);
    let shape = RenderShape::of(outcome.routines.len());
    let rendered: Vec<RoutineRender> = outcome
        .routines
        .iter()
        .map(|routine| render_routine(routine, req, shape))
        .collect();
    frame_payload(&rendered, req)
}

/// Joins rendered routines into a response payload and counts the
/// request's `serve.errors` / `serve.degraded`. A single-routine source
/// keeps the exact classic payload shape (PR 5); a multi-routine module
/// gets `"module":true` with a per-routine array.
fn frame_payload<R: Borrow<RoutineRender>>(rendered: &[R], req: &CompileReq) -> String {
    let all_ok = rendered.iter().all(|r| r.borrow().ok);
    let any_degraded = rendered.iter().any(|r| r.borrow().degraded);
    if !all_ok {
        gcomm_obs::count("serve.errors", 1);
    }
    if any_degraded {
        gcomm_obs::count("serve.degraded", 1);
    }
    if let [r] = rendered {
        return r.borrow().payload.clone();
    }
    let mut p = format!(
        "\"ok\":{},\"module\":true,\"strategy\":{},\"degraded\":{},\"routines\":[",
        all_ok,
        escape(req.strategy.name()),
        any_degraded
    );
    // One allocation for the whole payload, not one per doubling.
    p.reserve(rendered.iter().map(|r| r.borrow().payload.len() + 1).sum());
    for (i, r) in rendered.iter().enumerate() {
        if i > 0 {
            p.push(',');
        }
        p.push_str(&r.borrow().payload);
    }
    p.push(']');
    p
}

/// The classic single-routine error payload.
fn single_error_payload(errs: &[gcomm_core::CoreError]) -> String {
    format!(
        "\"ok\":false,\"error\":\"compile_error\",\"errors\":{}",
        errors_json(errs)
    )
}

/// A fully rendered routine plus the flags the module frame needs — the
/// product the engine keeps per routine, its one memo of rendered bytes.
#[derive(Debug)]
struct RoutineRender {
    payload: String,
    ok: bool,
    degraded: bool,
}

/// The warm-edit path (DESIGN.md §14): chunks the source and asks the
/// engine for every routine's render under a frame of everything but the
/// chunk a render depends on — shape and sim spec (machine and coll
/// included), with strategy and budget folded in by the engine, mirroring
/// [`crate::protocol::cache_key_material`]. A byte-unchanged routine is one
/// probe; an AST-preserving edit reparses and reuses the render; anything
/// else is compiled and rendered by `render_routine`, the function the cold
/// path calls, so the bytes are [`cold_compile_payload`]'s.
fn incremental_payload(ic: &IncrCompiler, req: &CompileReq, effective: &BudgetSpec) -> String {
    let chunks = incr::split_routines(&req.source);
    let shape = RenderShape::of(chunks.len());
    let frame = Fingerprinter::of(&(shape, &req.sim));
    let rendered = ic.products(&chunks, frame, req.strategy, effective, |_, routine| {
        let r = render_routine(&routine, req, shape);
        Computed {
            bytes: r.payload.len() as u64,
            // Error payloads embed module-level line numbers (they depend
            // on where the chunk sits, not just its bytes); degraded ones
            // depend on budget progress. Neither is a pure function of the
            // key.
            cacheable: r.ok && !r.degraded,
            value: r,
        }
    });
    frame_payload(&rendered, req)
}

/// Renders one routine in the given frame shape — the one renderer under
/// both [`cold_compile_payload`] and [`incremental_payload`].
fn render_routine(routine: &RoutineOutcome, req: &CompileReq, shape: RenderShape) -> RoutineRender {
    match &routine.result {
        Ok(a) => RoutineRender {
            payload: render_ok(a, req, shape),
            ok: true,
            degraded: a.degraded,
        },
        Err(_) => RoutineRender {
            payload: render_error(routine, shape),
            ok: false,
            degraded: false,
        },
    }
}

/// Renders an error routine in the given frame shape.
fn render_error(routine: &RoutineOutcome, shape: RenderShape) -> String {
    match shape {
        RenderShape::Single => single_error_payload(&routine.module_errors()),
        RenderShape::Fragment => format!(
            "{{\"name\":{},\"ok\":false,\"errors\":{}}}",
            escape(&routine.name),
            errors_json(&routine.module_errors())
        ),
    }
}

/// How a successful routine render is framed: the classic single-routine
/// payload, or one element of a module's `"routines"` array.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum RenderShape {
    Single,
    Fragment,
}

impl RenderShape {
    /// The shape of every routine of a source with `routines` chunks.
    fn of(routines: usize) -> RenderShape {
        if routines == 1 {
            RenderShape::Single
        } else {
            RenderShape::Fragment
        }
    }
}

/// Renders a successful routine in the given frame shape.
fn render_ok(a: &RoutineArtifacts, req: &CompileReq, shape: RenderShape) -> String {
    let report = a.schedule.report(&a.prog);
    let mut p = match shape {
        RenderShape::Single => format!(
            "\"ok\":true,\"strategy\":{},\"degraded\":{},\"report\":{}",
            escape(req.strategy.name()),
            a.degraded,
            escape(&report)
        ),
        RenderShape::Fragment => format!(
            "{{\"name\":{},\"ok\":true,\"degraded\":{},\"report\":{}",
            escape(&a.prog.name),
            a.degraded,
            escape(&report)
        ),
    };
    if let Some(sim) = &req.sim {
        let compiled = CompiledRef {
            prog: &a.prog,
            schedule: &a.schedule,
        };
        p.push_str(",\"sim\":");
        p.push_str(&sim_json(compiled, sim));
    }
    if shape == RenderShape::Fragment {
        p.push('}');
    }
    p
}

/// Renders a diagnostics list as a JSON array.
fn errors_json(errs: &[gcomm_core::CoreError]) -> String {
    let mut p = String::from("[");
    for (i, e) in errs.iter().enumerate() {
        if i > 0 {
            p.push(',');
        }
        let _ = write!(
            p,
            "{{\"line\":{},\"message\":{}}}",
            e.line,
            escape(&e.message)
        );
    }
    p.push(']');
    p
}

/// Runs the machine simulation of a compiled schedule on the requested
/// profile and renders it as a JSON object. Deterministic: the simulator
/// is an analytical cost model, not a measurement.
fn sim_json(compiled: CompiledRef<'_>, sim: &SimSpec) -> String {
    let (p, net) = match sim.profile.as_str() {
        "sp2" => (25u32, NetworkModel::sp2()),
        _ => (8u32, NetworkModel::now_myrinet()),
    };
    let grid = ProcGrid::balanced(p, compiled.prog.grid_rank());
    let mut cfg = SimConfig::uniform(compiled, grid, sim.n).with("nsteps", 10);
    // `flat`+`p2p` is the legacy flat-model pricing: identical numbers,
    // and old-protocol requests keep their exact historical output.
    if !(sim.machine == "flat" && sim.coll == "p2p") {
        let topo = gcomm_coll::Topology::parse(&sim.machine).unwrap_or(gcomm_coll::Topology::Flat);
        let choice = gcomm_coll::CollChoice::parse(&sim.coll)
            .unwrap_or(gcomm_coll::CollChoice::Fixed(gcomm_coll::Algo::P2p));
        cfg = cfg.with_coll(gcomm_coll::CollConfig::new(topo, choice, net.clone()));
    }
    let rep = simulate_with_faults(&lower_to_sim(compiled, &cfg), &net, &FaultPlan::quiet());
    let r = rep.result;
    format!(
        "{{\"profile\":{},\"p\":{p},\"n\":{},\"total_us\":{},\"compute_us\":{},\
         \"comm_us\":{},\"messages\":{},\"bytes\":{}}}",
        escape(&sim.profile),
        sim.n,
        fmt_f64(r.total_us()),
        fmt_f64(r.compute_us),
        fmt_f64(r.comm_us),
        r.messages,
        fmt_f64(r.bytes)
    )
}

/// Formats a simulator quantity for JSON: finite shortest-roundtrip
/// decimal (Rust's `Display` for `f64` never emits exponents or
/// non-numeric tokens for finite values; the simulator only produces
/// finite, non-negative times).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a stats response payload from a report. `stable` keeps only
/// scheduling-invariant counters (drops `*.wall_ns`, the pass table, the
/// spans, and the events), which is the diffable form.
pub fn stats_payload(report: &StatsReport, stable: bool) -> String {
    if !stable {
        return format!("\"ok\":true,\"stats\":{}", report.to_json());
    }
    let mut p =
        String::from("\"ok\":true,\"stats\":{\"schema\":\"gcomm-serve-stats/v1\",\"counters\":{");
    let mut first = true;
    for (k, v) in &report.counters {
        if k.ends_with(".wall_ns") {
            continue;
        }
        if !first {
            p.push(',');
        }
        first = false;
        let _ = write!(p, "{}:{v}", escape(k));
    }
    p.push_str("}}");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::protocol::Request;
    use gcomm_core::Strategy;

    const OK_SRC: &str = "program p\nparam n\nreal a(n,n), b(n,n) distribute (block, block)\nb(2:n, 1:n) = a(1:n-1, 1:n)\nend\n";

    fn compile_req(source: &str) -> CompileReq {
        CompileReq {
            id: Some(1),
            source: source.into(),
            strategy: Strategy::Global,
            budget: None,
            sim: None,
        }
    }

    #[test]
    fn cache_hit_is_bit_identical_and_counted() {
        let svc = Service::new(ServiceConfig::default());
        let req = compile_req(OK_SRC);
        let (cold, rep0) = svc.compile(&req);
        svc.finish(svc.begin(), rep0);
        let mut warm_req = req.clone();
        warm_req.id = Some(99); // a different id must not defeat the cache
        let (warm, rep1) = svc.compile(&warm_req);
        svc.finish(svc.begin(), rep1);
        // Identical payloads behind the echoed ids.
        assert_eq!(
            cold.strip_prefix("{\"id\":1,").unwrap(),
            warm.strip_prefix("{\"id\":99,").unwrap()
        );
        let life = svc.lifetime_report();
        assert_eq!(life.counter("cache.miss"), 1);
        assert_eq!(life.counter("cache.hit"), 1);
        assert_eq!(life.counter("serve.compiles"), 1);
        assert_eq!(life.counter("serve.requests"), 2);
        assert_eq!(svc.cache_usage().0, 1);
    }

    #[test]
    fn a_hash_collision_is_a_miss_and_the_newcomer_wins() {
        let key = |material: &str| CacheKey {
            material: material.into(),
            hash: 7, // forced: two materials under one index hash
        };
        let mut cache = ResponseCache(ByteLru::new(1024));
        cache.insert(key("k1"), "v1".into());
        assert_eq!(cache.get(&key("k1")), Some("v1".into()));
        assert_eq!(cache.get(&key("k2")), None, "same hash, other material");
        cache.insert(key("k2"), "v2".into());
        assert_eq!(cache.get(&key("k1")), None, "replaced, not aliased");
        assert_eq!(cache.get(&key("k2")), Some("v2".into()));
        assert_eq!((cache.0.len(), cache.0.used_bytes()), (1, 4));
    }

    #[test]
    fn ms_budget_bypasses_the_cache() {
        let svc = Service::new(ServiceConfig::default());
        let mut req = compile_req(OK_SRC);
        req.budget = Some(BudgetSpec::parse("ms=10000").unwrap());
        let (_, r0) = svc.compile(&req);
        let (_, r1) = svc.compile(&req);
        svc.finish(svc.begin(), r0);
        svc.finish(svc.begin(), r1);
        let life = svc.lifetime_report();
        assert_eq!(life.counter("cache.bypass"), 2);
        assert_eq!(life.counter("cache.hit"), 0);
        assert_eq!(life.counter("serve.compiles"), 2);
        assert_eq!(svc.cache_usage().0, 0);
    }

    #[test]
    fn compile_errors_are_rendered_and_cached() {
        let svc = Service::new(ServiceConfig::default());
        let req = compile_req("program p\nthis is not hpf\nend\n");
        let (resp, rep) = svc.compile(&req);
        svc.finish(svc.begin(), rep);
        assert!(resp.contains("\"ok\":false"));
        assert!(resp.contains("\"error\":\"compile_error\""));
        let v = Json::parse(&resp).expect("error responses are valid JSON");
        assert!(v.get("errors").unwrap().as_str().is_none());
        // Diagnostics are deterministic, so they cache like successes.
        let (resp2, rep2) = svc.compile(&req);
        svc.finish(svc.begin(), rep2);
        assert_eq!(resp, resp2);
        assert_eq!(svc.lifetime_report().counter("cache.hit"), 1);
    }

    #[test]
    fn sim_payload_is_deterministic_and_parses() {
        let req = CompileReq {
            sim: Some(SimSpec::flat("sp2", 32)),
            ..compile_req(OK_SRC)
        };
        let a = cold_compile_payload(&req, &BudgetSpec::default());
        let b = cold_compile_payload(&req, &BudgetSpec::default());
        assert_eq!(a, b);
        let v = Json::parse(&format!("{{{a}}}")).unwrap();
        let sim = v.get("sim").unwrap();
        assert_eq!(sim.get("p").unwrap().as_u64(), Some(25));
        assert!(sim.get("total_us").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn finish_reorders_out_of_order_completions() {
        let svc = Service::new(ServiceConfig::default());
        let s0 = svc.begin();
        let s1 = svc.begin();
        let s2 = svc.begin();
        svc.finish(s2, svc.counter_report(&[("t.c", 4)]));
        assert_eq!(svc.lifetime_report().counter("t.c"), 0, "parked");
        svc.finish(s0, svc.counter_report(&[("t.c", 1)]));
        assert_eq!(svc.lifetime_report().counter("t.c"), 1);
        svc.finish(s1, svc.counter_report(&[("t.c", 2)]));
        assert_eq!(svc.lifetime_report().counter("t.c"), 7, "drained in order");
    }

    #[test]
    fn stable_stats_filter_wall_counters() {
        let reg = Registry::new();
        reg.add("cache.hit", 3);
        reg.add("dep.query.wall_ns", 123456);
        let p = stats_payload(&reg.snapshot(), true);
        assert!(p.contains("\"cache.hit\":3"));
        assert!(!p.contains("wall_ns"));
        let v = Json::parse(&format!("{{{p}}}")).unwrap();
        assert_eq!(
            v.get("stats").unwrap().get("schema").unwrap().as_str(),
            Some("gcomm-serve-stats/v1")
        );
    }

    #[test]
    fn stats_requests_parse_with_stable_flag() {
        let v = Json::parse(r#"{"op":"stats","stable":true,"id":2}"#).unwrap();
        assert_eq!(
            Request::parse(&v).unwrap(),
            Request::Stats {
                id: Some(2),
                stable: true
            }
        );
    }
}
