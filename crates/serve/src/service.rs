//! The transport-independent service core: request execution, the compile
//! cache, and the registries a request's stats are counted in.
//!
//! A [`Service`] is shared (behind an `Arc`) between every connection
//! thread and every pool worker. It owns:
//!
//! * the content-addressed response cache, a [`ByteLru`] under a mutex
//!   (the critical section is a hash plus a map probe, orders of
//!   magnitude cheaper than a compile), whose payloads are `Arc<str>`: a
//!   hit bumps a reference count;
//! * the **shards** a request's stats are counted in: `gcomm-obs`
//!   registries, each held by one thread at a time — a connection's reader
//!   for the connection's life, a pool job for its run
//!   ([`Service::record`]). A request ticks its shard in place; nothing
//!   per request is built, snapshotted or absorbed. A `stats` request sums
//!   the shards ([`Service::lifetime_report`]). Counters are sums, so that
//!   total is a function of the *set* of requests that have completed,
//!   whatever the worker count or completion order: a `stats` request
//!   issued after a set of responses arrived counts exactly those requests
//!   (and itself). A request still in flight may show part of its counts.
//!   A shard keeps no raw span records ([`Registry::without_spans`]): it
//!   lives as long as the server, and only the pass table of its spans is
//!   ever read;
//! * the server-side latency histograms (DESIGN.md §12).

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use gcomm_core::incr::{self, IncrCompiler, RoutineArtifacts, RoutineOutcome};
use gcomm_core::{lower_to_sim, CompiledRef, SimConfig};
use gcomm_guard::BudgetSpec;
use gcomm_machine::{simulate, NetworkModel, ProcGrid};
use gcomm_obs::{Histogram, Registry, StatsReport};
use gcomm_query::{fingerprint, ByteLru, Computed, Fingerprinter};
use gcomm_store::{FsyncPolicy, Store, StoreConfig};

use crate::json::{escape, escape_into};
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
    payload: Arc<str>,
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
    fn get(&mut self, key: &CacheKey) -> Option<Arc<str>> {
        let entry = self.0.get(&key.hash)?;
        (entry.material == key.material).then(|| Arc::clone(&entry.payload))
    }

    /// Stores `payload` under `key`; returns the number of entries evicted.
    fn insert(&mut self, key: CacheKey, payload: Arc<str>) -> u64 {
        let CacheKey { material, hash } = key;
        let bytes = (material.len() + payload.len()) as u64;
        self.0
            .insert(hash, CachedResponse { material, payload }, bytes)
    }
}

/// Server-side latency in nanoseconds: the cache probe of every compile
/// request, and the queue wait, compile and write of pooled work.
#[derive(Debug, Default)]
pub(crate) struct Latency {
    pub(crate) probe: Histogram,
    pub(crate) queue_wait: Histogram,
    pub(crate) compile: Histogram,
    pub(crate) write: Histogram,
}

/// One of the service's registries, installed as this thread's `gcomm-obs`
/// registry until dropped (see [`Service::record`]).
pub(crate) struct Recording {
    reg: Arc<Registry>,
    _installed: gcomm_obs::ScopeGuard,
}

/// The shared state of one running compile service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    cache: Mutex<ResponseCache>,
    /// Write-through persistent log shadowing the cache (DESIGN.md §15).
    store: Option<Mutex<Store>>,
    incr: IncrCompiler,
    shards: Mutex<Vec<Arc<Registry>>>,
    pub(crate) latency: Latency,
    /// What opening the persistent cache found, reported by every `stats`
    /// (zeros included): `store.recover_ok`, `store.recover_torn`,
    /// `store.quarantined`.
    recovered: Vec<(&'static str, u64)>,
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
    /// counts are kept for every `stats` report. By the time `open`
    /// returns, every recovered entry is servable and bit-identical to
    /// the cold compile that produced it.
    ///
    /// # Errors
    ///
    /// Any I/O error creating, scanning, or repairing the persist
    /// directory. Infallible when `config.persist` is `None`.
    pub fn open(config: ServiceConfig) -> io::Result<Service> {
        let mut cache = ResponseCache(ByteLru::new(config.cache_bytes));
        let mut recovered = Vec::new();
        let store = match &config.persist {
            None => None,
            Some(dir) => {
                let store_cfg = StoreConfig {
                    fsync: config.persist_fsync,
                    ..StoreConfig::default()
                };
                let (store, recovery) = Store::open(dir, store_cfg)?;
                let mut quarantined = recovery.quarantined;
                for (key, value) in recovery.entries {
                    // The log stores opaque bytes, but every record we
                    // write is UTF-8 (key material and JSON payloads). A
                    // non-UTF-8 record is foreign — quarantine it too.
                    match (String::from_utf8(key), String::from_utf8(value)) {
                        (Ok(k), Ok(v)) => {
                            cache.insert(CacheKey::new(k), v.into());
                        }
                        _ => quarantined += 1,
                    }
                }
                recovered = vec![
                    ("store.recover_ok", recovery.records_ok),
                    ("store.recover_torn", recovery.torn),
                    ("store.quarantined", quarantined),
                ];
                Some(Mutex::new(store))
            }
        };
        Ok(Service {
            incr: IncrCompiler::new(config.query_cache_bytes),
            config,
            cache: Mutex::new(cache),
            store,
            shards: Mutex::new(Vec::new()),
            latency: Latency::default(),
            recovered,
        })
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Installs one of the service's registries (its *shards*) as this
    /// thread's `gcomm-obs` registry until the returned guard drops — an
    /// idle one, or a new one when every shard is held. A connection's
    /// reader holds one for the connection's life, a pool job for its run;
    /// [`Service::compile`] and [`Service::try_cached`] take one per call.
    pub(crate) fn record(&self) -> Recording {
        let reg = {
            let mut shards = self.shards();
            match shards.iter().find(|s| Arc::strong_count(s) == 1) {
                Some(idle) => Arc::clone(idle),
                None => {
                    shards.push(Arc::new(Registry::without_spans()));
                    Arc::clone(&shards[shards.len() - 1])
                }
            }
        };
        Recording {
            _installed: gcomm_obs::install(Registry::clone(&reg)),
            reg,
        }
    }

    /// Every shard ever made; one that only this list holds is idle.
    fn shards(&self) -> MutexGuard<'_, Vec<Arc<Registry>>> {
        self.shards.lock().expect("no shard list update panics")
    }

    /// Kept for callers of the sequenced API this service used to have;
    /// returns 0. Stats are counted in place (see the module docs), so
    /// there is no order to keep.
    pub fn begin(&self) -> u64 {
        0
    }

    /// Kept beside [`Service::begin`]: adds `report` to the lifetime
    /// stats as it is. The reports [`Service::compile`] and
    /// [`Service::try_cached`] return are empty — their counts are already
    /// recorded.
    pub fn finish(&self, _seq: u64, report: StatsReport) {
        if report != StatsReport::default() {
            self.record().reg.absorb(&report);
        }
    }

    /// Everything the service has counted: the recovery counts, then every
    /// shard, summed.
    pub fn lifetime_report(&self) -> StatsReport {
        let total = Registry::new();
        for &(name, n) in &self.recovered {
            total.add(name, n);
        }
        for reg in self.shards().iter() {
            total.absorb(&reg.snapshot());
        }
        total.snapshot()
    }

    /// The payload of a `stats` response. `stable` keeps only
    /// scheduling-invariant counters (drops `*.wall_ns`, the pass table,
    /// the spans, the events and the latency), which is the diffable form;
    /// otherwise the lifetime report is followed by the latency histograms.
    pub fn stats(&self, stable: bool) -> String {
        let report = self.lifetime_report();
        if !stable {
            let l = &self.latency;
            return format!(
                "\"ok\":true,\"stats\":{},\"latency\":{{\"unit\":\"ns\",\"probe\":{},\
                 \"queue_wait\":{},\"compile\":{},\"write\":{}}}",
                report.to_json(),
                l.probe.to_json(),
                l.queue_wait.to_json(),
                l.compile.to_json(),
                l.write.to_json()
            );
        }
        let mut p = String::from(
            "\"ok\":true,\"stats\":{\"schema\":\"gcomm-serve-stats/v1\",\"counters\":{",
        );
        let counters = report
            .counters
            .iter()
            .filter(|(k, _)| !k.ends_with(".wall_ns"));
        for (i, (k, v)) in counters.enumerate() {
            if i > 0 {
                p.push(',');
            }
            let _ = write!(p, "{}:{v}", escape(k));
        }
        p.push_str("}}");
        p
    }

    /// Executes a compile request, returning the full response and an
    /// empty report (its counts are recorded in the service already).
    pub fn compile(&self, req: &CompileReq) -> (String, StatsReport) {
        let key = self.cache_key(req);
        let _rec = self.record();
        let payload = self.respond(req, key);
        (assemble(req.id, &payload), StatsReport::default())
    }

    /// The request's content address, hashed here once: the transports
    /// build it, probe with it ([`Service::cached`]) and hand it on to the
    /// pooled compile ([`Service::respond`]), so a source-sized key
    /// is rendered and fingerprinted once per request. `None` for a
    /// wall-clock (`ms=`) budget — its degradation depends on the clock,
    /// so the payload is not a pure function of any key.
    pub(crate) fn cache_key(&self, req: &CompileReq) -> Option<CacheKey> {
        let effective = req.budget.unwrap_or(self.config.default_budget);
        (effective.ms.is_none()).then(|| CacheKey::new(cache_key_material(req, &effective)))
    }

    /// The response payload (everything after `"id":…,`) for a compile
    /// request under `key`, which must be [`Service::cache_key`] of `req`:
    /// served from the cache when possible, compiled cold otherwise.
    /// Requests without a key (wall-clock budgets) bypass the cache.
    /// Counts the request on the installed registry.
    pub(crate) fn respond(&self, req: &CompileReq, key: Option<CacheKey>) -> Arc<str> {
        gcomm_obs::count("serve.requests", 1);
        let effective = req.budget.unwrap_or(self.config.default_budget);
        let Some(key) = key else {
            gcomm_obs::count("cache.bypass", 1);
            gcomm_obs::count("serve.compiles", 1);
            return cold_compile_payload(req, &effective).into();
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
        let payload: Arc<str> = incremental_payload(&self.incr, req, &effective).into();
        self.persist_entry(key.material(), &payload);
        let evicted = self.cache.lock().unwrap().insert(key, Arc::clone(&payload));
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
    /// A hit is counted (`serve.requests` + `cache.hit`, what the pooled
    /// hit path counts) and answered with an empty report; a miss counts
    /// nothing.
    pub fn try_cached(&self, req: &CompileReq) -> Option<(String, StatsReport)> {
        let key = self.cache_key(req)?;
        let _rec = self.record();
        let payload = self.cached(&key)?;
        Some((assemble(req.id, &payload), StatsReport::default()))
    }

    /// [`Service::try_cached`] under an already built key, counting a hit
    /// on the installed registry.
    pub(crate) fn cached(&self, key: &CacheKey) -> Option<Arc<str>> {
        let payload = self.cache.lock().unwrap().get(key)?;
        gcomm_obs::count("serve.requests", 1);
        gcomm_obs::count("cache.hit", 1);
        Some(payload)
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

/// Renders a successful routine in the given frame shape, into one
/// buffer sized for the escaped report and the simulation object.
fn render_ok(a: &RoutineArtifacts, req: &CompileReq, shape: RenderShape) -> String {
    let report = a.schedule.report(&a.prog);
    // Escaping adds a byte per report line; the rest is a few hundred.
    let mut p = String::with_capacity(report.len() * 9 / 8 + a.prog.name.len() + 320);
    match shape {
        RenderShape::Single => {
            p.push_str("\"ok\":true,\"strategy\":");
            escape_into(&mut p, req.strategy.name());
        }
        RenderShape::Fragment => {
            p.push_str("{\"name\":");
            escape_into(&mut p, &a.prog.name);
            p.push_str(",\"ok\":true");
        }
    }
    let _ = write!(p, ",\"degraded\":{},\"report\":", a.degraded);
    escape_into(&mut p, &report);
    if let Some(sim) = &req.sim {
        let compiled = CompiledRef {
            prog: &a.prog,
            schedule: &a.schedule,
            asds: None,
        };
        p.push_str(",\"sim\":");
        write_sim_json(&mut p, compiled, sim);
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
/// profile and appends it to `out` as a JSON object. Deterministic: the
/// simulator is an analytical cost model, not a measurement.
fn write_sim_json(out: &mut String, compiled: CompiledRef<'_>, sim: &SimSpec) {
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
    let r = simulate(&lower_to_sim(compiled, &cfg), &net);
    out.push_str("{\"profile\":");
    escape_into(out, &sim.profile);
    let _ = write!(out, ",\"p\":{p},\"n\":{},\"total_us\":", sim.n);
    write_f64(out, r.total_us());
    out.push_str(",\"compute_us\":");
    write_f64(out, r.compute_us);
    out.push_str(",\"comm_us\":");
    write_f64(out, r.comm_us);
    let _ = write!(out, ",\"messages\":{},\"bytes\":", r.messages);
    write_f64(out, r.bytes);
    out.push('}');
}

/// Writes a simulator quantity as JSON: finite shortest-roundtrip decimal
/// (Rust's `Display` for `f64` never emits exponents or non-numeric tokens
/// for finite values; the simulator only produces finite, non-negative
/// times).
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
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
        let (cold, _) = svc.compile(&req);
        let mut warm_req = req.clone();
        warm_req.id = Some(99); // a different id must not defeat the cache
        let (warm, _) = svc.compile(&warm_req);
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
        svc.compile(&req);
        svc.compile(&req);
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
        let (resp, _) = svc.compile(&req);
        assert!(resp.contains("\"ok\":false"));
        assert!(resp.contains("\"error\":\"compile_error\""));
        let v = Json::parse(&resp).expect("error responses are valid JSON");
        assert!(v.get("errors").unwrap().as_str().is_none());
        // Diagnostics are deterministic, so they cache like successes.
        let (resp2, _) = svc.compile(&req);
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
    fn finish_absorbs_what_it_is_given() {
        let svc = Service::new(ServiceConfig::default());
        let report = |n| {
            let reg = Registry::new();
            reg.add("t.c", n);
            reg.snapshot()
        };
        // Any order, no sequence: counters are sums.
        svc.finish(svc.begin(), report(4));
        assert_eq!(svc.lifetime_report().counter("t.c"), 4);
        svc.finish(svc.begin(), StatsReport::default());
        svc.finish(svc.begin(), report(3));
        assert_eq!(svc.lifetime_report().counter("t.c"), 7);
    }

    #[test]
    fn shards_are_reused_and_summed() {
        let svc = Service::new(ServiceConfig::default());
        {
            let _outer = svc.record();
            gcomm_obs::count("t.c", 1);
            // A second holder on the same thread takes a shard of its own.
            let _inner = svc.record();
            gcomm_obs::count("t.c", 2);
        }
        for _ in 0..3 {
            let _again = svc.record();
            gcomm_obs::count("t.c", 10);
        }
        assert_eq!(
            svc.shards.lock().unwrap().len(),
            2,
            "idle shards are reused"
        );
        assert_eq!(svc.lifetime_report().counter("t.c"), 33);
        assert!(!gcomm_obs::enabled(), "a released shard is uninstalled");
    }

    #[test]
    fn stable_stats_filter_wall_counters() {
        let svc = Service::new(ServiceConfig::default());
        {
            let _rec = svc.record();
            gcomm_obs::count("cache.hit", 3);
            gcomm_obs::count("dep.query.wall_ns", 123456);
        }
        let p = svc.stats(true);
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
