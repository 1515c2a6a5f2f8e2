//! The cluster router: accepts the same framed protocol as a single
//! `gcomm-serve` shard, consistent-hashes each request's cache key to a
//! shard, and relays request and response bytes verbatim.
//!
//! ## Failure path
//!
//! Per request the router walks the key's ring successors (primary, then
//! replicas), preferring shards the health machine considers up. Each
//! failed forward feeds the health machine, counts `cluster.retry`, and
//! backs off on the wall clock via [`RetryPolicy::backoff_wall`] —
//! exponential with jitter, the PR 1 fault machinery pointed at real
//! sockets. When the attempt budget is exhausted the client receives a
//! structured `unavailable` error — never a hang (every socket carries
//! deadlines) and never a relayed partial frame (a mid-frame death is a
//! classified `ConnLost`, counted under `cluster.conn_lost`).
//!
//! ## Bit-identity
//!
//! Compile responses are relayed without re-rendering, and the cached
//! payload of a compile is a pure function of its cache key with the
//! request id excluded (PR 5). So whichever shard answers — primary cold,
//! primary warm, replica after failover — the bytes equal a single-node
//! `gcomm-serve` response to the same request, by construction.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use gcomm_machine::fault::Rng64;
use gcomm_obs::Registry;
use gcomm_par::{Pool, PoolHandle, SubmitError};

use crate::frame::{into_text, read_frame, skip_payload, write_frame, FrameError};
use crate::json::{escape, Json};
use crate::protocol::{assemble, cache_key_material, error_response, Request, PROTOCOL};
use crate::server::ShutdownFlag;
use crate::service::stats_payload;
use crate::VERSION;
use gcomm_query::fingerprint;

use super::health::Transition;
use super::hotkey::HotKeys;
use super::ring::Ring;
use super::shard::{ForwardError, Shard};
use super::ClusterConfig;

/// Replication jobs queued ahead of the replication worker; beyond this
/// the hint is dropped (replication is an optimization, never load).
const REPLICATION_QUEUE: usize = 256;

/// Shared state of a running router.
struct Core {
    shards: Arc<Vec<Shard>>,
    ring: Ring,
    cfg: ClusterConfig,
    lifetime: Registry,
    hot: HotKeys,
    repl_tx: Mutex<Option<SyncSender<(usize, String)>>>,
}

impl Core {
    fn count(&self, name: &'static str, v: u64) {
        self.lifetime.add(name, v);
    }

    fn record_transition(&self, t: Option<Transition>, shard: &Shard) {
        match t {
            Some(Transition::MarkedDown) => {
                self.count("cluster.marked_down", 1);
                // Pooled sockets to a dead shard are stale by definition.
                shard.drop_idle();
            }
            Some(Transition::MarkedUp) => self.count("cluster.marked_up", 1),
            None => {}
        }
    }

    /// The target of the `attempt`-th try (1-based): up candidates in
    /// ring order, rotated by attempt; when everything is marked down,
    /// all candidates in ring order (a down mark is a hint, not a veto —
    /// the last word belongs to an actual connection attempt).
    fn choose(&self, order: &[usize], attempt: u32) -> usize {
        let up: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&s| self.shards[s].health.is_up())
            .collect();
        let list: &[usize] = if up.is_empty() { order } else { &up };
        list[(attempt as usize - 1) % list.len()]
    }

    /// Forwards one request to the ring, with retry/backoff/failover.
    /// Always returns a complete response — the shard's bytes verbatim,
    /// or a structured `unavailable` error.
    fn route(&self, hash: u64, text: &str, id: Option<u64>) -> String {
        self.count("cluster.requests", 1);
        let order = self.ring.successors(hash, 1 + self.cfg.replicas);
        let mut rng = Rng64::new(self.cfg.seed ^ hash);
        let attempts = self.cfg.retry.attempts();
        for attempt in 1..=attempts {
            let target = self.choose(&order, attempt);
            let shard = &self.shards[target];
            if attempt > 1 {
                self.count("cluster.retry", 1);
            }
            match shard.forward(text, self.cfg.connect_timeout, self.cfg.io_timeout) {
                Ok(resp) => {
                    self.record_transition(shard.health.record_success(&self.cfg.health), shard);
                    if target == order[0] {
                        self.replicate_if_hot(hash, text, &order);
                    } else {
                        // Served by a ring successor instead of the
                        // key's primary — the failover path worked.
                        self.count("cluster.failover", 1);
                        self.count("cluster.replica_hit", 1);
                    }
                    return resp;
                }
                Err(e) => {
                    if matches!(e, ForwardError::ConnLost) {
                        self.count("cluster.conn_lost", 1);
                    }
                    self.record_transition(shard.health.record_failure(&self.cfg.health), shard);
                    if attempt < attempts {
                        std::thread::sleep(self.cfg.retry.backoff_wall(
                            self.cfg.retry_base,
                            self.cfg.retry_cap,
                            attempt,
                            &mut rng,
                        ));
                    }
                }
            }
        }
        self.count("serve.unavailable", 1);
        error_response(
            id,
            "unavailable",
            "no shard could serve the request (all attempts failed)",
        )
    }

    /// Replication hook: on a primary-served request whose key just
    /// crossed the hot threshold, enqueue a copy for the next shard on
    /// the ring. Fire-and-forget — a full queue drops the hint.
    fn replicate_if_hot(&self, hash: u64, text: &str, order: &[usize]) {
        if self.cfg.replicas == 0 || order.len() < 2 {
            return;
        }
        if !self.hot.record(hash, Instant::now()) {
            return;
        }
        let replica = order[1];
        if !self.shards[replica].health.is_up() {
            return;
        }
        if let Some(tx) = self.repl_tx.lock().unwrap().as_ref() {
            match tx.try_send((replica, text.to_string())) {
                Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }
}

/// A clonable readmission handle for shard supervisors: when a dead
/// shard process has been respawned (on a fresh ephemeral port) and its
/// recovery scan and health probe have passed, [`Admission::readmit`]
/// re-points the shard's ring slot at the new address.
///
/// Readmission does **not** force the health state to up — the slot stays
/// down until the router's own prober has seen `up_threshold` consecutive
/// successes against the new address, so a respawn that immediately
/// wedges never attracts primary traffic.
#[derive(Clone)]
pub struct Admission {
    core: Arc<Core>,
}

impl Admission {
    /// Number of shard slots in the ring (slot indices are `0..count`).
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The current address of slot `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_addr(&self, shard: usize) -> SocketAddr {
        self.core.shards[shard].addr()
    }

    /// Re-points slot `shard` at `addr`, drops its stale connection pool,
    /// counts `cluster.respawn`, and records a structured
    /// `cluster.respawn` event in the router's lifetime registry.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn readmit(&self, shard: usize, addr: SocketAddr) {
        self.core.shards[shard].set_addr(addr);
        self.core.count("cluster.respawn", 1);
        self.core
            .lifetime
            .push_event("cluster.respawn", &format!("shard {shard} -> {addr}"));
    }
}

/// Mutex-serialized framed response sink (worker and reader writes must
/// never interleave bytes). Write failures mean the client went away; the
/// reader notices on its next read.
struct FrameWriter {
    w: Mutex<TcpStream>,
}

impl FrameWriter {
    fn send(&self, response: &str) {
        let mut w = self.w.lock().unwrap();
        let _ = write_frame(&mut *w, response.as_bytes());
    }
}

/// Handles one parsed-or-not request text on a reader thread: management
/// ops inline, routable work submitted to the pool.
fn dispatch(
    core: &Arc<Core>,
    pool: &PoolHandle,
    writer: &Arc<FrameWriter>,
    shutdown: &ShutdownFlag,
    text: &str,
) {
    core.count("serve.requests", 1);
    let parsed = Json::parse(text)
        .map_err(|e| (None, format!("invalid JSON: {e}")))
        .and_then(|v| Request::parse(&v));
    let req = match parsed {
        Ok(r) => r,
        Err((id, msg)) => {
            core.count("serve.errors", 1);
            writer.send(&error_response(id, "bad_request", &msg));
            return;
        }
    };
    match req {
        Request::Compile(c) => {
            // Route by the same key material the shard caches under, so
            // every repeat of a source lands on the shard whose LRU is
            // hot for it (ids are excluded by construction).
            let effective = c.budget.unwrap_or(core.cfg.default_budget);
            let hash = fingerprint(cache_key_material(&c, &effective).as_bytes());
            submit_route(core, pool, writer, hash, text.to_string(), c.id);
        }
        Request::Sleep { id, .. } => {
            // Load-testing aid: spread sleeps over the ring by raw text.
            let hash = fingerprint(text.as_bytes());
            submit_route(core, pool, writer, hash, text.to_string(), id);
        }
        Request::Stats { id, stable } => {
            writer.send(&assemble(
                id,
                &stats_payload(&core.lifetime.snapshot(), stable),
            ));
        }
        Request::Version { id } => {
            writer.send(&assemble(
                id,
                &format!(
                    "\"ok\":true,\"version\":{},\"protocol\":{},\"shards\":{}",
                    escape(VERSION),
                    escape(PROTOCOL),
                    core.shards.len()
                ),
            ));
        }
        Request::Ping { id } => writer.send(&assemble(id, "\"ok\":true,\"pong\":true")),
        Request::Shutdown { id } => {
            writer.send(&assemble(id, "\"ok\":true,\"shutting_down\":true"));
            shutdown.request();
        }
    }
}

fn submit_route(
    core: &Arc<Core>,
    pool: &PoolHandle,
    writer: &Arc<FrameWriter>,
    hash: u64,
    text: String,
    id: Option<u64>,
) {
    let core2 = Arc::clone(core);
    let wr = Arc::clone(writer);
    match pool.try_submit(move || {
        let resp = core2.route(hash, &text, id);
        wr.send(&resp);
    }) {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            core.count("serve.overloaded", 1);
            writer.send(&error_response(
                id,
                "overloaded",
                "router queue is full, retry later",
            ));
        }
        Err(SubmitError::Closed) => {
            writer.send(&error_response(id, "shutting_down", "router is draining"));
        }
    }
}

/// Reads frames off one client connection until EOF, resynchronizing
/// after oversized frames exactly like a single-node shard.
fn serve_connection(
    core: &Arc<Core>,
    pool: &PoolHandle,
    stream: TcpStream,
    shutdown: &ShutdownFlag,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(FrameWriter {
        w: Mutex::new(write_half),
    });
    let max_frame = core.cfg.max_frame;
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, max_frame) {
            Ok(Some(payload)) => {
                dispatch(core, pool, &writer, shutdown, &into_text(payload));
            }
            Ok(None) => break,
            Err(FrameError::TooLarge { declared }) => {
                core.count("serve.requests", 1);
                core.count("serve.errors", 1);
                writer.send(&error_response(
                    None,
                    "too_large",
                    &format!("declared frame of {declared} bytes exceeds {max_frame}"),
                ));
                if skip_payload(&mut reader, declared).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// A bound-but-not-yet-running cluster router.
pub struct Router {
    listener: TcpListener,
    core: Arc<Core>,
    shutdown: ShutdownFlag,
    repl_rx: Receiver<(usize, String)>,
}

impl Router {
    /// Binds `addr` and attaches the given shard addresses (which may be
    /// spawned processes, attached external servers, or in-process test
    /// servers — the router only ever sees their sockets).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; rejects an empty shard list.
    pub fn bind(addr: &str, shard_addrs: &[SocketAddr], cfg: ClusterConfig) -> io::Result<Router> {
        if shard_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let shutdown = ShutdownFlag::new();
        shutdown.set_wake_addr(listener.local_addr()?);
        let shards: Arc<Vec<Shard>> =
            Arc::new(shard_addrs.iter().map(|&a| Shard::new(a)).collect());
        let ring = Ring::new(shards.len(), cfg.vnodes);
        let (tx, rx) = std::sync::mpsc::sync_channel(REPLICATION_QUEUE);
        let hot = HotKeys::new(cfg.hot_window, cfg.hot_threshold, cfg.hot_capacity);
        Ok(Router {
            listener,
            core: Arc::new(Core {
                shards,
                ring,
                cfg,
                lifetime: Registry::new(),
                hot,
                repl_tx: Mutex::new(Some(tx)),
            }),
            shutdown,
            repl_rx: rx,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this router when requested.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// The router's lifetime stats registry (cluster counters).
    pub fn registry(&self) -> Registry {
        self.core.lifetime.clone()
    }

    /// A readmission handle for a shard supervisor (see
    /// [`super::supervise`]).
    pub fn admission(&self) -> Admission {
        Admission {
            core: Arc::clone(&self.core),
        }
    }

    /// Accepts and serves connections until shutdown, then drains: every
    /// accepted request is answered (forwarded or failed structurally)
    /// before `run` returns; the prober and replication worker are joined
    /// last.
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind (mirrors
    /// [`crate::server::Server::run`]).
    pub fn run(self) -> io::Result<()> {
        let core = self.core;
        let pool = Pool::new(core.cfg.jobs, core.cfg.queue_cap);
        let prober = spawn_prober(Arc::clone(&core), self.shutdown.clone());
        let repl = spawn_replicator(Arc::clone(&core), self.repl_rx);
        let conns: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.shutdown.is_set() {
                break;
            }
            let Ok(stream) = incoming else { continue };
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                conns.lock().unwrap().push(clone);
            }
            let core2 = Arc::clone(&core);
            let handle = pool.handle();
            let shutdown = self.shutdown.clone();
            threads.push(std::thread::spawn(move || {
                serve_connection(&core2, &handle, stream, &shutdown);
            }));
        }
        // Drain: every accepted forward still runs and its response is
        // written (client sockets are still open here).
        pool.shutdown();
        for s in conns.lock().unwrap().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for t in threads {
            let _ = t.join();
        }
        // Connection threads are joined: nothing can enqueue replication
        // work anymore. Dropping the sender lets the worker drain out.
        core.repl_tx.lock().unwrap().take();
        let _ = repl.join();
        let _ = prober.join();
        Ok(())
    }
}

/// Background liveness prober: pings every shard each interval with the
/// existing `ping` op and feeds the health machine.
fn spawn_prober(core: Arc<Core>, shutdown: ShutdownFlag) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut last = Instant::now() - core.cfg.check_interval;
        while !shutdown.is_set() {
            if last.elapsed() >= core.cfg.check_interval {
                last = Instant::now();
                for shard in core.shards.iter() {
                    let alive = shard.ping(core.cfg.connect_timeout, core.cfg.check_timeout);
                    let t = if alive {
                        shard.health.record_success(&core.cfg.health)
                    } else {
                        shard.health.record_failure(&core.cfg.health)
                    };
                    core.record_transition(t, shard);
                }
            }
            // Sleep in short slices so shutdown never waits a full
            // interval on the prober.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    })
}

/// Replication worker: forwards hot-key copies to their ring successor,
/// warming the replica's cache off the request path.
fn spawn_replicator(core: Arc<Core>, rx: Receiver<(usize, String)>) -> JoinHandle<()> {
    let shards = Arc::clone(&core.shards);
    std::thread::spawn(move || {
        while let Ok((idx, text)) = rx.recv() {
            let shard = &shards[idx];
            if shard
                .forward(&text, core.cfg.connect_timeout, core.cfg.io_timeout)
                .is_ok()
            {
                core.count("cluster.replicated", 1);
            }
        }
    })
}

/// A running router on its own thread (the test/bench entry point).
pub struct RouterHandle {
    addr: SocketAddr,
    lifetime: Registry,
    shutdown: ShutdownFlag,
    admission: Admission,
    thread: JoinHandle<io::Result<()>>,
}

impl RouterHandle {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's lifetime stats registry.
    pub fn registry(&self) -> &Registry {
        &self.lifetime
    }

    /// A readmission handle for a shard supervisor.
    pub fn admission(&self) -> Admission {
        self.admission.clone()
    }

    /// The router's shutdown flag (shared with supervisors so both wind
    /// down together).
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Requests shutdown and waits for the full drain.
    ///
    /// # Errors
    ///
    /// Propagates the router loop's error.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the router thread.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.request();
        self.thread.join().expect("router thread panicked")
    }
}

/// Binds `addr` and runs the router on a background thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_router(
    addr: &str,
    shard_addrs: &[SocketAddr],
    cfg: ClusterConfig,
) -> io::Result<RouterHandle> {
    let router = Router::bind(addr, shard_addrs, cfg)?;
    let addr = router.local_addr()?;
    let lifetime = router.registry();
    let shutdown = router.shutdown_flag();
    let admission = router.admission();
    let thread = std::thread::spawn(move || router.run());
    Ok(RouterHandle {
        addr,
        lifetime,
        shutdown,
        admission,
        thread,
    })
}
