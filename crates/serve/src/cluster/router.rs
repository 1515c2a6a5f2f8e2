//! The cluster router: a backend of the one listener in
//! [`crate::server`] — so it accepts the same framed protocol as a single
//! `gcomm-serve` shard through the same accept, dispatch and drain code —
//! that consistent-hashes each request's cache key to a shard and relays
//! request and response bytes verbatim. Only routing lives here.
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

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcomm_machine::fault::Rng64;
use gcomm_obs::{Registry, StatsReport};
use gcomm_query::fingerprint;

use crate::protocol::{cache_key_material, error_response, CompileReq};
use crate::server::{spawn_backend, Backend, Plan, ServerHandle, ShutdownFlag};

use super::health::Transition;
use super::ring::Ring;
use super::shard::{ForwardError, Shard};
use super::ClusterConfig;

/// Forwards queued ahead of the router's workers; submissions beyond it
/// get `overloaded` (a shard's own default).
const QUEUE_CAP: usize = 64;

/// Seed of the per-request backoff jitter stream, mixed with the key's
/// hash so the stream is deterministic per key.
const JITTER_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shared state of a running router. Opaque: a [`RouterHandle`] and an
/// [`Admission`] are the ways in.
pub struct Core {
    shards: Vec<Shard>,
    ring: Ring,
    cfg: ClusterConfig,
    lifetime: Registry,
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
        let mut rng = Rng64::new(JITTER_SEED ^ hash);
        let attempts = self.cfg.retry.attempts();
        for attempt in 1..=attempts {
            let target = self.choose(&order, attempt);
            let shard = &self.shards[target];
            if attempt > 1 {
                self.count("cluster.retry", 1);
            }
            match shard.forward(text) {
                Ok(resp) => {
                    self.record_transition(shard.health.record_success(&self.cfg.health), shard);
                    if target != order[0] {
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

/// The router behind the shared listener ([`crate::server`]): it answers
/// a compile or sleep by relaying it, on a pool worker, to the shard its
/// key hashes to; it counts straight into its registry (no per-request
/// reports, so nothing to sequence); and it keeps a prober alive for as
/// long as it accepts.
impl Backend for Core {
    type Ticket = ();
    /// `(ring hash, the request bytes to relay, the id a structured
    /// failure echoes)`.
    type Work = (u64, String, Option<u64>);

    fn admit(&self) {
        self.count("serve.requests", 1);
    }

    fn settle(&self, (): (), extra: &[(&'static str, u64)]) {
        for &(name, v) in extra {
            self.count(name, v);
        }
    }

    fn compile(&self, (): (), req: CompileReq, text: &str) -> Plan<Self::Work> {
        // Route by the same key material the shard caches under, so
        // every repeat of a source lands on the shard whose LRU is
        // hot for it (ids are excluded by construction).
        let effective = req.budget.unwrap_or(self.cfg.default_budget);
        let hash = fingerprint(cache_key_material(&req, &effective).as_bytes());
        Plan::Pooled((hash, text.to_string(), req.id))
    }

    fn sleep(&self, id: Option<u64>, _ms: u64, text: &str) -> Self::Work {
        // Load-testing aid: spread sleeps over the ring by raw text.
        (fingerprint(text.as_bytes()), text.to_string(), id)
    }

    fn run(&self, (): (), (hash, text, id): Self::Work) -> String {
        self.route(hash, &text, id)
    }

    fn stats(&self) -> StatsReport {
        self.lifetime.snapshot()
    }

    fn shards(&self) -> Option<usize> {
        Some(self.shards.len())
    }

    fn with_background(&self, shutdown: &ShutdownFlag, serve: impl FnOnce()) {
        std::thread::scope(|scope| {
            scope.spawn(|| self.probe(shutdown));
            serve();
        });
    }
}

impl Core {
    /// Background liveness prober: pings every shard each interval with
    /// the existing `ping` op and feeds the health machine.
    fn probe(&self, shutdown: &ShutdownFlag) {
        let mut last = Instant::now() - self.cfg.check_interval;
        while !shutdown.is_set() {
            if last.elapsed() >= self.cfg.check_interval {
                last = Instant::now();
                for shard in &self.shards {
                    let t = if shard.ping() {
                        shard.health.record_success(&self.cfg.health)
                    } else {
                        shard.health.record_failure(&self.cfg.health)
                    };
                    self.record_transition(t, shard);
                }
            }
            // Sleep in short slices so shutdown never waits a full
            // interval on the prober.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A running router on its own thread (the test entry point, and what
/// `gcommc cluster` waits on).
pub type RouterHandle = ServerHandle<Core>;

impl ServerHandle<Core> {
    /// The router's lifetime stats registry (cluster counters).
    pub fn registry(&self) -> &Registry {
        &self.backend.lifetime
    }

    /// A readmission handle for a shard supervisor (see
    /// [`super::supervise`]).
    pub fn admission(&self) -> Admission {
        Admission {
            core: Arc::clone(&self.backend),
        }
    }
}

/// Binds `addr` and runs a router over the given shard addresses (which
/// may be spawned processes, attached external servers, or in-process
/// test servers — the router only ever sees their sockets) on a
/// background thread.
///
/// # Errors
///
/// Propagates the bind failure; rejects an empty shard list.
pub fn spawn_router(
    addr: &str,
    shard_addrs: &[SocketAddr],
    cfg: ClusterConfig,
) -> io::Result<RouterHandle> {
    if shard_addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a cluster needs at least one shard",
        ));
    }
    spawn_backend(addr, cfg.jobs, QUEUE_CAP, || {
        Ok(Core {
            shards: shard_addrs.iter().map(|&a| Shard::new(a)).collect(),
            ring: Ring::new(shard_addrs.len(), cfg.vnodes),
            cfg,
            lifetime: Registry::new(),
        })
    })
}
