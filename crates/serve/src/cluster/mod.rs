//! # gcomm-cluster — sharded compile service with failover (DESIGN.md §13)
//!
//! One cache per `gcomm-serve` process stops paying off when the working
//! set outgrows a single LRU or a single process pins its cores. This
//! module shards the service: a **router** accepts the unchanged
//! `gcomm-serve/v1` protocol and consistent-hashes each request's
//! content-addressed cache key ([`crate::protocol::cache_key_material`],
//! the same material, under the same hasher, as the shard cache) onto N independent
//! shard processes, so every repeat of a source lands on the shard whose
//! cache is warm for it.
//!
//! The robustness machinery around that one idea:
//!
//! * [`ring`] — the consistent-hash ring (virtual nodes; removal moves
//!   only the dead shard's keys) and the replica order (next distinct
//!   shard on the ring).
//! * [`health`] — a failure-threshold state machine per shard, fed by a
//!   background `ping` prober and by forwarding outcomes.
//! * [`shard`] — deadline-armed pooled connections and verbatim
//!   request/response relay (the bit-identity guarantee: the router never
//!   re-renders a payload, and payloads are pure functions of the key).
//! * [`router`] — the routing backend of the crate's one listener
//!   ([`crate::server`] accepts, parses, answers management ops, sheds
//!   load and drains for it): retry with wall-clock exponential backoff
//!   ([`gcomm_machine::fault::RetryPolicy`] pointed at real sockets),
//!   failover to replicas, and a structured `unavailable` error when
//!   everything failed — never a hang, never a partial frame.
//! * [`proc`] — shard child-process management for `gcommc cluster`
//!   (spawn, address handshake, graceful shutdown, kill, respawn).
//! * [`supervise`] — the respawn loop (DESIGN.md §15): a dead child is
//!   relaunched with backoff on its original command line (same
//!   `--persist` directory, so it warms from its own log), probed, and
//!   readmitted to its ring slot via [`router::Admission`].

use std::time::Duration;

use gcomm_guard::BudgetSpec;
use gcomm_machine::fault::RetryPolicy;

pub mod health;
pub mod proc;
pub mod ring;
pub mod router;
pub mod shard;
pub mod supervise;

pub use health::{HealthCell, HealthPolicy, Transition};
pub use proc::ShardProc;
pub use ring::Ring;
pub use router::{spawn_router, Admission, RouterHandle};
pub use shard::{ForwardError, Shard};
pub use supervise::{supervise, SupervisePolicy, SupervisorHandle};

/// Tuning knobs of a cluster router: the values something sets. What only
/// ever took its default (queue depth, socket and probe deadlines, jitter
/// seed) is a constant beside its one use.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Extra ring successors a request may fail over to. `1` means
    /// primary + one replica.
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Router worker threads forwarding requests.
    pub jobs: usize,
    /// Budget assumed for compile requests without one — **must match the
    /// shards' default budget** so the router hashes the same key material
    /// the shard caches under.
    pub default_budget: BudgetSpec,
    /// Retry curve (attempt count, exponential backoff shape).
    pub retry: RetryPolicy,
    /// Base of the wall-clock backoff between attempts.
    pub retry_base: Duration,
    /// Hard cap on a single backoff sleep.
    pub retry_cap: Duration,
    /// Interval between background health probes.
    pub check_interval: Duration,
    /// Up/down thresholds of the health state machine.
    pub health: HealthPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 1,
            vnodes: 64,
            jobs: gcomm_par::default_jobs(),
            default_budget: BudgetSpec::default(),
            retry: RetryPolicy::default(),
            retry_base: Duration::from_millis(25),
            retry_cap: Duration::from_secs(1),
            check_interval: Duration::from_millis(150),
            health: HealthPolicy::default(),
        }
    }
}
