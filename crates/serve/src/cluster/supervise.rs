//! Shard supervision: respawn dead shard children and readmit them.
//!
//! Before this module the router's failure story ended at failover — a
//! dead shard was marked down and its keyspace served by ring replicas
//! forever, so every crash permanently shrank the cluster. The
//! supervisor closes the loop:
//!
//! 1. **Detect** — poll each owned [`ShardProc`] with a non-blocking
//!    `try_wait`; an exited child (crash, OOM-kill, SIGKILL chaos) is a
//!    respawn candidate.
//! 2. **Respawn** — re-run the exact original command line (same flags,
//!    same `--persist` directory) with wall-clock exponential backoff
//!    between failed attempts ([`RetryPolicy::backoff_wall`], the PR 1
//!    fault machinery pointed at `fork`/`exec`). The spawn handshake
//!    waits for the `serving on <addr>` banner, which a `--persist`
//!    shard prints only **after** its recovery scan completed — so a
//!    successfully respawned shard has already truncated torn records,
//!    quarantined corrupt ones, and warmed its cache from disk.
//! 3. **Probe** — one direct `ping` round-trip against the new address
//!    must answer `pong` before the shard is readmitted; a respawn that
//!    wedges after the banner never reaches the ring.
//! 4. **Readmit** — [`Admission::readmit`] re-points the shard's ring
//!    slot at the new ephemeral address, drops the stale connection
//!    pool, counts `cluster.respawn`, and records a structured event.
//!    The health machine still holds the last word: the slot stays
//!    down until the router's prober sees `up_threshold` consecutive
//!    successes against the *new* address.
//!
//! A respawn that fails all its attempts is retried on the next poll
//! cycle (the child is still observably dead), so a transient spawn
//! failure — fd exhaustion, a briefly missing binary — degrades to
//! failover, never to a supervisor exit.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcomm_machine::fault::{RetryPolicy, Rng64};

use crate::client::Client;
use crate::server::ShutdownFlag;

use super::proc::ShardProc;
use super::router::Admission;

/// Base of the wall-clock backoff between failed respawn attempts (the
/// attempt budget and curve are [`RetryPolicy::default`]).
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Hard cap on a single backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Connect/IO deadline on one readmission probe round-trip.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// Total time to keep probing a respawned shard before giving up on
/// this respawn (the next poll cycle starts over).
const PROBE_DEADLINE: Duration = Duration::from_secs(10);

/// Seed of the backoff jitter stream.
const JITTER_SEED: u64 = 0x5851_f42d_4c95_7f2d;

/// Tuning knobs of a shard supervisor.
#[derive(Debug, Clone)]
pub struct SupervisePolicy {
    /// Interval between child liveness polls.
    pub poll_interval: Duration,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// A running supervisor thread owning the shard children.
pub struct SupervisorHandle {
    thread: JoinHandle<Vec<ShardProc>>,
}

impl SupervisorHandle {
    /// Waits for the supervisor to observe the shutdown flag and returns
    /// the shard children (alive ones included) so the caller can drain
    /// and stop them. Does **not** set the flag itself — in `gcommc
    /// cluster` the flag is the router's, and the router's own exit
    /// winds the supervisor down.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the supervisor thread.
    pub fn join(self) -> Vec<ShardProc> {
        self.thread.join().expect("supervisor thread panicked")
    }
}

/// Spawns the supervision thread over `children`. Shard slot `i` of the
/// admission handle must correspond to `children[i]` (the order they
/// were passed to the router bind).
pub fn supervise(
    children: Vec<ShardProc>,
    admission: Admission,
    policy: SupervisePolicy,
    shutdown: ShutdownFlag,
) -> SupervisorHandle {
    let thread =
        std::thread::spawn(move || supervise_loop(children, &admission, &policy, &shutdown));
    SupervisorHandle { thread }
}

fn supervise_loop(
    mut children: Vec<ShardProc>,
    admission: &Admission,
    policy: &SupervisePolicy,
    shutdown: &ShutdownFlag,
) -> Vec<ShardProc> {
    let mut rng = Rng64::new(JITTER_SEED);
    while !shutdown.is_set() {
        for (i, child) in children.iter_mut().enumerate() {
            if !child.has_exited() || shutdown.is_set() {
                continue;
            }
            if let Some(addr) = respawn_with_backoff(i, child, &mut rng, shutdown) {
                // Banner implies the recovery scan completed; the probe
                // confirms the serve loop answers before readmission.
                if probe_until_pong(&addr, shutdown) {
                    admission.readmit(i, addr);
                } else {
                    eprintln!(
                        "gcomm-serve: supervisor: shard {i} respawned at {addr} \
                         but never answered a probe; will retry"
                    );
                }
            }
        }
        sleep_in_slices(policy.poll_interval, shutdown);
    }
    children
}

/// One respawn episode: up to the retry policy's attempt budget,
/// exponential wall-clock backoff between failures. `None` leaves the
/// child dead for the next poll cycle.
fn respawn_with_backoff(
    index: usize,
    child: &mut ShardProc,
    rng: &mut Rng64,
    shutdown: &ShutdownFlag,
) -> Option<SocketAddr> {
    let retry = RetryPolicy::default();
    let attempts = retry.attempts();
    for attempt in 1..=attempts {
        if shutdown.is_set() {
            return None;
        }
        match child.respawn() {
            Ok(addr) => return Some(addr),
            Err(e) => {
                eprintln!(
                    "gcomm-serve: supervisor: respawning shard {index} \
                     (attempt {attempt}/{attempts}): {e}"
                );
                if attempt < attempts {
                    std::thread::sleep(retry.backoff_wall(BACKOFF_BASE, BACKOFF_CAP, attempt, rng));
                }
            }
        }
    }
    None
}

/// Probes `addr` with the protocol's `ping` op until it answers `pong`
/// or the probe deadline expires.
fn probe_until_pong(addr: &SocketAddr, shutdown: &ShutdownFlag) -> bool {
    let deadline = Instant::now() + PROBE_DEADLINE;
    loop {
        if shutdown.is_set() {
            return false;
        }
        if Client::ping(addr, PROBE_TIMEOUT) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sleeps `total` in 20 ms slices so shutdown never waits a full poll
/// interval on the supervisor.
fn sleep_in_slices(total: Duration, shutdown: &ShutdownFlag) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shutdown.is_set() {
        std::thread::sleep(Duration::from_millis(20));
    }
}
