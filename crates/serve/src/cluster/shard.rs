//! One shard as seen by the router: its address, shared health state, and
//! a small pool of framed connections with hard read/write deadlines.
//!
//! Every socket the router opens toward a shard carries
//! `set_read_timeout`/`set_write_timeout` deadlines, so a hung shard can
//! never hang a router worker — the worst case is one deadline, after
//! which the failure feeds the health machine and the retry path.
//!
//! Forwarding is verbatim: the router writes the client's request bytes
//! and relays the shard's response bytes untouched. That is the whole
//! bit-identity argument — the cluster cannot alter a payload it never
//! re-renders (and cached payloads already exclude request ids).

use std::fmt;
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use crate::client::Client;

use super::health::HealthCell;

/// Why a forward failed. Every variant is retryable on a replica.
#[derive(Debug)]
pub enum ForwardError {
    /// Could not connect (refused, unreachable, connect deadline).
    Connect(io::Error),
    /// The connection died mid-frame or at an unexpected boundary — the
    /// peer was killed or dropped us. Counted as `cluster.conn_lost`.
    ConnLost,
    /// A read/write deadline expired (the shard is up but stalled).
    TimedOut,
    /// Any other transport failure.
    Io(io::Error),
}

impl fmt::Display for ForwardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwardError::Connect(e) => write!(f, "connect failed: {e}"),
            ForwardError::ConnLost => write!(f, "connection lost"),
            ForwardError::TimedOut => write!(f, "deadline expired"),
            ForwardError::Io(e) => write!(f, "{e}"),
        }
    }
}

fn classify(e: io::Error) -> ForwardError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => ForwardError::TimedOut,
        ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::BrokenPipe
        | ErrorKind::UnexpectedEof => ForwardError::ConnLost,
        _ => ForwardError::Io(e),
    }
}

/// Router-side handle to one shard process.
///
/// The address is interior-mutable: when a supervisor respawns a dead
/// shard process, the replacement binds a fresh ephemeral port and the
/// router re-points this slot at it ([`Shard::set_addr`]) without
/// touching the ring — slot index, not address, is the ring identity.
#[derive(Debug)]
pub struct Shard {
    /// The shard's serve address (swapped on respawn).
    addr: Mutex<SocketAddr>,
    /// Shared up/down state (probe + forward outcomes feed it).
    pub health: HealthCell,
    /// Idle framed connections, deadline-armed, reused across requests.
    idle: Mutex<Vec<Client>>,
}

/// Idle connections kept per shard; beyond this they are closed instead
/// of pooled.
const POOL_CAP: usize = 8;

/// Connect deadline on router→shard sockets.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Read/write deadline on router→shard sockets. Above the 10s sleep-op
/// cap, so a worst-case parked worker still answers within the deadline
/// instead of tripping it.
const IO_TIMEOUT: Duration = Duration::from_secs(15);

/// Deadline on one health probe (its connect, and each read and write).
const CHECK_TIMEOUT: Duration = Duration::from_secs(1);

impl Shard {
    /// A shard handle with an empty connection pool.
    pub fn new(addr: SocketAddr) -> Shard {
        Shard {
            addr: Mutex::new(addr),
            health: HealthCell::default(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The shard's current serve address.
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().unwrap()
    }

    /// Re-points this slot at a respawned process. Pooled connections to
    /// the old address are stale by definition and dropped.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().unwrap() = addr;
        self.drop_idle();
    }

    fn connect(&self) -> Result<Client, ForwardError> {
        let mut c = Client::connect_timeout(&self.addr(), CONNECT_TIMEOUT)
            .map_err(ForwardError::Connect)?;
        c.set_io_timeout(Some(IO_TIMEOUT))
            .map_err(ForwardError::Io)?;
        Ok(c)
    }

    fn checkout(&self) -> Result<(Client, bool), ForwardError> {
        if let Some(c) = self.idle.lock().unwrap().pop() {
            return Ok((c, true));
        }
        self.connect().map(|c| (c, false))
    }

    fn checkin(&self, c: Client) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < POOL_CAP {
            idle.push(c);
        }
    }

    /// Drops every pooled connection (used when the shard is marked down
    /// so recovery starts from fresh sockets).
    pub fn drop_idle(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// Sends one request verbatim and returns the shard's response bytes
    /// verbatim. A failure on a *reused* pooled connection (the shard may
    /// have closed it while idle) is transparently retried once on a
    /// fresh socket — requests are idempotent (compiles are pure), so the
    /// single resend cannot duplicate work observably.
    ///
    /// # Errors
    ///
    /// A classified [`ForwardError`]; the failed connection is dropped,
    /// never pooled again.
    pub fn forward(&self, text: &str) -> Result<String, ForwardError> {
        let (mut client, reused) = self.checkout()?;
        match Self::roundtrip(&mut client, text) {
            Ok(resp) => {
                self.checkin(client);
                Ok(resp)
            }
            Err(_) if reused => {
                // The pooled socket was stale; one fresh attempt.
                let mut fresh = self.connect()?;
                let resp = Self::roundtrip(&mut fresh, text)?;
                self.checkin(fresh);
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }

    fn roundtrip(client: &mut Client, text: &str) -> Result<String, ForwardError> {
        client.send(text).map_err(classify)?;
        match client.recv() {
            Ok(Some(resp)) => Ok(resp),
            // EOF at a frame boundary after a request was sent still means
            // the peer abandoned this request.
            Ok(None) => Err(ForwardError::ConnLost),
            Err(e) => Err(classify(e)),
        }
    }

    /// Liveness probe: one `ping` round-trip on a fresh socket (never a
    /// pooled one — the probe must test the shard, not our cache of it).
    pub fn ping(&self) -> bool {
        Client::ping(&self.addr(), CHECK_TIMEOUT)
    }
}
