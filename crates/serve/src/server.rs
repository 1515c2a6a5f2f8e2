//! The transport layer, and the only one: a TCP accept loop
//! (length-delimited frames) and a stdio loop (NDJSON), both dispatching
//! into a [`Backend`] and one bounded [`Pool`]. The compile service
//! ([`Service`]) and the cluster router ([`crate::cluster::router`]) are
//! the two backends; everything below the seam — framing, request
//! parsing, management ops, backpressure, drain — exists once.
//!
//! ## Concurrency shape
//!
//! One reader thread per connection parses frames and **submits** compile
//! and sleep work to the worker pool; everything else (stats, version,
//! ping, shutdown, malformed input) is answered inline by the reader.
//! Responses are written under a per-connection writer mutex, so worker
//! and reader writes never interleave bytes. Responses to pooled requests
//! may arrive out of submission order — that is what request ids are for.
//! A connection that ends takes its thread and its descriptors with it;
//! the listener holds state only for connections that are live.
//!
//! ## Backpressure
//!
//! The pool queue is bounded; a submission finding it full is answered
//! with an `overloaded` error immediately. The server never buffers
//! requests beyond the queue capacity.
//!
//! ## Drain and shutdown
//!
//! A `shutdown` request (or [`ShutdownFlag::request`], which the `gcommc`
//! binary wires to SIGINT/SIGTERM) makes the accept loop stop — it is
//! woken by a loopback connection — after which the pool is drained
//! (**every accepted job still runs and its response is written**), the
//! live connections' sockets are shut down to unblock their readers, and
//! all threads — the backend's background threads last — are joined
//! before [`ServerHandle::wait`] returns.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

use gcomm_obs::StatsReport;
use gcomm_par::{Pool, PoolHandle, SubmitError};

use crate::frame::{
    into_text, read_frame, read_line_capped, skip_payload, write_frame, FrameError, Line,
    DEFAULT_MAX_FRAME,
};
use crate::json::{escape, Json};
use crate::protocol::{assemble, error_response, CompileReq, Request, PROTOCOL};
use crate::service::{stats_payload, Service, ServiceConfig};
use crate::VERSION;

/// A clonable request-to-stop handle shared by the accept loop, the
/// connection threads, and (in the binary) the signal watcher.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    flag: Arc<AtomicBool>,
    /// When serving TCP, the listener's address: setting the flag also
    /// makes a loopback connection so a blocked `accept` observes it.
    wake_addr: Arc<Mutex<Option<SocketAddr>>>,
}

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Requests shutdown: sets the flag and wakes a blocked accept loop.
    /// Idempotent.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let addr = *self.wake_addr.lock().unwrap();
        if let Some(addr) = addr {
            // The accepted-and-dropped connection exists only to return
            // control to the accept loop, which re-checks the flag.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// True once shutdown has been requested.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    pub(crate) fn set_wake_addr(&self, addr: SocketAddr) {
        *self.wake_addr.lock().unwrap() = Some(addr);
    }
}

/// How responses are delimited on the wire.
enum Framing {
    /// 4-byte big-endian length prefix (TCP).
    Frames,
    /// One JSON object per line (stdio).
    Lines,
}

/// A shared, mutex-serialized response sink. Write failures are swallowed:
/// they mean the peer went away, and the reader side of the connection
/// will notice on its next read.
struct ResponseWriter {
    framing: Framing,
    w: Mutex<Box<dyn Write + Send>>,
}

impl ResponseWriter {
    fn send(&self, response: &str) {
        let mut w = self.w.lock().unwrap();
        let _ = match self.framing {
            Framing::Frames => write_frame(&mut *w, response.as_bytes()),
            Framing::Lines => writeln!(w, "{response}").and_then(|()| w.flush()),
        };
    }
}

/// What differs between the servers behind the listener, and nothing
/// else: how a `compile` / `sleep` is answered, how a request's counters
/// reach the lifetime registry, the extra field of `version`, and the
/// threads that live as long as the listener does.
pub(crate) trait Backend: Send + Sync + 'static {
    /// What a request carries from arrival to completion so that its
    /// counters can reach the lifetime registry.
    type Ticket: Copy + Send + 'static;
    /// A compile or sleep, prepared on the reader thread for a pool worker.
    type Work: Send + 'static;

    /// Called once per request (malformed ones included) as it arrives.
    /// The ticket is then completed exactly once: by [`Backend::settle`],
    /// by an inline [`Backend::compile`] answer, or by [`Backend::run`] —
    /// and by `settle` when the pool refuses the work `run` was meant for.
    fn admit(&self) -> Self::Ticket;

    /// Completes a request the transport answers itself, counting
    /// `serve.requests` and `extra`.
    fn settle(&self, ticket: Self::Ticket, extra: &[(&'static str, u64)]);

    /// The reader-thread half of a compile (`text` is the request as
    /// received): answer now, or hand the rest to a pool worker.
    fn compile(&self, ticket: Self::Ticket, req: CompileReq, text: &str) -> Plan<Self::Work>;

    /// The reader-thread half of a `sleep` (never answered inline).
    fn sleep(&self, id: Option<u64>, ms: u64, text: &str) -> Self::Work;

    /// The pool-worker half: does the work and returns the response.
    fn run(&self, ticket: Self::Ticket, work: Self::Work) -> String;

    /// The lifetime registry, for a `stats` request.
    fn stats(&self) -> StatsReport;

    /// `Some(n)` adds `"shards":n` to the `version` response.
    fn shards(&self) -> Option<usize> {
        None
    }

    /// Runs `serve` — the accept loop through the end of the drain — with
    /// this backend's background threads alive around it.
    fn with_background(&self, _shutdown: &ShutdownFlag, serve: impl FnOnce()) {
        serve();
    }
}

/// What [`Backend::compile`] decided on the reader thread.
pub(crate) enum Plan<W> {
    /// The complete response; the ticket is already completed.
    Answered(String),
    /// Work for [`Backend::run`] on a pool worker.
    Pooled(W),
}

/// Handles one request text: parses it, answers management ops inline,
/// and submits compile/sleep work to the pool. Never panics on malformed
/// input — every failure becomes an error response on `writer`.
fn dispatch<B: Backend>(
    backend: &Arc<B>,
    pool: &PoolHandle,
    writer: &Arc<ResponseWriter>,
    shutdown: &ShutdownFlag,
    text: &str,
) {
    let ticket = backend.admit();
    let parsed = Json::parse(text)
        .map_err(|e| (None, format!("invalid JSON: {e}")))
        .and_then(|v| Request::parse(&v));
    let (id, work) = match parsed {
        Err((id, msg)) => {
            backend.settle(ticket, &[("serve.errors", 1)]);
            writer.send(&error_response(id, "bad_request", &msg));
            return;
        }
        Ok(Request::Compile(c)) => {
            let id = c.id;
            match backend.compile(ticket, c, text) {
                Plan::Answered(resp) => {
                    writer.send(&resp);
                    return;
                }
                Plan::Pooled(work) => (id, work),
            }
        }
        Ok(Request::Sleep { id, ms }) => (id, backend.sleep(id, ms, text)),
        Ok(Request::Stats { id, stable }) => {
            // Settle our own ticket first so a stats request issued after
            // a set of *completed* requests observes all of them (plus
            // itself); stats racing in-flight compiles see only what has
            // drained, by design.
            backend.settle(ticket, &[]);
            writer.send(&assemble(id, &stats_payload(&backend.stats(), stable)));
            return;
        }
        Ok(Request::Version { id }) => {
            backend.settle(ticket, &[]);
            let mut payload = format!(
                "\"ok\":true,\"version\":{},\"protocol\":{}",
                escape(VERSION),
                escape(PROTOCOL)
            );
            if let Some(n) = backend.shards() {
                let _ = write!(payload, ",\"shards\":{n}");
            }
            writer.send(&assemble(id, &payload));
            return;
        }
        Ok(Request::Ping { id }) => {
            backend.settle(ticket, &[]);
            writer.send(&assemble(id, "\"ok\":true,\"pong\":true"));
            return;
        }
        Ok(Request::Shutdown { id }) => {
            backend.settle(ticket, &[]);
            writer.send(&assemble(id, "\"ok\":true,\"shutting_down\":true"));
            shutdown.request();
            return;
        }
    };
    let (worker, wr) = (Arc::clone(backend), Arc::clone(writer));
    // A refused job is dropped unrun, so its ticket is settled here: the
    // backend never waits on a request the pool did not take.
    match pool.try_submit(move || wr.send(&worker.run(ticket, work))) {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            backend.settle(ticket, &[("serve.overloaded", 1)]);
            writer.send(&error_response(
                id,
                "overloaded",
                "request queue is full, retry later",
            ));
        }
        Err(SubmitError::Closed) => {
            backend.settle(ticket, &[]);
            writer.send(&error_response(id, "shutting_down", "server is draining"));
        }
    }
}

/// Answers a frame or line over [`DEFAULT_MAX_FRAME`], which never
/// reaches [`dispatch`] but counts as a (failed) request all the same.
fn reject_too_large<B: Backend>(backend: &Arc<B>, writer: &ResponseWriter, message: &str) {
    let ticket = backend.admit();
    backend.settle(ticket, &[("serve.errors", 1)]);
    writer.send(&error_response(None, "too_large", message));
}

/// Reads frames off one TCP connection until EOF, a fatal frame error, or
/// socket shutdown. Oversized frames are rejected *and resynchronized*;
/// garbage JSON is rejected per-frame; the loop itself never panics and
/// never exits on a malformed request.
fn serve_connection<B: Backend>(
    backend: &Arc<B>,
    pool: &PoolHandle,
    stream: TcpStream,
    shutdown: &ShutdownFlag,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ResponseWriter {
        framing: Framing::Frames,
        w: Mutex::new(Box::new(write_half)),
    });
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(payload)) => {
                dispatch(backend, pool, &writer, shutdown, &into_text(payload));
            }
            Ok(None) => break,
            Err(FrameError::TooLarge { declared }) => {
                reject_too_large(
                    backend,
                    &writer,
                    &format!("declared frame of {declared} bytes exceeds {DEFAULT_MAX_FRAME}"),
                );
                if skip_payload(&mut reader, declared).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// How long the accept loop waits after a failed `accept`. The failure
/// that lasts is descriptor exhaustion, which ends when some connection
/// does — retrying at once would only spin until then.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Accepts and serves connections until shutdown is requested, then
/// drains and joins everything (see the module docs).
fn run<B: Backend>(listener: &TcpListener, backend: &Arc<B>, shutdown: &ShutdownFlag, pool: Pool) {
    // A duplicate of every *live* connection's socket, so the drain can
    // unblock its reader. A connection that ends removes its own entry:
    // the listener's descriptors track open connections, not accepted ones.
    let conns: Mutex<HashMap<usize, TcpStream>> = Mutex::new(HashMap::new());
    backend.with_background(shutdown, || {
        // Scoped, so the readers borrow the listener's state. They are
        // still joined by hand — an ended one at the next accept, the rest
        // after the drain — because a thread the scope merely waits for is
        // detached, and a detached thread gives its stack and allocator
        // arena back on its own time, not before `run` returns.
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for (n, incoming) in listener.incoming().enumerate() {
                if shutdown.is_set() {
                    break;
                }
                for ended in readers.extract_if(.., |r: &mut ScopedJoinHandle<_>| r.is_finished()) {
                    let _ = ended.join();
                }
                let Ok(stream) = incoming else {
                    std::thread::sleep(ACCEPT_RETRY);
                    continue;
                };
                // Responses must not sit in Nagle's buffer waiting for an ACK.
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().unwrap().insert(n, clone);
                }
                let (handle, conns) = (pool.handle(), &conns);
                readers.push(scope.spawn(move || {
                    serve_connection(backend, &handle, stream, shutdown);
                    conns.lock().unwrap().remove(&n);
                }));
            }
            // Drain: every job accepted before the close still runs and its
            // response is written (the sockets are still open here).
            pool.shutdown();
            // Unblock any reader still waiting on its socket, then join.
            for s in conns.lock().unwrap().values() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            for reader in readers {
                let _ = reader.join();
            }
        });
    });
}

/// A running server on its own thread: the compile service by default,
/// the cluster router as [`crate::cluster::RouterHandle`].
pub struct ServerHandle<B = Service> {
    addr: SocketAddr,
    pub(crate) backend: Arc<B>,
    shutdown: ShutdownFlag,
    thread: JoinHandle<()>,
}

impl<B> ServerHandle<B> {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that stops this server when requested (the `gcommc` binary
    /// hands it to the signal watcher, the cluster to its supervisor).
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Waits until something requests shutdown — a `shutdown` op, a
    /// signal, [`ShutdownFlag::request`] — and the drain completes.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the server thread.
    pub fn wait(self) {
        self.thread.join().expect("server thread panicked");
    }

    /// Requests shutdown and waits for the full drain.
    ///
    /// # Errors
    ///
    /// None today: after a successful bind the accept loop has no fatal
    /// failure. The `io::Result` is what callers already check, and leaves
    /// room for one to surface.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the server thread.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.request();
        self.wait();
        Ok(())
    }
}

impl ServerHandle {
    /// The shared service state (cache, lifetime stats).
    pub fn service(&self) -> &Arc<Service> {
        &self.backend
    }
}

/// Binds `addr` (e.g. `127.0.0.1:7070`, port 0 for ephemeral), then builds
/// the backend — in that order, so whatever `backend` opens (a persisting
/// [`Service`] scans and repairs its log) is opened behind a port no second
/// instance can hold — and serves it on a background thread behind a pool
/// of `jobs` workers and `queue_cap` waiting jobs.
pub(crate) fn spawn_backend<B: Backend>(
    addr: &str,
    jobs: usize,
    queue_cap: usize,
    backend: impl FnOnce() -> io::Result<B>,
) -> io::Result<ServerHandle<B>> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = ShutdownFlag::new();
    shutdown.set_wake_addr(addr);
    let backend = Arc::new(backend()?);
    let thread = {
        let (backend, shutdown) = (Arc::clone(&backend), shutdown.clone());
        std::thread::spawn(move || {
            run(&listener, &backend, &shutdown, Pool::new(jobs, queue_cap));
        })
    };
    Ok(ServerHandle {
        addr,
        backend,
        shutdown,
        thread,
    })
}

/// Binds `addr` and runs the compile service on a background thread. When
/// the config persists, the recovery scan runs here — a server whose
/// `spawn` returned has finished warming from disk.
///
/// # Errors
///
/// Propagates the bind failure or a persistent-cache recovery error.
pub fn spawn(addr: &str, config: ServiceConfig) -> io::Result<ServerHandle> {
    spawn_backend(addr, config.jobs, config.queue_cap, || {
        Service::open(config)
    })
}

/// Serves NDJSON requests from `input` until EOF or a `shutdown` request
/// (or `shutdown` being set externally — checked between lines), then
/// drains the pool. This is `gcommc serve` without `--addr`, and the form
/// the CI smoke job scripts.
///
/// # Errors
///
/// Propagates read failures on `input`.
pub fn serve_lines(
    svc: &Arc<Service>,
    input: &mut impl BufRead,
    output: Box<dyn Write + Send>,
    shutdown: &ShutdownFlag,
) -> io::Result<()> {
    let pool = Pool::new(svc.config().jobs, svc.config().queue_cap);
    let handle = pool.handle();
    let writer = Arc::new(ResponseWriter {
        framing: Framing::Lines,
        w: Mutex::new(output),
    });
    while !shutdown.is_set() {
        match read_line_capped(input, DEFAULT_MAX_FRAME)? {
            None => break,
            Some(Line::TooLong) => reject_too_large(
                svc,
                &writer,
                &format!("line exceeds {DEFAULT_MAX_FRAME} bytes"),
            ),
            Some(Line::Text(text)) => {
                if text.trim().is_empty() {
                    continue;
                }
                dispatch(svc, &handle, &writer, shutdown, &text);
            }
        }
    }
    pool.shutdown();
    Ok(())
}

/// SIGINT/SIGTERM wiring for the `gcommc serve` binary: a C `signal`
/// handler that only stores a flag, plus a watcher thread that forwards
/// it to a [`ShutdownFlag`]. Nothing here runs unless [`signal::install`]
/// is called, so tests and library users are unaffected.
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::ShutdownFlag;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: a single atomic store.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT and SIGTERM handlers (process-wide).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: registering an async-signal-safe handler via the libc
        // `signal` entry point; the handler only stores an atomic.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// True once a handled signal arrived.
    pub fn received() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    /// Spawns a detached watcher that forwards the first handled signal
    /// to `flag` (and exits once `flag` is set by anyone).
    pub fn watch(flag: ShutdownFlag) {
        std::thread::spawn(move || loop {
            if received() {
                flag.request();
                return;
            }
            if flag.is_set() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::cluster::{spawn_router, ClusterConfig};

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        }
    }

    /// Runs `session` against a listener's address once per backend — the
    /// compile service, then a router over one shard (the flag is true
    /// for the router) — and returns what each run returned.
    fn over_both_backends<T>(session: impl Fn(SocketAddr, bool) -> T) -> [T; 2] {
        let server = spawn("127.0.0.1:0", test_config()).unwrap();
        let direct = session(server.addr(), false);
        server.stop().unwrap();

        let shard = spawn("127.0.0.1:0", test_config()).unwrap();
        let router =
            spawn_router("127.0.0.1:0", &[shard.addr()], ClusterConfig::default()).unwrap();
        let routed = session(router.addr(), true);
        router.stop().unwrap();
        shard.stop().unwrap();
        [direct, routed]
    }

    #[test]
    fn tcp_roundtrip_ping_version_shutdown() {
        over_both_backends(|addr, routed| {
            let mut client = Client::connect(addr).unwrap();
            assert_eq!(
                client.request(r#"{"op":"ping","id":1}"#).unwrap(),
                r#"{"id":1,"ok":true,"pong":true}"#
            );
            // Identical but for the router's extra field.
            let shards = if routed { ",\"shards\":1" } else { "" };
            assert_eq!(
                client.request(r#"{"op":"version","id":2}"#).unwrap(),
                format!(
                    "{{\"id\":2,\"ok\":true,\"version\":\"{VERSION}\",\
                     \"protocol\":\"{PROTOCOL}\"{shards}}}"
                )
            );
            assert_eq!(
                client.request(r#"{"op":"shutdown","id":3}"#).unwrap(),
                r#"{"id":3,"ok":true,"shutting_down":true}"#
            );
        });
    }

    #[test]
    fn malformed_frames_do_not_kill_the_connection() {
        let [direct, routed] = over_both_backends(|addr, _| {
            let mut client = Client::connect(addr).unwrap();
            let mut got = Vec::new();
            // Garbage JSON.
            let resp = client.request("{not json").unwrap();
            assert!(resp.contains("\"error\":\"bad_request\""));
            got.push(resp);
            // Not an object.
            let resp = client.request("[1,2,3]").unwrap();
            assert!(resp.contains("\"error\":\"bad_request\""));
            got.push(resp);
            // Unknown op with an id — the id is echoed.
            let resp = client.request(r#"{"op":"frobnicate","id":7}"#).unwrap();
            assert!(resp.starts_with(r#"{"id":7,"#), "{resp}");
            got.push(resp);
            // An oversized frame: declared > max. The server rejects it,
            // skips the payload, and the connection still works.
            let huge = vec![b'x'; DEFAULT_MAX_FRAME + 1];
            client
                .send_raw(&u32::try_from(huge.len()).unwrap().to_be_bytes())
                .unwrap();
            client.send_raw(&huge).unwrap();
            let resp = client.recv().unwrap().unwrap();
            assert!(resp.contains("\"error\":\"too_large\""), "{resp}");
            got.push(resp);
            // The stream resynchronized.
            assert_eq!(
                client.request(r#"{"op":"ping","id":9}"#).unwrap(),
                r#"{"id":9,"ok":true,"pong":true}"#
            );
            // Four failed requests and a ping, and the stats request itself.
            let stats = client
                .request(r#"{"op":"stats","id":10,"stable":true}"#)
                .unwrap();
            assert!(stats.contains("\"serve.errors\":4"), "{stats}");
            assert!(stats.contains("\"serve.requests\":6"), "{stats}");
            got
        });
        assert_eq!(direct, routed, "one transport, one answer");
    }

    #[test]
    fn lines_transport_serves_a_script() {
        let svc = Arc::new(Service::new(test_config()));
        let script = concat!(
            r#"{"op":"ping","id":1}"#,
            "\n\n", // blank lines are skipped
            r#"{"op":"stats","id":2,"stable":true}"#,
            "\n",
            r#"{"op":"shutdown","id":3}"#,
            "\n",
            r#"{"op":"ping","id":4}"#, // never read: shutdown stops the loop
            "\n",
        );
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut input = io::Cursor::new(script.as_bytes().to_vec());
        serve_lines(
            &svc,
            &mut input,
            Box::new(Sink(Arc::clone(&out))),
            &ShutdownFlag::new(),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], r#"{"id":1,"ok":true,"pong":true}"#);
        // The ping plus the stats request itself have both drained.
        assert!(lines[1].contains("\"serve.requests\":2"), "{}", lines[1]);
        assert_eq!(lines[2], r#"{"id":3,"ok":true,"shutting_down":true}"#);
    }
}
