//! The transport layer: a TCP accept loop (length-delimited frames) and a
//! stdio loop (NDJSON), both dispatching into one [`Service`] and one
//! bounded [`Pool`].
//!
//! ## Concurrency shape
//!
//! One reader thread per connection parses frames and **submits** compile
//! and sleep work to the worker pool; everything else (stats, version,
//! ping, shutdown, malformed input) is answered inline by the reader.
//! Responses are written under a per-connection writer mutex, so worker
//! and reader writes never interleave bytes. Responses to pooled requests
//! may arrive out of submission order — that is what request ids are for.
//!
//! ## Backpressure
//!
//! The pool queue is bounded; a submission finding it full is answered
//! with an `overloaded` error immediately. The server never buffers
//! requests beyond the queue capacity.
//!
//! ## Drain and shutdown
//!
//! A `shutdown` request (or [`ShutdownFlag::request`], which the `gcommc
//! serve` binary wires to SIGINT/SIGTERM) makes the accept loop stop —
//! it is woken by a loopback connection — after which the pool is drained
//! (**every accepted job still runs and its response is written**), the
//! connection sockets are shut down to unblock their readers, and all
//! threads are joined before [`Server::run`] returns.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gcomm_par::{Pool, PoolHandle, SubmitError};

use crate::frame::{
    into_text, read_frame, read_line_capped, skip_payload, write_frame, FrameError, Line,
};
use crate::json::{escape, Json};
use crate::protocol::{assemble, error_response, Request, PROTOCOL};
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

/// Handles one request text: parses it, answers management ops inline,
/// and submits compile/sleep work to the pool. Never panics on malformed
/// input — every failure becomes an error response on `writer`.
fn dispatch(
    svc: &Arc<Service>,
    pool: &PoolHandle,
    writer: &Arc<ResponseWriter>,
    shutdown: &ShutdownFlag,
    text: &str,
) {
    let seq = svc.begin();
    let parsed = Json::parse(text)
        .map_err(|e| (None, format!("invalid JSON: {e}")))
        .and_then(|v| Request::parse(&v));
    let req = match parsed {
        Ok(r) => r,
        Err((id, msg)) => {
            svc.finish(
                seq,
                svc.counter_report(&[("serve.requests", 1), ("serve.errors", 1)]),
            );
            writer.send(&error_response(id, "bad_request", &msg));
            return;
        }
    };
    match req {
        Request::Compile(c) => {
            // Cache hits are answered inline by the reader: no worker
            // slot, no queue capacity, no backpressure — a warm request
            // costs a hash and a map probe even when the pool is busy.
            // The key is hashed once; the pooled compile inherits it.
            let key = svc.cache_key(&c);
            if let Some((resp, report)) = key.as_ref().and_then(|k| svc.cached(c.id, k)) {
                svc.finish(seq, report);
                writer.send(&resp);
                return;
            }
            let id = c.id;
            let svc2 = Arc::clone(svc);
            let wr = Arc::clone(writer);
            let submitted = pool.try_submit(move || {
                let (resp, report) = svc2.compile_keyed(&c, key);
                svc2.finish(seq, report);
                wr.send(&resp);
            });
            reject_if_failed(svc, writer, seq, id, submitted);
        }
        Request::Sleep { id, ms } => {
            let svc2 = Arc::clone(svc);
            let wr = Arc::clone(writer);
            let submitted = pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(ms));
                svc2.finish(seq, svc2.counter_report(&[("serve.requests", 1)]));
                wr.send(&assemble(id, &format!("\"ok\":true,\"slept_ms\":{ms}")));
            });
            reject_if_failed(svc, writer, seq, id, submitted);
        }
        Request::Stats { id, stable } => {
            // Finish our own sequence number first so a stats request
            // issued after a set of *completed* requests observes all of
            // them (plus itself); stats racing in-flight compiles see
            // only what has drained, by design.
            svc.finish(seq, svc.counter_report(&[("serve.requests", 1)]));
            writer.send(&assemble(
                id,
                &stats_payload(&svc.lifetime_report(), stable),
            ));
        }
        Request::Version { id } => {
            svc.finish(seq, svc.counter_report(&[("serve.requests", 1)]));
            writer.send(&assemble(
                id,
                &format!(
                    "\"ok\":true,\"version\":{},\"protocol\":{}",
                    escape(VERSION),
                    escape(PROTOCOL)
                ),
            ));
        }
        Request::Ping { id } => {
            svc.finish(seq, svc.counter_report(&[("serve.requests", 1)]));
            writer.send(&assemble(id, "\"ok\":true,\"pong\":true"));
        }
        Request::Shutdown { id } => {
            svc.finish(seq, svc.counter_report(&[("serve.requests", 1)]));
            writer.send(&assemble(id, "\"ok\":true,\"shutting_down\":true"));
            shutdown.request();
        }
    }
}

/// Turns a failed submission into the corresponding error response and
/// completes its sequence number so the stats absorber never stalls.
fn reject_if_failed(
    svc: &Arc<Service>,
    writer: &Arc<ResponseWriter>,
    seq: u64,
    id: Option<u64>,
    submitted: Result<(), SubmitError>,
) {
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Full) => {
            svc.finish(
                seq,
                svc.counter_report(&[("serve.requests", 1), ("serve.overloaded", 1)]),
            );
            writer.send(&error_response(
                id,
                "overloaded",
                "request queue is full, retry later",
            ));
        }
        Err(SubmitError::Closed) => {
            svc.finish(seq, svc.counter_report(&[("serve.requests", 1)]));
            writer.send(&error_response(id, "shutting_down", "server is draining"));
        }
    }
}

/// Reads frames off one TCP connection until EOF, a fatal frame error, or
/// socket shutdown. Oversized frames are rejected *and resynchronized*;
/// garbage JSON is rejected per-frame; the loop itself never panics and
/// never exits on a malformed request.
fn serve_tcp_connection(
    svc: &Arc<Service>,
    pool: &PoolHandle,
    stream: TcpStream,
    shutdown: &ShutdownFlag,
    max_frame: usize,
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
        match read_frame(&mut reader, max_frame) {
            Ok(Some(payload)) => {
                dispatch(svc, pool, &writer, shutdown, &into_text(payload));
            }
            Ok(None) => break,
            Err(FrameError::TooLarge { declared }) => {
                let seq = svc.begin();
                svc.finish(
                    seq,
                    svc.counter_report(&[("serve.requests", 1), ("serve.errors", 1)]),
                );
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

/// A bound-but-not-yet-running TCP server.
pub struct Server {
    listener: TcpListener,
    svc: Arc<Service>,
    shutdown: ShutdownFlag,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7070`, port 0 for ephemeral). When
    /// the config persists, the recovery scan runs here — a server that
    /// reached its `serving on` banner has finished warming from disk.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure or a persistent-cache recovery error.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shutdown = ShutdownFlag::new();
        shutdown.set_wake_addr(listener.local_addr()?);
        Ok(Server {
            listener,
            svc: Arc::new(Service::open(config)?),
            shutdown,
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

    /// A handle that stops this server when requested.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// The shared service state (cache, lifetime stats).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.svc)
    }

    /// Accepts and serves connections until shutdown is requested, then
    /// drains and joins everything (see the module docs).
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind; the `io::Result`
    /// return leaves room for fatal accept failures to surface.
    pub fn run(self) -> io::Result<()> {
        let cfg = self.svc.config().clone();
        let pool = Pool::new(cfg.jobs, cfg.queue_cap);
        let conns: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.shutdown.is_set() {
                break;
            }
            let Ok(stream) = incoming else { continue };
            // Responses must not sit in Nagle's buffer waiting for an ACK.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                conns.lock().unwrap().push(clone);
            }
            let svc = Arc::clone(&self.svc);
            let handle = pool.handle();
            let shutdown = self.shutdown.clone();
            let max_frame = cfg.max_frame;
            threads.push(std::thread::spawn(move || {
                serve_tcp_connection(&svc, &handle, stream, &shutdown, max_frame);
            }));
        }
        // Drain: every job accepted before the close still runs and its
        // response is written (the sockets are still open here).
        pool.shutdown();
        // Unblock any reader still waiting on its socket, then join.
        for s in conns.lock().unwrap().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }
}

/// A running server on its own thread (the test/bench entry point).
pub struct ServerHandle {
    addr: SocketAddr,
    svc: Arc<Service>,
    shutdown: ShutdownFlag,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state.
    pub fn service(&self) -> &Arc<Service> {
        &self.svc
    }

    /// Requests shutdown and waits for the full drain.
    ///
    /// # Errors
    ///
    /// Propagates the server loop's error.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the server thread.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.request();
        self.thread.join().expect("server thread panicked")
    }
}

/// Binds `addr` and runs the server on a background thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, config: ServiceConfig) -> io::Result<ServerHandle> {
    let server = Server::bind(addr, config)?;
    let addr = server.local_addr()?;
    let svc = server.service();
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    Ok(ServerHandle {
        addr,
        svc,
        shutdown,
        thread,
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
    let cfg = svc.config().clone();
    let pool = Pool::new(cfg.jobs, cfg.queue_cap);
    let handle = pool.handle();
    let writer = Arc::new(ResponseWriter {
        framing: Framing::Lines,
        w: Mutex::new(output),
    });
    while !shutdown.is_set() {
        match read_line_capped(input, cfg.max_frame)? {
            None => break,
            Some(Line::TooLong) => {
                let seq = svc.begin();
                svc.finish(
                    seq,
                    svc.counter_report(&[("serve.requests", 1), ("serve.errors", 1)]),
                );
                writer.send(&error_response(
                    None,
                    "too_large",
                    &format!("line exceeds {} bytes", cfg.max_frame),
                ));
            }
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

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn tcp_roundtrip_ping_version_shutdown() {
        let server = spawn("127.0.0.1:0", test_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(
            client.request(r#"{"op":"ping","id":1}"#).unwrap(),
            r#"{"id":1,"ok":true,"pong":true}"#
        );
        let version = client.request(r#"{"op":"version","id":2}"#).unwrap();
        assert!(version.contains(&format!("\"version\":\"{VERSION}\"")));
        assert!(version.contains(PROTOCOL));
        assert_eq!(
            client.request(r#"{"op":"shutdown","id":3}"#).unwrap(),
            r#"{"id":3,"ok":true,"shutting_down":true}"#
        );
        drop(client);
        server.stop().unwrap();
    }

    #[test]
    fn malformed_frames_do_not_kill_the_connection() {
        let server = spawn("127.0.0.1:0", test_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // Garbage JSON.
        let resp = client.request("{not json").unwrap();
        assert!(resp.contains("\"error\":\"bad_request\""));
        // Not an object.
        let resp = client.request("[1,2,3]").unwrap();
        assert!(resp.contains("\"error\":\"bad_request\""));
        // Unknown op with an id — the id is echoed.
        let resp = client.request(r#"{"op":"frobnicate","id":7}"#).unwrap();
        assert!(resp.starts_with(r#"{"id":7,"#), "{resp}");
        // An oversized frame: declared > max. The server rejects it,
        // skips the payload, and the connection still works.
        let huge = vec![b'x'; crate::frame::DEFAULT_MAX_FRAME + 1];
        client
            .send_raw(&u32::try_from(huge.len()).unwrap().to_be_bytes())
            .unwrap();
        client.send_raw(&huge).unwrap();
        let resp = client.recv().unwrap().unwrap();
        assert!(resp.contains("\"error\":\"too_large\""), "{resp}");
        // The stream resynchronized.
        assert_eq!(
            client.request(r#"{"op":"ping","id":9}"#).unwrap(),
            r#"{"id":9,"ok":true,"pong":true}"#
        );
        drop(client);
        server.stop().unwrap();
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
