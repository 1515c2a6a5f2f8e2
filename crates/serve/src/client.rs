//! A minimal TCP client for the compile service: frames requests, reads
//! framed responses, and can write raw bytes (the robustness tests use
//! that to send deliberately malformed frames).

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gcomm_core::Strategy;
use gcomm_guard::BudgetSpec;

use crate::frame::{into_text, read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::json::escape;
use crate::protocol::SimSpec;

/// Default read/write deadline on every client socket. Generous — orders
/// of magnitude above any cold compile — but finite: a hung or
/// half-drained peer surfaces as a `TimedOut` error instead of blocking
/// the caller forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to a serve instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` with the [`DEFAULT_IO_TIMEOUT`] deadlines.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects to `addr`, giving up on the connect itself after
    /// `timeout` (the per-I/O deadlines stay [`DEFAULT_IO_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure or timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect_timeout(addr, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // One frame = one packet: without this, Nagle + delayed-ACK add
        // tens of milliseconds to every request round-trip.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Overrides the read/write deadlines (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let s = self.reader.get_ref();
        s.set_read_timeout(timeout)?;
        s.set_write_timeout(timeout)
    }

    /// Sends one request and waits for one response. Only valid when no
    /// other responses are pending on this connection (for pipelining,
    /// pair [`Client::send`] with [`Client::recv`] and match by id).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a connection closed before the response
    /// surfaces as `UnexpectedEof`.
    pub fn request(&mut self, json: &str) -> io::Result<String> {
        self.send(json)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// Sends one framed request without waiting.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send(&mut self, json: &str) -> io::Result<()> {
        write_frame(&mut self.writer, json.as_bytes())
    }

    /// Writes raw bytes with no framing — for tests that must place
    /// malformed data on the wire.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one framed response; `Ok(None)` when the server closed the
    /// connection at a frame boundary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures. A peer that died mid-frame (truncated
    /// header or payload) surfaces as a `ConnectionAborted` "connection
    /// lost" error — never as a JSON parse error on a partial payload;
    /// any other malformed frame surfaces as `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Option<String>> {
        match read_frame(&mut self.reader, self.max_frame) {
            Ok(Some(payload)) => Ok(Some(into_text(payload))),
            Ok(None) => Ok(None),
            Err(FrameError::Truncated) => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection lost mid-frame",
            )),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "connection lost mid-frame",
                ))
            }
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// Renders a `compile` request object (the canonical client-side builder
/// shared by `gcommc client`, the benches, and the tests).
pub fn compile_request(
    id: u64,
    source: &str,
    strategy: Strategy,
    budget: Option<&BudgetSpec>,
    sim: Option<&SimSpec>,
) -> String {
    let mut s = format!(
        "{{\"op\":\"compile\",\"id\":{id},\"strategy\":{},\"source\":{}",
        escape(strategy.name()),
        escape(source)
    );
    if let Some(b) = budget {
        s.push_str(",\"budget\":");
        s.push_str(&escape(&b.to_string()));
    }
    if let Some(sim) = sim {
        s.push_str(&format!(
            ",\"sim\":{{\"profile\":{},\"n\":{},\"machine\":{},\"coll\":{}}}",
            escape(&sim.profile),
            sim.n,
            escape(&sim.machine),
            escape(&sim.coll)
        ));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::protocol::{CompileReq, Request};

    #[test]
    fn compile_request_roundtrips_through_the_parser() {
        let spec = BudgetSpec::parse("steps=500").unwrap();
        let mut sim = SimSpec::flat("now", 16);
        sim.machine = "torus:5x5".into();
        sim.coll = "auto".into();
        let text = compile_request(
            7,
            "program p\nend",
            Strategy::EarliestRE,
            Some(&spec),
            Some(&sim),
        );
        let req = Request::parse(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            req,
            Request::Compile(CompileReq {
                id: Some(7),
                source: "program p\nend".into(),
                strategy: Strategy::EarliestRE,
                budget: Some(spec),
                sim: Some(sim),
            })
        );
    }
}
