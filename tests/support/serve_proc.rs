//! A `gcommc serve --addr 127.0.0.1:0` child process for process-level
//! tests: spawned, its ephemeral address read off the startup banner,
//! and taken down — gracefully through the protocol's `shutdown` op, or
//! by the test with a signal to its pid.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gcomm::serve::Client;

/// One spawned server process and its serve address. The command line is
/// kept, so [`ServeProc::respawn`] restarts the same server — same flags,
/// same `--persist` directory — after it was killed.
#[derive(Debug)]
pub struct ServeProc {
    child: Child,
    addr: SocketAddr,
    program: String,
    args: Vec<String>,
}

impl ServeProc {
    /// Spawns `program serve --addr 127.0.0.1:0 <extra_args>` and waits
    /// for its `serving on <addr>` banner on stderr. The banner prints only
    /// after a `--persist` recovery scan has completed, so a returned
    /// `ServeProc` is past recovery.
    pub fn spawn(program: &str, extra_args: &[&str]) -> io::Result<ServeProc> {
        let args: Vec<String> = extra_args.iter().map(|s| (*s).to_string()).collect();
        let (child, addr) = spawn_child(program, &args)?;
        Ok(ServeProc {
            child,
            addr,
            program: program.to_string(),
            args,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id, for signalling it.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Reaps a dead child and starts the same command line again; returns
    /// the new serve address (the replacement binds its own port).
    pub fn respawn(&mut self) -> io::Result<SocketAddr> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let (child, addr) = spawn_child(&self.program, &self.args)?;
        self.child = child;
        self.addr = addr;
        Ok(addr)
    }

    /// The child's exit code once it exits within `deadline` (`None` when
    /// a signal ended it).
    ///
    /// # Panics
    ///
    /// When the child is still running at the deadline (it is killed
    /// first).
    pub fn wait_exit(&mut self, deadline: Duration) -> Option<i32> {
        let end = Instant::now() + deadline;
        loop {
            if let Some(status) = self.child.try_wait().expect("wait on child") {
                return status.code();
            }
            if Instant::now() >= end {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("child did not exit within {deadline:?}");
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Asks the server to drain and exit via the protocol's `shutdown` op,
    /// then reaps it. Falls back to a kill when the server cannot be
    /// reached or does not exit.
    pub fn shutdown_graceful(&mut self, timeout: Duration) -> io::Result<()> {
        let reachable = Client::connect_timeout(&self.addr, timeout)
            .and_then(|mut c| {
                c.set_io_timeout(Some(timeout))?;
                c.request(r#"{"op":"shutdown","id":0}"#)
            })
            .is_ok();
        if !reachable {
            let _ = self.child.kill();
            return self.child.wait().map(|_| ());
        }
        // The server drains accepted work before exiting; poll for it.
        let deadline = Instant::now() + timeout.max(Duration::from_secs(5));
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        // Never leak a child process, even when a test panics.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one serve child and reads its address off the banner. The rest
/// of its stderr is drained by a detached thread, so the pipe never fills
/// and stalls the server.
fn spawn_child(program: &str, args: &[String]) -> io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(program)
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let mut reader = BufReader::new(stderr);
    let addr = match read_banner_addr(&mut reader) {
        Ok(addr) => addr,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };
    std::thread::spawn(move || {
        let _ = io::copy(&mut reader, &mut io::sink());
    });
    Ok((child, addr))
}

/// Reads stderr lines until the `serving on <addr>` banner appears.
fn read_banner_addr(reader: &mut BufReader<impl Read>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server exited before announcing its address",
            ));
        }
        if let Some(rest) = line.split("serving on ").nth(1) {
            let addr_text = rest.split_whitespace().next().unwrap_or("");
            return addr_text.parse::<SocketAddr>().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparseable serve banner: {}", line.trim()),
                )
            });
        }
    }
}

#[test]
fn banner_parsing_extracts_the_address() {
    let text = "warming up\ngcommc: serving on 127.0.0.1:4567 (8 jobs)\n";
    let mut r = BufReader::new(text.as_bytes());
    assert_eq!(
        read_banner_addr(&mut r).unwrap(),
        "127.0.0.1:4567".parse::<SocketAddr>().unwrap()
    );
}

#[test]
fn missing_banner_is_a_clean_error() {
    let mut r = BufReader::new("no banner here\n".as_bytes());
    let err = read_banner_addr(&mut r).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}
