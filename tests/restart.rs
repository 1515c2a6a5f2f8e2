//! Process-level tests against the real `gcommc` binary: a SIGKILLed
//! persisting server restarts warm and bit-identical (DESIGN.md §15), and
//! SIGTERM drains every in-flight request before the server exits 0
//! (DESIGN.md §12).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use gcomm::serve::{compile_request, Client};
use gcomm::Strategy;

#[path = "support/serve_proc.rs"]
mod serve_proc;

use serve_proc::ServeProc;

const GCOMMC: &str = env!("CARGO_BIN_EXE_gcommc");

fn tmp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gcomm-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn sources(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "program p{i}\nparam n\nreal a(n,n), b(n,n) distribute (block, block)\n\
                 b(2:n, 1:n) = a(1:n-1, 1:n)\nend\n"
            )
        })
        .collect()
}

/// SIGKILL by pid — the child dies mid-whatever, no drain, no flush.
fn sigkill(pid: u32) {
    let status = std::process::Command::new("kill")
        .arg("-9")
        .arg(pid.to_string())
        .status()
        .expect("kill(1) must exist");
    assert!(status.success(), "kill -9 {pid} failed");
}

/// Pulls one counter value out of a server's `stats` response (stable
/// form renders sorted `"name":value` pairs).
fn shard_counter(addr: &SocketAddr, name: &str) -> u64 {
    let mut c = Client::connect_timeout(addr, Duration::from_secs(2)).unwrap();
    let resp = c.request(r#"{"op":"stats","id":1,"stable":true}"#).unwrap();
    let key = format!("\"{name}\":");
    let Some(at) = resp.find(&key) else { return 0 };
    resp[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

#[test]
fn sigkilled_persisting_server_restarts_warm_and_bit_identical() {
    let dir = tmp_dir("serve");
    let persist = dir.to_string_lossy().into_owned();
    let args = ["--persist", persist.as_str(), "--jobs", "2"];
    let mut proc = ServeProc::spawn(GCOMMC, &args).unwrap();

    let srcs = sources(8);
    let mut cold: Vec<String> = Vec::new();
    {
        let mut client = Client::connect(proc.addr()).unwrap();
        for (i, src) in srcs.iter().enumerate() {
            let req = compile_request(i as u64, src, Strategy::Global, None, None);
            let resp = client.request(&req).unwrap();
            assert!(resp.contains("\"ok\":true"), "cold compile {i} failed");
            cold.push(resp);
        }
    }

    // Die without any drain; restart on the same directory.
    sigkill(proc.pid());
    let addr = proc.respawn().unwrap();

    // The recovery scan ran before the banner: every record came back
    // clean, and the whole corpus hits warm with zero recompiles —
    // byte-for-byte what the dead process served cold.
    assert_eq!(shard_counter(&addr, "store.recover_ok"), 8);
    assert_eq!(shard_counter(&addr, "store.quarantined"), 0);
    let mut client = Client::connect(addr).unwrap();
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        assert_eq!(
            client.request(&req).unwrap(),
            cold[i],
            "source {i}: restart changed bytes"
        );
    }
    assert_eq!(shard_counter(&addr, "cache.hit"), 8);
    assert_eq!(shard_counter(&addr, "serve.compiles"), 0);

    drop(client);
    proc.shutdown_graceful(Duration::from_secs(5)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_in_flight_requests_and_serve_exits_zero() {
    let mut server = ServeProc::spawn(GCOMMC, &["--jobs", "2"]).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // In-flight work at the moment the signal lands.
    const N: u64 = 5;
    for id in 0..N {
        client
            .send(&format!("{{\"op\":\"sleep\",\"id\":{id},\"ms\":200}}"))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let term = std::process::Command::new("kill")
        .args(["-TERM", &server.pid().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // Every accepted request drains before the server exits.
    let mut got = 0;
    while got < N {
        match client.recv() {
            Ok(Some(resp)) => {
                assert!(resp.contains("\"slept_ms\":200"), "{resp}");
                got += 1;
            }
            other => panic!("lost {} in-flight responses ({other:?})", N - got),
        }
    }
    drop(client);
    let status = server.wait_exit(Duration::from_secs(20));
    assert_eq!(status, Some(0), "SIGTERM must exit 0 after the drain");
}
