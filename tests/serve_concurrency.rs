//! Concurrency contracts of the compile service (DESIGN.md §12):
//!
//! * responses are a pure function of the request — identical for 1 or 4
//!   workers and under any client-thread interleaving;
//! * the deterministic (`stable`) stats form is jobs-invariant;
//! * a full queue answers `overloaded` immediately instead of
//!   deadlocking or buffering without bound;
//! * shutdown drains: every accepted job's response is written before the
//!   server exits;
//! * a connection that ends gives its descriptors back then, not at
//!   shutdown — behind either backend of the one listener.

use std::collections::BTreeMap;

use gcomm::serve::json::Json;
use gcomm::serve::{compile_request, Client, ServiceConfig};
use gcomm::Strategy;

fn config(jobs: usize) -> ServiceConfig {
    ServiceConfig {
        jobs,
        ..ServiceConfig::default()
    }
}

fn response_id(resp: &str) -> u64 {
    Json::parse(resp)
        .expect("response parses")
        .get("id")
        .and_then(Json::as_u64)
        .expect("response carries its id")
}

/// Drives `per_thread × threads` distinct compile requests through their
/// own connections, pipelined, and returns (id → response, stable stats).
fn run_fleet(jobs: usize, threads: usize, per_thread: usize) -> (BTreeMap<u64, String>, String) {
    let server = gcomm::serve::spawn("127.0.0.1:0", config(jobs)).unwrap();
    let addr = server.addr();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let ids: Vec<u64> = (0..per_thread)
                    .map(|j| (t * per_thread + j) as u64)
                    .collect();
                // Pipeline: send everything, then collect everything (the
                // server may answer out of submission order).
                for &id in &ids {
                    let src = proptest::hpf::generate(1000 + id);
                    client
                        .send(&compile_request(id, &src, Strategy::Global, None, None))
                        .unwrap();
                }
                let mut got = BTreeMap::new();
                for _ in &ids {
                    let resp = client.recv().unwrap().expect("response before EOF");
                    got.insert(response_id(&resp), resp);
                }
                got
            })
        })
        .collect();
    let mut all = BTreeMap::new();
    for w in workers {
        all.extend(w.join().unwrap());
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client
        .request(r#"{"op":"stats","id":9999,"stable":true}"#)
        .unwrap();
    server.stop().unwrap();
    (all, stats)
}

#[test]
fn responses_and_stable_stats_are_jobs_invariant() {
    let (one, stats_one) = run_fleet(1, 4, 6);
    let (four, stats_four) = run_fleet(4, 4, 6);
    assert_eq!(one.len(), 24);
    assert_eq!(
        one, four,
        "per-id responses must not depend on the worker count"
    );
    // The stats request itself is counted identically in both runs, so
    // the whole stable form must match byte-for-byte (ids match too).
    assert_eq!(stats_one, stats_four);
    assert!(stats_one.contains("\"serve.requests\":25"), "{stats_one}");
}

#[test]
fn full_queue_overloads_instead_of_deadlocking() {
    let server = gcomm::serve::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            jobs: 1,
            queue_cap: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // One slow job occupies the single worker; the queue holds two more;
    // everything beyond that must be rejected immediately.
    let total = 10u64;
    for id in 0..total {
        client
            .send(&format!("{{\"op\":\"sleep\",\"id\":{id},\"ms\":200}}"))
            .unwrap();
    }
    let mut slept = 0;
    let mut overloaded = 0;
    for _ in 0..total {
        let resp = client.recv().unwrap().expect("every request is answered");
        if resp.contains("\"slept_ms\"") {
            slept += 1;
        } else {
            assert!(resp.contains("\"error\":\"overloaded\""), "{resp}");
            overloaded += 1;
        }
    }
    assert!(
        overloaded > 0,
        "a 2-deep queue cannot absorb 10 pipelined sleeps"
    );
    assert!(slept >= 1, "accepted jobs still complete");
    // The connection (and the server) survived the burst.
    let pong = client.request(r#"{"op":"ping","id":99}"#).unwrap();
    assert!(pong.contains("\"pong\":true"));
    // A sequence number the pool refused was finished, not parked: every
    // answered request — the ten sleeps, the ping, this one — has reached
    // the lifetime registry.
    let stats = client
        .request(r#"{"op":"stats","id":100,"stable":true}"#)
        .unwrap();
    assert!(stats.contains("\"serve.requests\":12"), "{stats}");
    assert!(
        stats.contains(&format!("\"serve.overloaded\":{overloaded}")),
        "{stats}"
    );
    server.stop().unwrap();
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let server = gcomm::serve::spawn("127.0.0.1:0", config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send(r#"{"op":"sleep","id":1,"ms":150}"#).unwrap();
    client.send(r#"{"op":"shutdown","id":2}"#).unwrap();
    let mut got = Vec::new();
    while let Ok(Some(resp)) = client.recv() {
        got.push(response_id(&resp));
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "the accepted sleep must drain before exit");
    server.stop().unwrap();
}

/// Descriptor accounting through `/proc/self/fd`.
#[cfg(target_os = "linux")]
mod descriptors {
    use std::time::{Duration, Instant};

    use gcomm::serve::{Client, ClusterConfig};

    /// Connects, pings and hangs up, `CYCLES` times, then waits for the
    /// process's open-descriptor count to come back to where it started.
    /// Polled with slack, because the other tests of this binary open and
    /// close sockets of their own meanwhile; a leak of one descriptor per
    /// connection is far outside it.
    fn assert_descriptors_return(what: &str, addr: std::net::SocketAddr, idle: Duration) {
        const CYCLES: usize = 300;
        const SLACK: usize = 24;
        let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
        let before = open_fds();
        for _ in 0..CYCLES {
            let mut client = Client::connect(addr).unwrap();
            let pong = client.request(r#"{"op":"ping","id":1}"#).unwrap();
            assert!(pong.contains("\"pong\":true"));
        }
        std::thread::sleep(idle);
        let deadline = Instant::now() + Duration::from_secs(20);
        while open_fds() > before + SLACK {
            assert!(
                Instant::now() < deadline,
                "{what}: {before} descriptors open before {CYCLES} connections, {} after",
                open_fds()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn ended_connections_release_their_descriptors() {
        let server = gcomm::serve::spawn("127.0.0.1:0", super::config(2)).unwrap();
        assert_descriptors_return("server", server.addr(), Duration::ZERO);

        // The same through a router, which also probes its shard on a fresh
        // socket every interval: left idle for fifty of them (twice the
        // slack), neither side may keep what a finished connection or probe
        // held.
        let check_interval = Duration::from_millis(20);
        let router = gcomm::serve::spawn_router(
            "127.0.0.1:0",
            &[server.addr()],
            ClusterConfig {
                check_interval,
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        assert_descriptors_return("router", router.addr(), 50 * check_interval);
        router.stop().unwrap();
        server.stop().unwrap();
    }
}
