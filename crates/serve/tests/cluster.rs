//! Cluster robustness tests against in-process shards: bit-identity with
//! a single-node server, failover with zero failed requests, partial-frame
//! classification, structured `unavailable`, and the drain guarantee.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use gcomm_core::Strategy;
use gcomm_machine::fault::RetryPolicy;
use gcomm_query::fingerprint;
use gcomm_serve::cluster::{spawn_router, ClusterConfig, HealthPolicy, Ring, RouterHandle};
use gcomm_serve::protocol::{cache_key_material, CompileReq};
use gcomm_serve::{compile_request, Client, ServerHandle, ServiceConfig};

fn shard_config() -> ServiceConfig {
    ServiceConfig {
        jobs: 2,
        ..ServiceConfig::default()
    }
}

/// Test-speed cluster config: fast retries, no surprises from the prober.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        jobs: 4,
        retry_base: Duration::from_millis(5),
        retry_cap: Duration::from_millis(50),
        check_interval: Duration::from_millis(50),
        ..ClusterConfig::default()
    }
}

fn spawn_shards(n: usize) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|_| gcomm_serve::spawn("127.0.0.1:0", shard_config()).unwrap())
        .collect();
    let addrs = shards.iter().map(ServerHandle::addr).collect();
    (shards, addrs)
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

/// The ring primary for a plain compile of `src` (default strategy and
/// budget), mirroring exactly what the router hashes.
fn primary_shard(src: &str, shards: usize, cfg: &ClusterConfig) -> usize {
    let req = CompileReq {
        id: None,
        source: src.to_string(),
        strategy: Strategy::Global,
        budget: None,
        sim: None,
    };
    let hash = fingerprint(cache_key_material(&req, &cfg.default_budget).as_bytes());
    Ring::new(shards, cfg.vnodes).primary(hash)
}

fn counter(router: &RouterHandle, name: &str) -> u64 {
    router.registry().snapshot().counter(name)
}

#[test]
fn cluster_responses_are_bit_identical_to_single_node() {
    let single = gcomm_serve::spawn("127.0.0.1:0", shard_config()).unwrap();
    let (shards, addrs) = spawn_shards(3);
    let router = spawn_router("127.0.0.1:0", &addrs, cluster_config()).unwrap();

    let mut direct = Client::connect(single.addr()).unwrap();
    let mut clustered = Client::connect(router.addr()).unwrap();
    for round in 0..2 {
        // Round 0 compiles cold, round 1 serves from shard caches — the
        // bytes must match the single node either way.
        for (i, src) in sources(8).iter().enumerate() {
            let req = compile_request(i as u64, src, Strategy::Global, None, None);
            let a = direct.request(&req).unwrap();
            let b = clustered.request(&req).unwrap();
            assert_eq!(a, b, "round {round}, source {i}: cluster bytes differ");
        }
        // Error responses relay bit-identically too.
        let bad = compile_request(
            99,
            "program p\nnot hpf\nend\n",
            Strategy::Global,
            None,
            None,
        );
        assert_eq!(
            direct.request(&bad).unwrap(),
            clustered.request(&bad).unwrap()
        );
    }
    drop((direct, clustered));
    router.stop().unwrap();
    for s in shards {
        s.stop().unwrap();
    }
    single.stop().unwrap();
}

#[test]
fn shard_death_fails_over_with_zero_failed_requests() {
    let cfg = cluster_config();
    let (mut shards, addrs) = spawn_shards(2);
    let srcs = sources(8);
    // A key whose primary is the shard about to die, so its ring
    // successor has never seen it.
    let hot = srcs
        .iter()
        .position(|s| primary_shard(s, 2, &cfg) == 0)
        .expect("some source routes to shard 0");
    let router = spawn_router("127.0.0.1:0", &addrs, cfg.clone()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let mut healthy: Vec<String> = Vec::new();
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        healthy.push(client.request(&req).unwrap());
    }
    // The primary serves the popular key again and again; nothing copies
    // it anywhere.
    let hot_req = compile_request(hot as u64, &srcs[hot], Strategy::Global, None, None);
    for _ in 0..4 {
        assert_eq!(client.request(&hot_req).unwrap(), healthy[hot]);
    }

    // Kill shard 0. The first answer for its popular key comes from the
    // survivor, which compiles it cold — same bytes, one more compile.
    let survivor = shards.pop().unwrap();
    shards.pop().unwrap().stop().unwrap();
    assert_eq!(
        client.request(&hot_req).unwrap(),
        healthy[hot],
        "first post-kill answer for the popular key changed bytes"
    );
    assert!(counter(&router, "cluster.replica_hit") >= 1);
    // Until now the survivor compiled exactly the keys it is primary for.
    // A request's counters reach the lifetime report after its response
    // is written, hence the poll.
    let own = srcs
        .iter()
        .filter(|s| primary_shard(s, 2, &cfg) == 1)
        .count() as u64;
    let compiles = || {
        survivor
            .service()
            .lifetime_report()
            .counter("serve.compiles")
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while compiles() <= own && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        compiles(),
        own + 1,
        "the survivor should have compiled the dead primary's key cold"
    );

    // The rest of the dead shard's keyspace fails over too, with every
    // request still answered, bit-identical to the healthy run.
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        let resp = client.request(&req).unwrap();
        assert!(resp.contains("\"ok\":true"), "request {i} failed: {resp}");
        assert_eq!(resp, healthy[i], "request {i}: failover changed bytes");
    }

    assert!(
        counter(&router, "cluster.failover") > 0,
        "no request used the failover path"
    );
    assert_eq!(
        counter(&router, "serve.unavailable"),
        0,
        "a request was dropped"
    );
    drop(client);
    router.stop().unwrap();
    survivor.stop().unwrap();
}

#[test]
fn all_shards_down_yields_structured_unavailable_not_a_hang() {
    let (shards, addrs) = spawn_shards(1);
    let cfg = ClusterConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..cluster_config()
    };
    let router = spawn_router("127.0.0.1:0", &addrs, cfg).unwrap();
    shards.into_iter().next().unwrap().stop().unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    let started = Instant::now();
    let req = compile_request(7, &sources(1)[0], Strategy::Global, None, None);
    let resp = client.request(&req).unwrap();
    assert!(
        resp.contains("\"error\":\"unavailable\""),
        "expected structured unavailable, got: {resp}"
    );
    assert!(resp.starts_with("{\"id\":7,"), "id must be echoed: {resp}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "unavailable must come promptly, not from a hung socket"
    );
    assert!(counter(&router, "serve.unavailable") >= 1);
    assert!(counter(&router, "cluster.retry") >= 1);
    drop(client);
    router.stop().unwrap();
}

/// A fake shard that accepts connections, reads one frame, answers with a
/// deliberately truncated frame (header declares more bytes than sent),
/// and drops the connection — a process dying mid-write.
fn spawn_mid_write_killer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { break };
            let mut header = [0u8; 4];
            if s.read_exact(&mut header).is_err() {
                continue;
            }
            let len = u32::from_be_bytes(header) as usize;
            let mut payload = vec![0u8; len];
            if s.read_exact(&mut payload).is_err() {
                continue;
            }
            // Declare 100 payload bytes, deliver 10, die.
            let _ = s.write_all(&100u32.to_be_bytes());
            let _ = s.write_all(b"0123456789");
            let _ = s.flush();
            // Dropping the stream closes it mid-frame.
        }
    });
    addr
}

#[test]
fn mid_write_death_is_classified_conn_lost_and_failed_over() {
    let killer = spawn_mid_write_killer();
    let (shards, mut addrs) = spawn_shards(1);
    let real = addrs.remove(0);

    let cfg = ClusterConfig {
        // Keep the health machine from hiding the killer shard: the
        // request itself must hit it and classify the mid-frame death.
        health: HealthPolicy {
            fail_threshold: 10_000,
            up_threshold: 1,
        },
        ..cluster_config()
    };
    // Find a source whose primary is the killer (index 0 in the list).
    let src = sources(64)
        .into_iter()
        .find(|s| primary_shard(s, 2, &cfg) == 0)
        .expect("some source routes to shard 0");
    let router = spawn_router("127.0.0.1:0", &[killer, real], cfg).unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    let req = compile_request(3, &src, Strategy::Global, None, None);
    let resp = client.request(&req).unwrap();
    assert!(resp.contains("\"ok\":true"), "failover failed: {resp}");
    assert!(
        counter(&router, "cluster.conn_lost") >= 1,
        "mid-frame death was not classified as a lost connection"
    );
    assert!(counter(&router, "cluster.failover") >= 1);

    drop(client);
    router.stop().unwrap();
    shards.into_iter().next().unwrap().stop().unwrap();
}

/// Client-level regression for the same satellite: a peer dying mid-frame
/// surfaces as a clean `ConnectionAborted` error, never a partial payload.
#[test]
fn client_reports_connection_lost_on_mid_frame_death() {
    let killer = spawn_mid_write_killer();
    let mut client = Client::connect(killer).unwrap();
    client.send(r#"{"op":"ping","id":1}"#).unwrap();
    let err = client.recv().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    assert!(
        err.to_string().contains("connection lost"),
        "unexpected error text: {err}"
    );
}

/// Polls a router counter until it reaches `want` or the deadline hits.
fn wait_for_counter(router: &RouterHandle, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = counter(router, name);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The restart gap (DESIGN.md §15): before `Admission`, a dead shard was
/// marked down forever and its keyspace lived on replicas for the rest
/// of the router's life. This covers the full down → respawn → re-Up
/// transition: the replacement (on a *new* ephemeral port) is readmitted
/// to the dead shard's ring slot, the prober marks it up again, and the
/// primary path serves bit-identical bytes with no further failover.
#[test]
fn respawned_shard_rejoins_the_ring_and_serves_again() {
    let (mut shards, addrs) = spawn_shards(2);
    let router = spawn_router("127.0.0.1:0", &addrs, cluster_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let srcs = sources(8);
    let mut healthy: Vec<String> = Vec::new();
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        healthy.push(client.request(&req).unwrap());
    }

    // Shard 0 "crashes"; the prober marks it down and its keyspace fails
    // over to shard 1 (zero dropped requests, as ever).
    shards.remove(0).stop().unwrap();
    assert!(
        wait_for_counter(&router, "cluster.marked_down", 1) >= 1,
        "prober never marked the dead shard down"
    );
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        assert_eq!(client.request(&req).unwrap(), healthy[i]);
    }
    assert!(counter(&router, "cluster.failover") > 0);

    // "Respawn": a fresh shard on a fresh port takes over slot 0. The
    // readmission is counted and evented; the health machine keeps the
    // last word and re-ups the slot only after consecutive probe passes.
    let replacement = gcomm_serve::spawn("127.0.0.1:0", shard_config()).unwrap();
    router.admission().readmit(0, replacement.addr());
    assert_eq!(counter(&router, "cluster.respawn"), 1);
    assert!(
        wait_for_counter(&router, "cluster.marked_up", 1) >= 1,
        "respawned shard was never marked up again"
    );

    // With slot 0 up again, its keyspace is served on the primary path:
    // same bytes as the healthy run, no further failover.
    let failovers = counter(&router, "cluster.failover");
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        assert_eq!(
            client.request(&req).unwrap(),
            healthy[i],
            "request {i}: respawn changed bytes"
        );
    }
    assert_eq!(
        counter(&router, "cluster.failover"),
        failovers,
        "a readmitted shard should serve its keyspace without failover"
    );
    assert_eq!(counter(&router, "serve.unavailable"), 0);

    drop(client);
    router.stop().unwrap();
    replacement.stop().unwrap();
    shards.remove(0).stop().unwrap();
}

#[test]
fn router_stop_drains_in_flight_requests() {
    let (shards, addrs) = spawn_shards(2);
    let router = spawn_router("127.0.0.1:0", &addrs, cluster_config()).unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    // Pipeline slow requests, then stop the router while they are in
    // flight. Every accepted request must still produce its response.
    const N: u64 = 6;
    for id in 0..N {
        client
            .send(&format!("{{\"op\":\"sleep\",\"id\":{id},\"ms\":150}}"))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(30));
    let stopper = std::thread::spawn(move || router.stop().unwrap());
    let mut got = 0;
    while let Ok(Some(resp)) = client.recv() {
        assert!(resp.contains("\"slept_ms\":150"), "{resp}");
        got += 1;
        if got == N {
            break;
        }
    }
    assert_eq!(got, N, "drain lost in-flight responses");
    stopper.join().unwrap();
    for s in shards {
        s.stop().unwrap();
    }
}
