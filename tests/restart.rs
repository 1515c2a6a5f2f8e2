//! Process-level crash/restart chaos tests against the real `gcommc`
//! binary (DESIGN.md §15): a SIGKILLed persisting server restarts warm
//! and bit-identical, and a supervised cluster shard is respawned —
//! not just failed over — rejoining the ring answering from the cache
//! it recovered off disk.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gcomm::query::fingerprint;
use gcomm::serve::cluster::{
    supervise, ClusterConfig, Ring, RouterHandle, ShardProc, SupervisePolicy,
};
use gcomm::serve::protocol::{cache_key_material, CompileReq};
use gcomm::serve::{compile_request, Client};
use gcomm::Strategy;

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

fn counter(router: &RouterHandle, name: &str) -> u64 {
    router.registry().snapshot().counter(name)
}

fn wait_for_counter(router: &RouterHandle, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = counter(router, name);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pulls one counter value out of a shard's `stats` response (stable
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
    let mut proc = ShardProc::spawn(GCOMMC, &args).unwrap();

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
fn supervised_cluster_shard_respawns_and_answers_from_warmed_cache() {
    let dir = tmp_dir("cluster");
    let mut procs = Vec::new();
    for i in 0..2 {
        let persist = dir
            .join(format!("shard-{i}"))
            .to_string_lossy()
            .into_owned();
        let args = ["--persist", persist.as_str(), "--jobs", "2"];
        procs.push(ShardProc::spawn(GCOMMC, &args).unwrap());
    }
    let pids: Vec<u32> = procs.iter().map(ShardProc::pid).collect();
    let addrs: Vec<SocketAddr> = procs.iter().map(ShardProc::addr).collect();

    let cfg = ClusterConfig {
        jobs: 4,
        retry_base: Duration::from_millis(5),
        retry_cap: Duration::from_millis(50),
        // Fast probes so the kill is detected (and the slot marked down)
        // well before the supervisor's slower poll respawns it.
        check_interval: Duration::from_millis(30),
        ..ClusterConfig::default()
    };
    let default_budget = cfg.default_budget;
    let router = gcomm::serve::spawn_router("127.0.0.1:0", &addrs, cfg.clone()).unwrap();
    let supervisor = supervise(
        procs,
        router.admission(),
        SupervisePolicy {
            poll_interval: Duration::from_millis(500),
        },
        router.shutdown_flag(),
    );

    let srcs = sources(16);
    let primary = |src: &str| {
        let req = CompileReq {
            id: None,
            source: src.to_string(),
            strategy: Strategy::Global,
            budget: None,
            sim: None,
        };
        Ring::new(2, cfg.vnodes).primary(fingerprint(
            cache_key_material(&req, &default_budget).as_bytes(),
        ))
    };
    assert!(
        srcs.iter().any(|s| primary(s) == 0),
        "no source routes to shard 0"
    );

    let mut client = Client::connect(router.addr()).unwrap();
    let mut cold: Vec<String> = Vec::new();
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        cold.push(client.request(&req).unwrap());
    }

    // Chaos: SIGKILL shard 0. The prober marks it down, the supervisor
    // respawns it on its original command line (same --persist dir),
    // probes it, and readmits it; the router's prober re-ups the slot.
    sigkill(pids[0]);
    assert!(wait_for_counter(&router, "cluster.marked_down", 1) >= 1);
    assert!(
        wait_for_counter(&router, "cluster.respawn", 1) >= 1,
        "supervisor never respawned the killed shard"
    );
    assert!(
        wait_for_counter(&router, "cluster.marked_up", 1) >= 1,
        "respawned shard was never marked up again"
    );

    // The respawned shard warmed from its own log before its banner.
    let new_addr = router.admission().shard_addr(0);
    assert_ne!(new_addr, addrs[0], "respawn should bind a fresh port");
    assert!(shard_counter(&new_addr, "store.recover_ok") >= 1);
    assert_eq!(shard_counter(&new_addr, "store.quarantined"), 0);

    // Full corpus again, through the ring: bit-identical to the cold
    // run, and the respawned shard answers its keyspace from the cache
    // it recovered — zero compiles since the respawn.
    for (i, src) in srcs.iter().enumerate() {
        let req = compile_request(i as u64, src, Strategy::Global, None, None);
        assert_eq!(
            client.request(&req).unwrap(),
            cold[i],
            "source {i}: respawned cluster changed bytes"
        );
    }
    assert_eq!(counter(&router, "serve.unavailable"), 0);
    assert!(
        shard_counter(&new_addr, "cache.hit") >= 1,
        "the respawned shard served nothing from its warmed cache"
    );
    assert_eq!(
        shard_counter(&new_addr, "serve.compiles"),
        0,
        "the respawned shard recompiled instead of serving warm"
    );

    drop(client);
    router.stop().unwrap();
    let mut procs = supervisor.join();
    for p in &mut procs {
        let _ = p.shutdown_graceful(Duration::from_secs(5));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
