//! The cache's core contract, held against fuzzed inputs: a cache hit is
//! **bit-identical** to the cold compile it replaced, for any well-formed
//! program the generator can produce (ISSUE: 200 seeds). Also pins the
//! LRU eviction order end-to-end through a byte-capped service.

use gcomm_core::Strategy;
use gcomm_guard::BudgetSpec;
use gcomm_serve::protocol::CompileReq;
use gcomm_serve::service::cold_compile_payload;
use gcomm_serve::{Service, ServiceConfig};

fn req(source: String, id: u64) -> CompileReq {
    CompileReq {
        id: Some(id),
        source,
        strategy: Strategy::Global,
        budget: None,
        sim: None,
    }
}

#[test]
fn cache_hits_are_bit_identical_across_fuzzed_programs() {
    let svc = Service::new(ServiceConfig::default());
    for seed in 0..200u64 {
        let source = proptest::hpf::generate(seed);
        // Cold through the service (fills the cache) …
        let (cold, _) = svc.compile(&req(source.clone(), 1));
        // … warm through the service (must hit) …
        let (warm, _) = svc.compile(&req(source.clone(), 2));
        // … and a cache-free reference compile.
        let reference = cold_compile_payload(&req(source, 0), &BudgetSpec::default());
        let cold_payload = cold.strip_prefix("{\"id\":1,").unwrap();
        let warm_payload = warm.strip_prefix("{\"id\":2,").unwrap();
        assert_eq!(
            cold_payload, warm_payload,
            "seed {seed}: hit differs from cold"
        );
        assert_eq!(
            cold_payload,
            format!("{reference}}}"),
            "seed {seed}: service payload differs from a cache-free compile"
        );
    }
    let life = svc.lifetime_report();
    assert_eq!(life.counter("cache.hit"), 200);
    assert_eq!(life.counter("cache.miss"), 200);
    assert_eq!(life.counter("serve.compiles"), 200);
}

#[test]
fn byte_capped_service_evicts_in_lru_order() {
    // A cache barely big enough for two responses: the third insert must
    // evict the least-recently-used entry, and touching an entry (a hit)
    // must protect it.
    let sources: Vec<String> = (0..3).map(proptest::hpf::generate).collect();
    // Measure what the first two entries actually occupy, then cap the
    // real service at exactly that.
    let probe = Service::new(ServiceConfig::default());
    for s in &sources[..2] {
        probe.compile(&req(s.clone(), 1));
    }
    let svc = Service::new(ServiceConfig {
        cache_bytes: probe.cache_usage().1,
        ..ServiceConfig::default()
    });
    for s in &sources[..2] {
        svc.compile(&req(s.clone(), 1));
    }
    assert_eq!(svc.cache_usage().0, 2);
    // Touch the older entry so the *newer* one becomes the LRU victim.
    svc.compile(&req(sources[0].clone(), 1));
    svc.compile(&req(sources[2].clone(), 1));
    let life = svc.lifetime_report();
    assert!(life.counter("cache.evict") >= 1, "third insert must evict");
    // The touched entry survived; the untouched one was evicted.
    svc.compile(&req(sources[0].clone(), 1));
    assert_eq!(svc.lifetime_report().counter("cache.hit"), 2);
    svc.compile(&req(sources[1].clone(), 1));
    assert_eq!(
        svc.lifetime_report().counter("cache.miss"),
        4,
        "the untouched entry must have been the eviction victim"
    );
}

/// Requests differing **only** in the sim's `machine` or `coll` must
/// never share a cache entry: the topology and the collective algorithm
/// change the simulated numbers, so a collision would serve one
/// configuration's results under another's name. Each distinct pair is
/// a cold miss with its own entry, and replaying the same pair hits it
/// bit-identically.
#[test]
fn machine_and_coll_are_part_of_the_cache_identity() {
    let svc = Service::new(ServiceConfig::default());
    let source = proptest::hpf::generate(7);
    let run = |machine: &str, coll: &str, id: u64| -> String {
        let mut sim = gcomm_serve::protocol::SimSpec::flat("sp2", 32);
        sim.machine = machine.into();
        sim.coll = coll.into();
        let r = CompileReq {
            sim: Some(sim),
            ..req(source.clone(), id)
        };
        svc.compile(&r).0
    };
    let specs = [
        ("flat", "p2p"),
        ("flat", "ring"),
        ("fat-tree:4x4", "p2p"),
        ("fat-tree:4x4", "auto"),
        ("torus:5x5", "auto"),
    ];
    let cold: Vec<String> = specs.iter().map(|(m, c)| run(m, c, 1)).collect();
    assert_eq!(
        svc.cache_usage().0,
        specs.len(),
        "every (machine, coll) pair must get its own cache entry"
    );
    assert_eq!(
        svc.lifetime_report().counter("cache.miss"),
        specs.len() as u64
    );
    // Same pairs again: all hits, each bit-identical to its own cold run.
    let warm: Vec<String> = specs.iter().map(|(m, c)| run(m, c, 1)).collect();
    assert_eq!(
        svc.lifetime_report().counter("cache.hit"),
        specs.len() as u64
    );
    for (i, (m, c)) in specs.iter().enumerate() {
        assert_eq!(cold[i], warm[i], "{m}/{c}: hit differs from cold");
    }
    // And the configurations really produce different simulated numbers
    // (the reason a collision would be wrong): the flat/p2p payload
    // differs from the hierarchical ones.
    assert_ne!(cold[0], cold[2], "fat-tree priced like flat");
    assert_ne!(cold[2], cold[4], "torus priced like fat-tree");
}
