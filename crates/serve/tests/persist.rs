//! The persistence contract end-to-end through the service (DESIGN.md
//! §15), held against fuzzed inputs: a service reopened on its `--persist`
//! directory serves **bit-identical** bytes to the cold compiles that
//! filled it — after a clean restart (every entry a warm hit, zero
//! recompiles) and after arbitrary injected disk corruption (damaged
//! records are truncated or quarantined, never served; surviving entries
//! still hit; lost entries recompile to the same bytes by purity).

use std::path::{Path, PathBuf};

use gcomm_core::Strategy;
use gcomm_serve::protocol::CompileReq;
use gcomm_serve::{Service, ServiceConfig};
use gcomm_store::fault::DiskFaultPlan;
use gcomm_store::FsyncPolicy;

const PROGRAMS: u64 = 200;

fn req(source: String, id: u64) -> CompileReq {
    CompileReq {
        id: Some(id),
        source,
        strategy: Strategy::Global,
        budget: None,
        sim: None,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gcomm-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn persist_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        persist: Some(dir.to_path_buf()),
        // Interval batching keeps the test fast while still exercising
        // the store.fsync path.
        persist_fsync: FsyncPolicy::Interval(8),
        ..ServiceConfig::default()
    }
}

/// Compiles `source` through `svc` and returns the response payload with
/// the id prefix stripped (ids are excluded from the cache key, so this
/// is the byte sequence the persistence layer must preserve).
fn payload(svc: &Service, source: &str, id: u64) -> String {
    let (resp, _) = svc.compile(&req(source.to_string(), id));
    resp.strip_prefix(&format!("{{\"id\":{id},"))
        .unwrap_or_else(|| panic!("unexpected response shape: {resp}"))
        .to_string()
}

/// Fills a fresh persisting service with `PROGRAMS` fuzzed compiles and
/// returns (source, cold payload) pairs.
fn fill(dir: &Path) -> Vec<(String, String)> {
    let svc = Service::open(persist_config(dir)).unwrap();
    let cold: Vec<(String, String)> = (0..PROGRAMS)
        .map(|seed| {
            let source = proptest::hpf::generate(seed);
            let p = payload(&svc, &source, 1);
            (source, p)
        })
        .collect();
    let life = svc.lifetime_report();
    assert_eq!(life.counter("store.append"), PROGRAMS);
    assert!(life.counter("store.fsync") >= PROGRAMS / 8);
    cold
}

#[test]
fn clean_restart_warms_every_entry_bit_identically() {
    let dir = tmp_dir("clean");
    let cold = fill(&dir);

    // Reopen on the same directory: the recovery scan warms the cache
    // with every committed record, so the whole corpus hits without a
    // single recompile, bit-identical to the cold run.
    let svc = Service::open(persist_config(&dir)).unwrap();
    let life = svc.lifetime_report();
    assert_eq!(life.counter("store.recover_ok"), PROGRAMS);
    assert_eq!(life.counter("store.recover_torn"), 0);
    assert_eq!(life.counter("store.quarantined"), 0);
    for (i, (source, cold_payload)) in cold.iter().enumerate() {
        assert_eq!(
            &payload(&svc, source, 2),
            cold_payload,
            "program {i}: warm restart changed bytes"
        );
    }
    let life = svc.lifetime_report();
    assert_eq!(life.counter("cache.hit"), PROGRAMS);
    assert_eq!(life.counter("serve.compiles"), 0, "a warm entry recompiled");

    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_log_restart_never_serves_damaged_bytes() {
    let dir = tmp_dir("corrupt");
    let cold = fill(&dir);

    // Damage the log at arbitrary offsets: torn writes, short writes,
    // bit flips, zeroed fsync-sized ranges.
    let segs = gcomm_store::segment_files(&dir).unwrap();
    assert!(!segs.is_empty());
    let mut plan = DiskFaultPlan::new(0xC0FF_EE00_D15C_FA17);
    let mut changed = false;
    for _ in 0..3 {
        let seg = &segs[plan.next_pick(segs.len())];
        let before = std::fs::read(seg).unwrap();
        let fault = plan.inject(seg).unwrap();
        changed |= std::fs::read(seg).unwrap() != before;
        assert!(fault.len > 0 || before.is_empty());
    }
    assert!(changed, "no injection altered the log");

    // Reopen: recovery keeps a committed prefix (damage loses at least
    // one record), and *every* response — warm hit or recompile of a
    // lost entry — is bit-identical to the cold run. A quarantined
    // record leaking into the cache would diverge here.
    let svc = Service::open(persist_config(&dir)).unwrap();
    let life = svc.lifetime_report();
    let recovered = life.counter("store.recover_ok");
    assert!(recovered < PROGRAMS, "damage lost no records");
    assert!(life.counter("store.recover_torn") + life.counter("store.quarantined") >= 1);
    for (i, (source, cold_payload)) in cold.iter().enumerate() {
        assert_eq!(
            &payload(&svc, source, 2),
            cold_payload,
            "program {i}: post-corruption restart changed bytes"
        );
    }
    let life = svc.lifetime_report();
    assert_eq!(life.counter("cache.hit"), recovered);
    assert_eq!(life.counter("serve.compiles"), PROGRAMS - recovered);

    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
