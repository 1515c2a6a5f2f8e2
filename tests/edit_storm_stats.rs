//! Counter golden for an edit storm through the service: the benchmark's
//! first `edit` module (64 routines) is preloaded and then sent 50 times,
//! one single-routine edit apart, and the server's stable `stats` must
//! equal `results/edit_storm_stats.txt` — every `query.*`, `cache.*`,
//! `serve.*` and compiler-pass count, with 1 worker and with 4. Each of the
//! 51 responses must also equal, byte for byte, what a memo-free cold
//! compile of the same request renders.
//!
//! The served edit path is where the bookkeeping around a compile gets
//! optimised (one engine lock per module, one key hash per request); this
//! golden is what says such a change moved no count. Re-bless an
//! intentional change with `GCOMM_BLESS=1 cargo test --test
//! edit_storm_stats` and read the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use gcomm::serve::json::Json;
use gcomm::serve::protocol::assemble;
use gcomm::serve::service::cold_compile_payload;
use gcomm::serve::{compile_request, Client, CompileReq, ServiceConfig};
use gcomm::{BudgetSpec, Strategy};

#[path = "support/edit_pool.rs"]
mod edit_pool;

/// The stable counters after preload + 50 edits, `name value` a line.
fn storm_counters(jobs: usize) -> String {
    let config = ServiceConfig {
        jobs,
        ..ServiceConfig::default()
    };
    let server = gcomm::serve::spawn("127.0.0.1:0", config).expect("server spawns");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for (step, module) in edit_pool::edit_chain(0).into_iter().enumerate() {
        let req = CompileReq {
            id: Some(step as u64),
            source: module,
            strategy: Strategy::Global,
            budget: None,
            sim: None,
        };
        let request = compile_request(step as u64, &req.source, req.strategy, None, None);
        let response = client.request(&request).expect("a response");
        assert!(response.contains("\"ok\":true"), "step {step}: {response}");
        let cold = assemble(req.id, &cold_compile_payload(&req, &BudgetSpec::default()));
        assert_eq!(
            response, cold,
            "step {step}: incremental diverged from cold"
        );
    }
    let stats = client
        .request(r#"{"op":"stats","id":0,"stable":true}"#)
        .expect("a stats response");
    drop(client);
    server.stop().expect("server drains");

    let stats = Json::parse(&stats).expect("stats parse");
    let Some(Json::Obj(counters)) = stats.get("stats").and_then(|s| s.get("counters")) else {
        panic!("no counters in {stats:?}");
    };
    let mut table = String::new();
    for (name, value) in counters {
        let _ = writeln!(table, "{name} {}", value.as_u64().expect("a count"));
    }
    table
}

#[test]
fn edit_storm_counters_match_the_golden_at_jobs_1_and_4() {
    let one = storm_counters(1);
    assert_eq!(
        one,
        storm_counters(4),
        "stable stats must be jobs-invariant"
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/edit_storm_stats.txt");
    if std::env::var_os("GCOMM_BLESS").is_some() {
        std::fs::write(&path, &one).expect("write blessed golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (GCOMM_BLESS=1 creates it)");
    assert_eq!(golden, one, "edit-storm counters drifted");
}
