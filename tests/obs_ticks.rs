//! Regression tests for the `gcomm-obs` tick path:
//!
//! * with a registry installed, a counter bump and a timer perform no heap
//!   allocation once their names have been seen, and a span only grows
//!   the raw record list (a thread-local counting allocator wraps the
//!   system one in this test binary only);
//! * the counter tables `compile_stats` reports for the six paper kernels
//!   equal the committed golden `results/compile_stats_counters.txt`
//!   (`*.wall_ns` excluded — wall time is not reproducible). Re-bless an
//!   intentional change with `GCOMM_BLESS=1 cargo test --test obs_ticks`.
//!
//! The jobs-invariance of `stats --stable` under sequence-ordered
//! absorption is covered by `tests/serve_concurrency.rs`.

use std::fmt::Write as _;
use std::path::PathBuf;

use gcomm::obs::{count, install, span, time, Registry};
use gcomm::{compile_stats, Strategy};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    counting_alloc::allocs_during(f).1
}

#[test]
fn ticks_do_not_allocate_after_first_use() {
    let reg = Registry::new();
    let _scope = install(reg.clone());
    let tick = || {
        count("t.counter", 1);
        let _t = time("t.timer");
    };
    tick(); // first use creates the two map entries
    assert_eq!(allocs_during(|| (0..100).for_each(|_| tick())), 0);

    // A span also appends a raw record: the record list's amortised
    // growth is the only allocation left, never a per-tick `String`.
    drop(span("t.span"));
    let grew = allocs_during(|| (0..100).for_each(|_| drop(span("t.span"))));
    assert!(grew <= 8, "{grew} allocations in 100 span ticks");

    let rep = reg.snapshot();
    assert_eq!(rep.counter("t.counter"), 101);
    assert_eq!(rep.counter("t.timer.calls"), 101);
    assert_eq!(rep.spans.len(), 101);
}

#[test]
fn kernel_counter_tables_match_golden() {
    let mut table = String::new();
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        let c = compile_stats(src, Strategy::Global).expect("paper kernels compile");
        let _ = writeln!(table, "== {bench}:{routine} ==");
        for (name, v) in &c.stats.counters {
            if !name.ends_with(".wall_ns") {
                let _ = writeln!(table, "{name} {v}");
            }
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/compile_stats_counters.txt");
    if std::env::var_os("GCOMM_BLESS").is_some() {
        std::fs::write(&path, &table).expect("write blessed golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (GCOMM_BLESS=1 creates it)");
    assert_eq!(golden, table, "compile_stats counter tables drifted");
}
