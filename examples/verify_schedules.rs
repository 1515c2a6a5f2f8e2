//! Dynamic schedule verification: replay every benchmark kernel at a small
//! concrete size under a block distribution and check — element by element,
//! with write-version counters — that every remote read is served by fresh
//! communicated data, for all three placement strategies.
//!
//! Also demonstrates fault detection: a deliberately corrupted schedule
//! (the message hoisted above the data's definition) is flagged.
//!
//! Run with: `cargo run --example verify_schedules`

use std::collections::HashMap;

use gcomm::ir::Pos;
use gcomm::machine::ProcGrid;
use gcomm::{compile, Strategy};
use gcomm_exec::verify_schedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:<9} {:<10} {:>7} {:>9} {:>9}  verdict",
        "benchmark", "routine", "strategy", "events", "elements", "checked"
    );
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        for strategy in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
            let c = compile(src, strategy)?;
            let rank = c.prog.grid_rank();
            let grid = ProcGrid::balanced(4, rank);
            let mut params: HashMap<String, i64> =
                c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
            params.insert("nsteps".into(), 2);
            let rep = verify_schedule(&c, &grid, &params)?;
            println!(
                "{:<10} {:<9} {:<10} {:>7} {:>9} {:>9}  {}",
                bench,
                routine,
                format!("{strategy:?}"),
                rep.comm_events,
                rep.elements_communicated,
                rep.remote_elements_checked,
                if rep.ok() { "OK" } else { "VIOLATION" }
            );
            assert!(rep.ok());
        }
    }

    // Fault injection: hoist the shallow kernel's first message to program
    // start — the data it carries is redefined every timestep, so the
    // verifier must catch the staleness.
    println!("\nfault injection: hoisting one shallow message above its defs ...");
    let mut c = compile(gcomm::kernels::SHALLOW, Strategy::Global)?;
    c.schedule.groups[0].pos = Pos::top(c.prog.cfg.entry);
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = verify_schedule(&c, &ProcGrid::balanced(4, 2), &params)?;
    println!(
        "verifier found {} violation(s); first: {}",
        rep.errors.len(),
        rep.errors
            .first()
            .map(|e| e.message.as_str())
            .unwrap_or("-")
    );
    assert!(!rep.ok());
    Ok(())
}
