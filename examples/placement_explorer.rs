//! Placement explorer: walks the paper's running example (Figure 4)
//! through every phase of the analysis, printing `Earliest`, `Latest`, the
//! candidate set, and the final decision for each communication entry.
//!
//! Run with: `cargo run --example placement_explorer`

use gcomm::core::{candidates, commgen, earliest, latest, AnalysisCtx};
use gcomm::{compile, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = gcomm::kernels::FIG4_RUNNING;
    let ast = gcomm::parse_program(src)?;
    let prog = gcomm::ir::lower(&ast)?;
    let entries = commgen::number(commgen::generate(&prog));
    let ctx = AnalysisCtx::new(&prog);

    println!("== Figure 4 running example: per-entry analysis ==");
    for e in &entries {
        let ep = earliest::earliest_pos(&ctx, e);
        let lp = latest::latest(&ctx, e);
        let cands = candidates::candidates(&ctx, e, ep, lp);
        println!(
            "{:<14} use at {}  Earliest = {:?}@{}/{}  Latest = {:?}@{}/{}  |candidates| = {}",
            e.label(&prog),
            e.stmt,
            prog.cfg.node(ep.node).kind,
            ep.node,
            ep.slot,
            prog.cfg.node(lp.node).kind,
            lp.node,
            lp.slot,
            cands.len()
        );
    }

    println!("\n== final schedules ==");
    for strategy in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
        let c = compile(src, strategy)?;
        println!("{}", c.report());
    }

    // The paper's outcome: earliest placement leaves 3 messages (it cannot
    // catch b1's redundancy); the global algorithm ships a single combined
    // {a, b} message.
    let nored = compile(src, Strategy::EarliestRE)?;
    let comb = compile(src, Strategy::Global)?;
    assert_eq!(nored.static_messages(), 3);
    assert_eq!(comb.static_messages(), 1);
    println!("earliest placement: 3 messages; global placement: 1 combined message");
    Ok(())
}
