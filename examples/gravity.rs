//! The NPAC gravity code (paper §2.1, Figure 1): the motivating example for
//! message combining *beyond* redundancy elimination.
//!
//! The code has no redundant communication at all — redundancy elimination
//! alone saves nothing (8 NNC + 8 SUM before and after). The global
//! algorithm combines the `g` and `glast` ghost exchanges direction by
//! direction (8 → 4 messages) and each group of four partial sums into one
//! reduction call (8 → 2).
//!
//! Run with: `cargo run --example gravity`

use gcomm::{compile, CommKind, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = gcomm::kernels::GRAVITY;

    println!("== gravity (Figure 1) ==");
    for strategy in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
        let c = compile(src, strategy)?;
        println!(
            "{:<12} NNC = {:>2}   SUM = {:>2}   (eliminated: {})",
            format!("{strategy:?}"),
            c.schedule.count_kind(CommKind::Nnc),
            c.schedule.count_kind(CommKind::Reduction),
            c.schedule.eliminated()
        );
    }

    let global = compile(src, Strategy::Global)?;
    println!("\n== combined groups ==");
    for g in &global.schedule.groups {
        let members: Vec<String> = g
            .entries
            .iter()
            .map(|&e| global.schedule.entry(e).label(&global.prog).to_string())
            .collect();
        println!("  {:?} {{{}}}", g.kind, members.join(", "));
    }

    // The paper's claim: "we can combine the eight NN messages into four
    // and the eight global sums into two parallel sets of four global sums."
    assert_eq!(global.schedule.count_kind(CommKind::Nnc), 4);
    assert_eq!(global.schedule.count_kind(CommKind::Reduction), 2);
    println!("\nFigure 1's combining confirmed: 8 NNC -> 4, 8 sums -> 2");
    Ok(())
}
