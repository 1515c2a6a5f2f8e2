//! Regression tests for *chained* redundancy absorption: when entry `B`
//! absorbs `C` and entry `A` later absorbs `B`, `A`'s final placement must
//! still cover `C`'s use. The obligations are inherited through the chain
//! (and an absorption is rejected outright when no candidate of the winner
//! can satisfy them).

use std::collections::HashMap;

use gcomm::core::{commgen, strategy, AnalysisCtx, CombinePolicy};
use gcomm::ir::Pos;
use gcomm::machine::ProcGrid;
use gcomm::{compile, Strategy};

/// Three same-shift reads of `a` with strictly growing sections, separated
/// by unrelated statements: absorption chains e0 → e1 → e2.
const CHAIN: &str = "
program chain
param n
real a(n,n), w(n,n), x(n,n), y(n,n), z(n,n) distribute (block, *)
a(1:n, 1:n) = 1
x(3:n, 1:n:2) = a(2:n-1, 1:n:2)
w(1:n, 1:n) = 2
y(3:n, 1:n) = a(2:n-1, 1:n)
z(2:n, 1:n) = a(1:n-1, 1:n)
end";

fn verify(c: &gcomm::core::Compiled) -> gcomm_exec::VerifyReport {
    let mut params = HashMap::new();
    params.insert("n".to_string(), 8i64);
    gcomm_exec::verify_schedule(c, &ProcGrid::balanced(4, 1), &params).unwrap()
}

#[test]
fn chain_collapses_to_one_covering_message() {
    let c = compile(CHAIN, Strategy::Global).unwrap();
    assert_eq!(c.static_messages(), 1, "{}", c.report());
    assert_eq!(c.schedule.eliminated(), 2);
    // The surviving message must dominate ALL three uses, including the
    // transitively absorbed first one.
    let ctx = AnalysisCtx::new(&c.prog);
    let g = &c.schedule.groups[0];
    for e in &c.schedule.entries {
        assert!(
            g.pos.dominates(&Pos::before(&c.prog, e.stmt), &ctx.dt),
            "placement must cover the chained use of {}",
            e.label(&c.prog)
        );
    }
    assert!(verify(&c).ok());
}

#[test]
fn chain_safe_without_subset_elimination() {
    // The A3 ablation path (subset elimination off) exposes wider candidate
    // sets where a forgotten chained obligation would let the greedy place
    // the surviving message after the first use.
    let ast = gcomm::parse_program(CHAIN).unwrap();
    let prog = gcomm::ir::lower(&ast).unwrap();
    let entries = commgen::number(commgen::generate(&prog));
    let ctx = AnalysisCtx::new(&prog);
    let sched = strategy::run_global_ablation(&ctx, entries, &CombinePolicy::default(), false);
    for g in &sched.groups {
        for e in &sched.entries {
            let covered_by_group = sched
                .absorptions
                .iter()
                .any(|a| a.absorbed == e.id && g.entries.contains(&a.by))
                || g.entries.contains(&e.id);
            if covered_by_group {
                assert!(
                    g.pos.dominates(&Pos::before(&prog, e.stmt), &ctx.dt),
                    "ablation placement must cover {}",
                    e.label(&prog)
                );
            }
        }
    }
    let c = gcomm::core::Compiled {
        prog,
        schedule: sched,
        stats: Default::default(),
        asds: Default::default(),
    };
    assert!(verify(&c).ok(), "{:?}", verify(&c).errors.first());
}

#[test]
fn impossible_obligations_reject_the_absorption() {
    // The covering read sits in a different branch arm: its candidates can
    // never dominate the first use, so the absorption must be rejected and
    // both messages survive.
    let src = "
program rej
param n
real a(n,n), x(n,n), z(n,n) distribute (block, *)
real c
a(1:n, 1:n) = 1
if (c > 0) then
  x(2:n, 1:n) = a(1:n-1, 1:n)
else
  z(2:n, 1:n) = a(1:n-1, 1:n)
endif
end";
    let c = compile(src, Strategy::Global).unwrap();
    // Both reads can be served by one message at the dominating junction
    // (the if head) — OR kept separate; either way every use is covered.
    let ctx = AnalysisCtx::new(&c.prog);
    for e in &c.schedule.entries {
        let covered = c.schedule.groups.iter().any(|g| {
            (g.entries.contains(&e.id)
                || c.schedule
                    .absorptions
                    .iter()
                    .any(|a| a.absorbed == e.id && g.entries.contains(&a.by)))
                && g.pos.dominates(&Pos::before(&c.prog, e.stmt), &ctx.dt)
        });
        assert!(covered, "{} uncovered: {}", e.label(&c.prog), c.report());
    }
    assert!(verify(&c).ok());
}
