//! `Earliest(u)` — the earliest single dominating placement (§4.3, Fig. 8).
//!
//! The traversal walks the SSA definition chain upward from the use. `Test`
//! decides whether a definition blocks further upward motion: a regular
//! definition blocks when it carries a dependence to the use; a
//! φ-definition blocks when **two or more** of its parameters lead (through
//! `Rcount`) to dependence-bearing definitions — meaning the value would
//! have to be communicated on multiple incoming paths, so the φ itself is
//! the earliest *single dominating* point (Claim 4.1).

use gcomm_ir::{Pos, StmtId};
use gcomm_ssa::{DefId, DefKind, DefWalk};

use crate::ctx::{ext_dep_at, AnalysisCtx, DepState, PairTable};
use crate::entry::CommEntry;

/// `Earliest(u)` for one read: the first definition on the upward chain
/// whose `Test` is true (the ENTRY pseudo-definition always is).
pub fn earliest_def_for_read(ctx: &AnalysisCtx<'_>, stmt: StmtId, idx: usize) -> DefId {
    // invariant: SSA construction gives every read a reaching definition
    // (the ENTRY pseudo-def backstops uses with no prior write), so a miss
    // here is a builder bug, not a property of any source program.
    let mut d = ctx
        .ssa
        .use_def(stmt, idx)
        .expect("every read has a reaching definition");
    let mut state = ctx.dep_state();
    let DepState { pairs, walk, .. } = &mut *state;
    loop {
        if test(ctx, pairs, walk, d, stmt, idx) {
            return d;
        }
        match ctx.ssa.def(d).dom_prev {
            Some(p) => d = p,
            None => return d, // ENTRY (test() is true there, defensive)
        }
    }
}

/// The paper's `Test(d, u)` (Fig. 8b) for read `idx` of `u_stmt`, reading
/// direction analyses from `pairs`. `visit` is scratch space for
/// [`rcount`]; its contents on entry are ignored.
pub(crate) fn test(
    ctx: &AnalysisCtx<'_>,
    pairs: &mut PairTable,
    visit: &mut DefWalk,
    d: DefId,
    u_stmt: StmtId,
    idx: usize,
) -> bool {
    gcomm_obs::count("core.earliest.tests", 1);
    let info = ctx.ssa.def(d);
    match &info.kind {
        DefKind::Entry => true,
        DefKind::Regular { .. } => {
            let Some(def) = ctx.def_access(d) else {
                return true; // defensive (counted): unknown def blocks motion
            };
            // At the common nesting level: one direction set per level.
            let res = pairs.get(ctx, d, def, u_stmt, idx);
            ext_dep_at(res, def.1, u_stmt, res.allowed.len() as u32)
        }
        k => {
            let l = ctx.prog.cnl_node_stmt(info.node, u_stmt);
            let mut positives = 0u32;
            for arg in k.phi_args() {
                // Fig. 8(b): the visit array is cleared for each parameter
                // (`visit[] = 0, visit[d] = 1`); only the φ being tested
                // stays marked, so the walk cannot cycle through it.
                visit.clear();
                visit.visit(d);
                if rcount(ctx, pairs, visit, arg, u_stmt, idx, l) > 0 {
                    positives += 1;
                    if positives >= 2 {
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// The paper's `Rcount` (Fig. 8c): counts dependence-bearing definitions
/// reachable through a φ-parameter, visiting each definition once.
pub(crate) fn rcount(
    ctx: &AnalysisCtx<'_>,
    pairs: &mut PairTable,
    visit: &mut DefWalk,
    d: DefId,
    u_stmt: StmtId,
    idx: usize,
    l: u32,
) -> u32 {
    if !visit.visit(d) {
        return 0;
    }
    let info = ctx.ssa.def(d);
    match &info.kind {
        DefKind::Entry => 1, // the ENTRY pseudo-def is always dependent
        DefKind::Regular { prev, .. } => {
            let Some(def) = ctx.def_access(d) else {
                return 1; // defensive (counted)
            };
            let res = pairs.get(ctx, d, def, u_stmt, idx);
            let cnl = res.allowed.len() as u32;
            if ext_dep_at(res, def.1, u_stmt, l.min(cnl)) {
                1
            } else {
                // Preserving definition: earlier values shine through.
                rcount(ctx, pairs, visit, *prev, u_stmt, idx, l)
            }
        }
        k => k
            .phi_args()
            .map(|a| rcount(ctx, pairs, visit, a, u_stmt, idx, l))
            .sum(),
    }
}

/// `Earliest` for a whole (possibly coalesced) entry: the deepest of the
/// per-read earliest definitions — communication must sit after *all* of
/// them. The per-read results all dominate the use, hence are totally
/// ordered by dominance.
pub fn earliest_pos(ctx: &AnalysisCtx<'_>, e: &CommEntry) -> Pos {
    let mut best: Option<Pos> = None;
    for &r in &e.reads {
        let d = earliest_def_for_read(ctx, e.stmt, r);
        let p = ctx.ssa.def_pos(ctx.prog, d);
        best = Some(match best {
            None => p,
            Some(b) => {
                if b.dominates(&p, &ctx.dt) {
                    p // p is later (deeper): the binding constraint
                } else {
                    b
                }
            }
        });
    }
    best.unwrap_or(Pos::top(ctx.prog.cfg.entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commgen;
    use gcomm_ir::{IrProgram, NodeKind};

    fn setup(src: &str) -> (IrProgram, Vec<crate::CommEntry>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        (prog, entries)
    }

    #[test]
    fn earliest_after_unconditional_def() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n), b(n), c(n) distribute (block)
a(1:n) = 1
b(1:n) = 2
c(2:n) = a(1:n-1)
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let p = earliest_pos(&ctx, &entries[0]);
        // Right after statement 0 (the def of a), i.e. slot 1 of the block.
        assert_eq!(p, Pos::after(&prog, StmtId(0)));
    }

    #[test]
    fn earliest_is_phi_after_branch_defs() {
        // Figure 4 of the paper: a defined in both arms; the earliest single
        // dominating point is the join (φ), not the two defs.
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n), d(n,n), c(n,n) distribute (block,block)
real cond
if (cond > 0) then
  a(:, :) = 3
else
  a(:, :) = d(:, :)
endif
do i = 2, n
  c(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let e = entries.iter().find(|e| e.label.starts_with("a ")).unwrap();
        let d = earliest_def_for_read(&ctx, e.stmt, e.reads[0]);
        assert!(ctx.ssa.def(d).kind.is_phi());
        // The φ sits at the join node, which strictly dominates the loop.
        let p = earliest_pos(&ctx, e);
        assert!(p.dominates(&Pos::before(&prog, e.stmt), &ctx.dt));
        assert!(!matches!(
            prog.cfg.node(p.node).kind,
            NodeKind::Entry | NodeKind::Header(_)
        ));
    }

    #[test]
    fn unrelated_def_does_not_block() {
        // The def of b between the def of a and its use must not stop the
        // upward motion of a's communication.
        let (prog, entries) = setup(
            "
program t
param n
real a(n), b(n), c(n) distribute (block)
a(1:n) = 1
b(1:n) = 2
c(2:n) = a(1:n-1) + b(1:n-1)
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let ea = entries.iter().find(|e| e.label.starts_with("a ")).unwrap();
        let eb = entries.iter().find(|e| e.label.starts_with("b ")).unwrap();
        assert_eq!(earliest_pos(&ctx, ea), Pos::after(&prog, StmtId(0)));
        assert_eq!(earliest_pos(&ctx, eb), Pos::after(&prog, StmtId(1)));
    }

    #[test]
    fn disjoint_def_does_not_block() {
        // Figure 4: b(:,2:n:2) does not block the odd-column use b1.
        let (prog, entries) = setup(
            "
program t
param n
real b(n,n), c(n,n) distribute (block,block)
b(1:n, 1:n:2) = 1
b(1:n, 2:n:2) = 2
do i = 2, n
  do j = 1, n, 2
    c(i, j) = b(i-1, j)
  enddo
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let e = &entries[0];
        // Earliest must be right after statement 0, skipping the
        // even-column def (statement 1).
        assert_eq!(earliest_pos(&ctx, e), Pos::after(&prog, StmtId(0)));
    }

    #[test]
    fn loop_carried_value_blocks_at_header_phi() {
        // The communicated array is redefined each iteration and read with a
        // +1 carried distance: the header φ is the earliest point.
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let d = earliest_def_for_read(&ctx, entries[0].stmt, 0);
        let info = ctx.ssa.def(d);
        assert!(matches!(info.kind, gcomm_ssa::DefKind::PhiEnter { .. }));
        assert!(matches!(prog.cfg.node(info.node).kind, NodeKind::Header(_)));
    }

    #[test]
    fn earliest_dominates_latest() {
        let srcs = [
            "
program t
param n
real a(n,n), c(n,n) distribute (block,block)
a(1:n, 1:n) = 0
do i = 2, n
  c(i, 1:n) = a(i-1, 1:n)
enddo
end",
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        ];
        for src in srcs {
            let (prog, entries) = setup(src);
            let ctx = AnalysisCtx::new(&prog);
            for e in &entries {
                let ep = earliest_pos(&ctx, e);
                let lp = crate::latest::latest(&ctx, e);
                assert!(
                    ep.dominates(&lp, &ctx.dt),
                    "Earliest must dominate Latest for {}",
                    e.label
                );
            }
        }
    }
}
