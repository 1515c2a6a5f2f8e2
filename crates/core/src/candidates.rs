//! Candidate placement positions (§4.4, Fig. 9e).
//!
//! Any safe position for a *single* copy of a use's communication must
//! dominate the use; Claims 4.5/4.6 show these are exactly the statements
//! encountered walking the dominator tree from `Latest(u)`'s block up to
//! `Earliest(u)`'s block.

use gcomm_ir::Pos;

use crate::ctx::{defensive, AnalysisCtx};
use crate::entry::CommEntry;

/// Marks all candidate positions for an entry, given its `Latest` and
/// `Earliest` positions: a [`CandidateTable`](crate::subset::CandidateTable)
/// row, ascending and duplicate-free. Reductions get the single `Latest`
/// position (§6.2).
///
/// Degradation: once the analysis budget is exhausted the window collapses
/// to the single `Latest` position — the `Strategy::Original` placement,
/// which always dominates the use and is therefore legal; the entry merely
/// loses its hoisting/elimination opportunities
/// (`core.degraded.candidates` counts these).
pub fn candidates(ctx: &AnalysisCtx<'_>, e: &CommEntry, earliest: Pos, latest: Pos) -> Vec<Pos> {
    if e.is_reduction() {
        return vec![latest];
    }
    if ctx.budget.exhausted() {
        gcomm_obs::count("core.degraded.candidates", 1);
        return vec![latest];
    }
    let mut out = Vec::new();
    window(ctx, earliest, latest, &mut out);
    out.sort_unstable();
    out.dedup();
    // Candidate windows are the unit of super-linear cost downstream
    // (subset elimination and combining are pairwise over positions), so
    // their size is what the budget meters.
    ctx.budget.charge(out.len() as u64);
    ctx.budget
        .note_mem(out.len() as u64 * std::mem::size_of::<Pos>() as u64);
    out
}

/// The unbudgeted dominator-tree walk of §4.4, appending block by block
/// from `Latest`'s up.
fn window(ctx: &AnalysisCtx<'_>, earliest: Pos, latest: Pos, out: &mut Vec<Pos>) {
    let slots = |node, lo, hi| (lo..=hi).map(move |slot| Pos { node, slot });
    if !earliest.dominates(&latest, &ctx.dt) {
        // An inverted window: both dominate the use, so Latest lies above
        // Earliest. Fig. 8's `Test` can block at a φ whose parameters
        // reach one dependence-bearing definition by two paths, below the
        // loop `DepLevel` already hoists out of (2 of 2 000 generated
        // programs; no kernel or corpus program). The single `Latest`
        // point is legal, and the higher of the two. Counted, not
        // asserted: real input reaches it.
        gcomm_obs::count("core.defensive.earliest_not_dominating", 1);
        out.push(latest);
        return;
    }
    if earliest.node == latest.node {
        out.extend(slots(latest.node, earliest.slot, latest.slot));
        return;
    }
    // Mark the tail of Latest's block up to Latest(u).
    out.extend(slots(latest.node, 0, latest.slot));
    // Walk dominator parents, marking whole blocks, until Earliest's block.
    let mut c = ctx.dt.parent(latest.node);
    while let Some(n) = c {
        let bottom = Pos::bottom(ctx.prog, n).slot;
        if n == earliest.node {
            out.extend(slots(n, earliest.slot, bottom));
            return;
        }
        out.extend(slots(n, 0, bottom));
        c = ctx.dt.parent(n);
    }
    // Earliest's block was not an ancestor (cannot happen when earliest
    // dominates latest); keep what we have plus the safe point.
    defensive("core.defensive.earliest_not_ancestor");
    out.push(latest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{commgen, earliest::earliest_pos, latest::latest};
    use gcomm_ir::IrProgram;

    fn setup(src: &str) -> (IrProgram, Vec<crate::CommEntry>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        (prog, entries)
    }

    #[test]
    fn same_block_range() {
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
        let e = &entries[0];
        let ep = earliest_pos(&ctx, e);
        let lp = latest(&ctx, e);
        let cands = candidates(&ctx, e, ep, lp);
        // After stmt 0 (slot 1), after stmt 1 (slot 2) == before stmt 2.
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&ep));
        assert!(cands.contains(&lp));
    }

    #[test]
    fn cross_block_walk_collects_preheader() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n), c(n,n) distribute (block,block)
a(1:n, 1:n) = 0
do i = 2, n
  c(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let e = &entries[0];
        let ep = earliest_pos(&ctx, e);
        let lp = latest(&ctx, e);
        let cands = candidates(&ctx, e, ep, lp);
        // Latest is the loop preheader; earliest is after the def. The
        // candidate set contains both and everything between.
        assert!(cands.contains(&ep));
        assert!(cands.contains(&lp));
        assert!(cands.len() >= 2);
        // All candidates dominate the use.
        let before_use = Pos::before(&prog, e.stmt);
        for p in &cands {
            assert!(p.dominates(&before_use, &ctx.dt));
        }
    }

    #[test]
    fn reduction_has_single_candidate() {
        let (prog, entries) = setup(
            "
program t
param n
real g(n,n) distribute (block,block)
real s
do i = 1, n
  s = sum(g(i, 1:n))
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let e = &entries[0];
        let cands = candidates(&ctx, e, earliest_pos(&ctx, e), latest(&ctx, e));
        assert_eq!(cands.len(), 1);
    }
}
