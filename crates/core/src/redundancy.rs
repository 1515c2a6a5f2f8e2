//! Global redundancy elimination over ASDs (§4.6, Fig. 9f).
//!
//! Whenever two entries share a candidate position `P` and one's ASD
//! subsumes the other's (`D2 ⊆ D1 ∧ M2 ⊆ M1`, with both data sections
//! vectorized to `P`'s nesting level), the subsumed entry is *absorbed*: it
//! generates no communication of its own, and the subsuming entry's
//! remaining candidates are restricted to positions that still cover the
//! absorbed use (dominate it, at a nesting level no deeper than `P`'s) —
//! this is how choosing a *later-than-earliest* placement for `b1` in the
//! paper's running example eliminates that communication completely.

use gcomm_ir::Pos;

use crate::ctx::AnalysisCtx;
use crate::entry::{CommEntry, EntryId};
use crate::subset::CandidateTable;

/// A record that `absorbed`'s communication is fully served by `by`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absorption {
    /// The eliminated entry.
    pub absorbed: EntryId,
    /// The entry whose communication covers it.
    pub by: EntryId,
}

/// The *subsumption class* of each entry, by index into `entries`: a dense
/// id per distinct `(array, mapping)`. `(D2, M2)` can only be subsumed by
/// `(D1, M1)` on the same array with `M2 ⊆ M1`, and
/// [`Mapping::subset_of`] is equality except for `Local` — which
/// [`commgen::number`](crate::commgen::number) asserts no entry carries —
/// so entries of different classes never subsume one another and the pair
/// scans skip them on one integer compare. The ids number the classes in
/// `(array, mapping)` order: entries are sorted by that key, not hashed.
pub(crate) fn subsumption_classes(entries: &[CommEntry]) -> Vec<u32> {
    let key = |i: &usize| (entries[*i].array, &entries[*i].mapping);
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
    let mut class = vec![0u32; entries.len()];
    for (id, run) in order.chunk_by(|a, b| key(a) == key(b)).enumerate() {
        for &i in run {
            class[i] = id as u32;
        }
    }
    class
}

/// Runs redundancy elimination to a fixpoint. Returns the absorptions.
///
/// One forward sweep over the candidate positions in `Pos` order. At each
/// position every entry `c1` (ascending) is compared with the later
/// entries `c2` of its own [subsumption class](subsumption_classes):
/// first "`c2` absorbed by `c1`", then the reverse. After an absorption
/// the sweep *resumes where it stands* instead of rescanning from the
/// first position: a pair's verdict depends only on `(sub, sup, level)`,
/// an absorption only ever removes entries from positions (the loser
/// everywhere, the winner where its refined set shrank) and the banned
/// set only grows, so every pair a rescan would meet before the current
/// one was already judged "no" and would be again (DESIGN.md §3).
///
/// Coverage obligations are *inherited through chains*: when `A` absorbs
/// `B` and later `C` absorbs `A`, `C` must still dominate `B`'s use (not
/// just `A`'s) — otherwise `B`'s data would silently go unserved.
///
/// Degradation: every compared (same-class) pair charges the budget one
/// step (and the ASD subsumption tests themselves degrade to "not
/// subsumed"); on exhaustion the sweep stops and returns the absorptions
/// found so far (`core.degraded.redundancy` counts one per early stop).
/// Stopping early only *keeps* communication that could have been
/// eliminated — every recorded absorption was individually proven, so the
/// result stays legal.
pub fn eliminate(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
    table: &mut CandidateTable,
) -> Vec<Absorption> {
    let _s = gcomm_obs::span("core.redundancy");
    let class = subsumption_classes(entries);
    let same_class = |a: EntryId, b: EntryId| class[a.0 as usize] == class[b.0 as usize];
    // Position → entries, built once. Entries only ever *leave* a
    // position, so the index is a superset of the live table; the sweep
    // drops stale members when it arrives at a position.
    let mut index: Vec<(Pos, EntryId)> = table
        .cands
        .iter()
        .flat_map(|(e, row)| row.iter().map(move |&p| (p, e)))
        .collect();
    index.sort_unstable();

    let mut sweep = Sweep {
        ctx,
        entries,
        table,
        obligations: Vec::new(),
        banned: Vec::new(),
        absorptions: Vec::new(),
        attempts: 0,
    };
    let mut ids: Vec<EntryId> = Vec::new();
    'sweep: for at in index.chunk_by(|a, b| a.0 == b.0) {
        let pos = at[0].0;
        ids.clear();
        ids.extend(at.iter().map(|&(_, e)| e).filter(|&e| sweep.is_at(e, pos)));
        let level = pos.level(ctx.prog);
        let mut i = 0;
        'c1: while i < ids.len() {
            let c1 = ids[i];
            let mut j = i + 1;
            while j < ids.len() {
                let c2 = ids[j];
                if !same_class(c1, c2) {
                    j += 1;
                    continue;
                }
                if !ctx.budget.charge(1) {
                    break 'sweep;
                }
                if sweep.absorb(c1, c2, level) {
                    ids.remove(j);
                    if !sweep.is_at(c1, pos) {
                        ids.remove(i);
                        continue 'c1;
                    }
                    continue;
                }
                // Also reached when the forward absorption was just
                // banned: the pair is re-examined in the other direction.
                if sweep.absorb(c2, c1, level) {
                    if !sweep.is_at(c2, pos) {
                        ids.remove(j);
                    }
                    ids.remove(i);
                    continue 'c1;
                }
                j += 1;
            }
            i += 1;
        }
    }
    if ctx.budget.exhausted() {
        gcomm_obs::count("core.degraded.redundancy", 1);
    }
    // Absorption attempts plus the final "no pair left".
    gcomm_obs::count("core.redundancy.checks", sweep.attempts + 1);
    sweep.absorptions
}

/// The mutable state of one [`eliminate`] run.
struct Sweep<'a, 'p> {
    ctx: &'a AnalysisCtx<'p>,
    entries: &'a [CommEntry],
    table: &'a mut CandidateTable,
    /// Per surviving entry, by id: the uses (and level caps) of everything
    /// it has absorbed, directly or transitively. Empty until the first
    /// absorption.
    obligations: Vec<Vec<(Pos, u32)>>,
    /// Per winner, by id: the losers it was refused because it could not
    /// keep a candidate satisfying every inherited obligation. Empty until
    /// the first refusal.
    banned: Vec<Vec<EntryId>>,
    absorptions: Vec<Absorption>,
    attempts: u64,
}

/// The row of `v` at `e`, empty when `v` has none yet.
fn row<T>(v: &[Vec<T>], e: EntryId) -> &[T] {
    v.get(e.0 as usize).map_or(&[], Vec::as_slice)
}

/// The row of `v` at `e`, growing `v` to one row per entry on first use.
fn row_mut<T>(v: &mut Vec<Vec<T>>, entries: usize, e: EntryId) -> &mut Vec<T> {
    if v.is_empty() {
        v.resize_with(entries, Vec::new);
    }
    &mut v[e.0 as usize]
}

impl Sweep<'_, '_> {
    /// True while `pos` is still a candidate of the (unabsorbed) entry `e`.
    fn is_at(&self, e: EntryId, pos: Pos) -> bool {
        self.table.cands.contains(e, pos)
    }

    /// Absorbs `loser` into `winner` at a shared position of nesting level
    /// `level` if the pair is not banned, `loser`'s ASD at that level is
    /// subsumed by `winner`'s, and `winner` keeps a candidate that covers
    /// everything `loser` stands for (otherwise the pair is banned). True
    /// when the absorption happened.
    fn absorb(&mut self, winner: EntryId, loser: EntryId, level: u32) -> bool {
        let (ctx, entries) = (self.ctx, self.entries);
        let (win, lose) = (&entries[winner.0 as usize], &entries[loser.0 as usize]);
        if row(&self.banned, winner).contains(&loser) || !ctx.subsumed_within(lose, win, level) {
            return false;
        }
        self.attempts += 1;

        // The loser's own use, plus every obligation it had accumulated.
        let own = (Pos::before(ctx.prog, lose.stmt), level);
        let inherited = row(&self.obligations, loser);
        let refined: Vec<Pos> = self.table.cands[winner]
            .iter()
            .copied()
            .filter(|p| {
                inherited.iter().chain([&own]).all(|(before_use, cap)| {
                    p.dominates(before_use, &ctx.dt) && p.level(ctx.prog) <= *cap
                })
            })
            .collect();
        if refined.is_empty() {
            // No placement of the winner can cover everything the loser
            // stands for: reject this absorption.
            row_mut(&mut self.banned, entries.len(), winner).push(loser);
            return false;
        }

        self.table.cands.remove(loser);
        let mut obs = std::mem::take(row_mut(&mut self.obligations, entries.len(), loser));
        obs.push(own);
        self.table.cands.insert(winner, refined);
        row_mut(&mut self.obligations, entries.len(), winner).extend(obs);
        self.absorptions.push(Absorption {
            absorbed: loser,
            by: winner,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{candidates, commgen, earliest, latest};
    use gcomm_ir::IrProgram;

    fn setup(src: &str) -> (IrProgram, Vec<CommEntry>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        (prog, entries)
    }

    fn build_table(ctx: &AnalysisCtx<'_>, entries: &[CommEntry]) -> CandidateTable {
        let mut t = CandidateTable::default();
        for e in entries {
            let ep = earliest::earliest_pos(ctx, e);
            let lp = latest::latest(ctx, e);
            t.cands.insert(e.id, candidates::candidates(ctx, e, ep, lp));
        }
        t
    }

    #[test]
    fn identical_reads_collapse_to_one() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
b(2:n, 1:n) = a(1:n-1, 1:n)
c(2:n, 1:n) = a(1:n-1, 1:n)
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let mut table = build_table(&ctx, &entries);
        let abs = eliminate(&ctx, &entries, &mut table);
        assert_eq!(abs.len(), 1);
        assert_eq!(table.cands.len(), 1);
    }

    #[test]
    fn strided_subset_absorbed_by_dense_read() {
        // Figure 4's b1/b2: the odd-column read is covered by the dense one
        // when both are placed at a common (late) point.
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
  do j = 1, n
    c(i, j) = b(i-1, j)
  enddo
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let mut table = build_table(&ctx, &entries);
        assert_eq!(entries.len(), 2);
        let abs = eliminate(&ctx, &entries, &mut table);
        assert_eq!(abs.len(), 1, "b1 must be absorbed by b2");
        // The dense read (second entry) wins.
        assert_eq!(abs[0].by, entries[1].id);
        assert_eq!(abs[0].absorbed, entries[0].id);
        // And the winner's surviving candidates still dominate b1's use.
        let b1_use = Pos::before(&prog, entries[0].stmt);
        for p in &table.cands[entries[1].id] {
            assert!(p.dominates(&b1_use, &ctx.dt));
        }
    }

    #[test]
    fn different_shifts_are_not_redundant() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
b(2:n, 1:n) = a(1:n-1, 1:n)
c(1:n-1, 1:n) = a(2:n, 1:n)
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        let mut table = build_table(&ctx, &entries);
        let abs = eliminate(&ctx, &entries, &mut table);
        assert!(abs.is_empty());
        assert_eq!(table.cands.len(), 2);
    }
}
