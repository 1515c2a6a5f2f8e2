//! Subset elimination of candidate positions (§4.5).
//!
//! `CommSet(S)` is the set of entries for which statement position `S` is a
//! candidate. If `CommSet(S1) ⊆ CommSet(S2)`, clearing `S1` loses no
//! combining or redundancy-elimination opportunity: anything that could
//! happen at `S1` can happen at `S2`. For equal sets, the **later**
//! (dominated) position is kept, consistent with §4.7's preference for late
//! placement on the SP2.

use std::fmt;
use std::ops::Index;

use gcomm_guard::Budget;
use gcomm_ir::{DomTree, Pos};

use crate::entry::EntryId;

/// Candidate positions per entry (the working state of the placement
/// phases).
#[derive(Debug, Clone, Default)]
pub struct CandidateTable {
    /// Candidate positions per entry.
    pub cands: Rows,
}

/// Candidate rows indexed by [`EntryId`]: per live entry one ascending,
/// duplicate-free `Vec<Pos>`. An entry never inserted, or removed (once
/// absorbed), has no row; iteration is in entry order.
#[derive(Clone, Default)]
pub struct Rows {
    rows: Vec<Option<Vec<Pos>>>,
    live: usize,
}

impl Rows {
    /// Sets `id`'s row, sorting and de-duplicating `row` unless it already
    /// is (a [`candidates`](crate::candidates::candidates) window is).
    pub fn insert(&mut self, id: EntryId, mut row: Vec<Pos>) {
        if !row.is_sorted_by(|a, b| a < b) {
            row.sort_unstable();
            row.dedup();
        }
        let i = id.0 as usize;
        if self.rows.len() <= i {
            self.rows.resize_with(i + 1, || None);
        }
        self.live += usize::from(self.rows[i].is_none());
        self.rows[i] = Some(row);
    }

    /// Removes `id`'s row (an absorbed entry), returning it.
    pub fn remove(&mut self, id: EntryId) -> Option<Vec<Pos>> {
        let row = self.rows.get_mut(id.0 as usize)?.take();
        self.live -= usize::from(row.is_some());
        row
    }

    /// `id`'s row, if it has one.
    pub fn get(&self, id: EntryId) -> Option<&[Pos]> {
        self.rows.get(id.0 as usize)?.as_deref()
    }

    /// True while `p` is a candidate of `id`.
    pub fn contains(&self, id: EntryId, p: Pos) -> bool {
        self.get(id)
            .is_some_and(|row| row.binary_search(&p).is_ok())
    }

    /// Entries with a row.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry has a row.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `(entry, row)` in entry order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &[Pos])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, row)| Some((EntryId(i as u32), row.as_deref()?)))
    }

    /// The entries with a row, in order.
    pub fn ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Pins `id` to the single position `p` (the greedy choice).
    pub(crate) fn pin(&mut self, id: EntryId, p: Pos) {
        // invariant: callers pin entries taken from this table.
        let row = self.rows[id.0 as usize].as_mut().expect("entry alive");
        row.clear();
        row.push(p);
    }

    /// Keeps the positions `keep` accepts, in every row (order is kept).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Pos) -> bool) {
        for row in self.rows.iter_mut().flatten() {
            row.retain(&mut keep);
        }
    }
}

impl Index<EntryId> for Rows {
    type Output = [Pos];

    /// `id`'s row; panics when it has none.
    fn index(&self, id: EntryId) -> &[Pos] {
        self.get(id).expect("entry has a candidate row")
    }
}

/// Equal when the same entries have the same rows, as the map it replaces.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

/// Prints as the map it replaces: `{EntryId(0): [Pos { .. }, ..], ..}`.
impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Performs subset elimination in place. Positions whose `CommSet` is a
/// strict subset of another's are cleared; among positions with equal
/// `CommSet`s only the latest (most dominated; ties broken by position
/// order) survives.
///
/// Degradation: every pairwise comparison charges the budget; when it
/// exhausts, the remaining positions simply stay uncleared
/// (`core.degraded.subset` counts one per early stop). Keeping extra
/// candidate positions is always legal — each cleared position was
/// individually justified, and none of the later phases require the table
/// to be minimal.
pub fn subset_eliminate(table: &mut CandidateTable, dt: &DomTree, budget: &Budget) {
    let _s = gcomm_obs::span("core.subset");
    // Every candidate position once, ascending, and per position one bit
    // per entry (in table order): its `CommSet`. `⊆` is then an AND per
    // word and `len` a popcount, with no lookup inside the pair loop.
    let mut positions: Vec<Pos> = table
        .cands
        .iter()
        .flat_map(|(_, row)| row)
        .copied()
        .collect();
    budget.note_mem(positions.len() as u64 * 8);
    positions.sort_unstable();
    positions.dedup();
    let index = |p: &Pos| positions.binary_search(p).expect("a collected position");
    let words = table.cands.len().div_ceil(64);
    let mut sets = vec![0u64; positions.len() * words];
    for (e, (_, row)) in table.cands.iter().enumerate() {
        for p in row {
            sets[index(p) * words + e / 64] |= 1 << (e % 64);
        }
    }
    let set = |p: usize| &sets[p * words..(p + 1) * words];
    let lens: Vec<u32> = (0..positions.len())
        .map(|p| set(p).iter().map(|w| w.count_ones()).sum())
        .collect();
    let mut cleared = vec![false; positions.len()];

    'outer: for (p, &pos_p) in positions.iter().enumerate() {
        for (q, &pos_q) in positions.iter().enumerate() {
            if !budget.charge(1) {
                gcomm_obs::count("core.degraded.subset", 1);
                break 'outer;
            }
            if p == q {
                continue;
            }
            if set(p).iter().zip(set(q)).all(|(sp, sq)| sp & !sq == 0) {
                if lens[p] < lens[q] {
                    cleared[p] = true;
                    break;
                }
                // Equal sets: keep the later position. All entries' candidate
                // sets lie on a dominator chain, so p and q are comparable.
                let p_earlier = pos_p.dominates(&pos_q, dt);
                let q_earlier = pos_q.dominates(&pos_p, dt);
                let p_loses = if p_earlier != q_earlier {
                    p_earlier // q is later: p is cleared
                } else {
                    pos_p < pos_q // deterministic fallback
                };
                if p_loses {
                    cleared[p] = true;
                    break;
                }
            }
        }
    }

    let eliminated = cleared.iter().filter(|&&c| c).count();
    gcomm_obs::count("core.subset.eliminated", eliminated as u64);
    table.cands.retain(|p| !cleared[index(p)]);
    debug_assert!(
        table.cands.iter().all(|(_, row)| !row.is_empty()),
        "subset elimination must leave every entry a candidate"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_ir::{Cfg, NodeId, NodeKind};

    fn line_cfg(n_blocks: usize) -> (Cfg, DomTree) {
        let mut g = Cfg::new();
        let mut prev = g.entry;
        for _ in 0..n_blocks {
            let b = g.add_node(NodeKind::Block, None, 0);
            g.add_edge(prev, b);
            prev = b;
        }
        g.exit = prev;
        let dt = DomTree::compute(&g);
        (g, dt)
    }

    fn pos(node: u32, slot: usize) -> Pos {
        Pos {
            node: NodeId(node),
            slot,
        }
    }

    #[test]
    fn rows_stay_sorted_and_count_live_entries() {
        let mut r = Rows::default();
        r.insert(EntryId(2), vec![pos(3, 1), pos(1, 0), pos(3, 1)]);
        r.insert(EntryId(0), vec![pos(1, 0)]);
        assert_eq!(r.len(), 2);
        assert_eq!(&r[EntryId(2)], &[pos(1, 0), pos(3, 1)]);
        assert!(r.contains(EntryId(2), pos(3, 1)) && !r.contains(EntryId(1), pos(1, 0)));
        assert_eq!(r.ids().collect::<Vec<_>>(), [EntryId(0), EntryId(2)]);
        assert_eq!(r.remove(EntryId(0)), Some(vec![pos(1, 0)]));
        assert_eq!((r.len(), r.remove(EntryId(0))), (1, None));
        assert_eq!(
            format!("{r:?}"),
            format!("{{EntryId(2): {:?}}}", &r[EntryId(2)])
        );
        let mut fresh = Rows::default();
        fresh.insert(EntryId(2), r[EntryId(2)].to_vec());
        assert_eq!(r, fresh, "a removed row leaves no trace in `==`");
    }

    #[test]
    fn strict_subsets_are_cleared() {
        let (_, dt) = line_cfg(3);
        let mut t = CandidateTable::default();
        // e0 at {p1, p2}; e1 at {p2}. CommSet(p1) = {e0} ⊂ CommSet(p2) =
        // {e0, e1} → p1 cleared.
        t.cands
            .insert(EntryId(0), [pos(1, 0), pos(2, 0)].into_iter().collect());
        t.cands
            .insert(EntryId(1), [pos(2, 0)].into_iter().collect());
        subset_eliminate(&mut t, &dt, &Budget::unlimited());
        assert_eq!(t.cands[EntryId(0)].len(), 1);
        assert!(t.cands[EntryId(0)].contains(&pos(2, 0)));
    }

    #[test]
    fn equal_sets_keep_latest() {
        let (_, dt) = line_cfg(3);
        let mut t = CandidateTable::default();
        // Both entries at both positions; node 2 is dominated by node 1, so
        // node 2 (later) survives.
        for e in 0..2 {
            t.cands
                .insert(EntryId(e), [pos(1, 0), pos(2, 0)].into_iter().collect());
        }
        subset_eliminate(&mut t, &dt, &Budget::unlimited());
        for e in 0..2 {
            assert_eq!(t.cands[EntryId(e)].to_vec(), vec![pos(2, 0)]);
        }
    }

    #[test]
    fn incomparable_sets_survive() {
        let (_, dt) = line_cfg(3);
        let mut t = CandidateTable::default();
        t.cands
            .insert(EntryId(0), [pos(1, 0)].into_iter().collect());
        t.cands
            .insert(EntryId(1), [pos(2, 0)].into_iter().collect());
        subset_eliminate(&mut t, &dt, &Budget::unlimited());
        assert!(t.cands[EntryId(0)].contains(&pos(1, 0)));
        assert!(t.cands[EntryId(1)].contains(&pos(2, 0)));
    }

    #[test]
    fn every_entry_keeps_a_candidate() {
        let (_, dt) = line_cfg(4);
        let mut t = CandidateTable::default();
        t.cands.insert(
            EntryId(0),
            [pos(1, 0), pos(2, 0), pos(3, 0)].into_iter().collect(),
        );
        t.cands
            .insert(EntryId(1), [pos(2, 0), pos(3, 0)].into_iter().collect());
        t.cands
            .insert(EntryId(2), [pos(3, 0)].into_iter().collect());
        subset_eliminate(&mut t, &dt, &Budget::unlimited());
        for (_, row) in t.cands.iter() {
            assert!(!row.is_empty());
        }
        // Everything collapses onto p3.
        assert!(t.cands.iter().all(|(_, row)| row.contains(&pos(3, 0))));
    }
}
