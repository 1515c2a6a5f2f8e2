//! Subset elimination of candidate positions (§4.5).
//!
//! `CommSet(S)` is the set of entries for which statement position `S` is a
//! candidate. If `CommSet(S1) ⊆ CommSet(S2)`, clearing `S1` loses no
//! combining or redundancy-elimination opportunity: anything that could
//! happen at `S1` can happen at `S2`. For equal sets, the **later**
//! (dominated) position is kept, consistent with §4.7's preference for late
//! placement on the SP2.

use std::collections::{BTreeMap, BTreeSet};

use gcomm_guard::Budget;
use gcomm_ir::{DomTree, Pos};

use crate::entry::EntryId;

/// Candidate positions per entry (the working state of the placement
/// phases).
#[derive(Debug, Clone, Default)]
pub struct CandidateTable {
    /// Candidate positions per entry.
    pub cands: BTreeMap<EntryId, BTreeSet<Pos>>,
}

impl CandidateTable {
    /// Inverts the table: entries per position (`CommSet`).
    pub fn comm_sets(&self) -> BTreeMap<Pos, BTreeSet<EntryId>> {
        let mut out: BTreeMap<Pos, BTreeSet<EntryId>> = BTreeMap::new();
        for (&e, ps) in &self.cands {
            for &p in ps {
                out.entry(p).or_default().insert(e);
            }
        }
        out
    }

    /// Removes an entry everywhere (when absorbed by redundancy
    /// elimination).
    pub fn remove_entry(&mut self, e: EntryId) {
        self.cands.remove(&e);
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
    let mut positions: Vec<Pos> = table.cands.values().flatten().copied().collect();
    budget.note_mem(positions.len() as u64 * 8);
    positions.sort_unstable();
    positions.dedup();
    let index = |p: &Pos| positions.binary_search(p).expect("a collected position");
    let words = table.cands.len().div_ceil(64);
    let mut sets = vec![0u64; positions.len() * words];
    for (e, ps) in table.cands.values().enumerate() {
        for p in ps {
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
    for ps in table.cands.values_mut() {
        ps.retain(|p| !cleared[index(p)]);
    }
    debug_assert!(
        table.cands.values().all(|ps| !ps.is_empty()),
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
        assert_eq!(t.cands[&EntryId(0)].len(), 1);
        assert!(t.cands[&EntryId(0)].contains(&pos(2, 0)));
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
            assert_eq!(
                t.cands[&EntryId(e)].iter().copied().collect::<Vec<_>>(),
                vec![pos(2, 0)]
            );
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
        assert!(t.cands[&EntryId(0)].contains(&pos(1, 0)));
        assert!(t.cands[&EntryId(1)].contains(&pos(2, 0)));
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
        for ps in t.cands.values() {
            assert!(!ps.is_empty());
        }
        // Everything collapses onto p3.
        assert!(t.cands.values().all(|ps| ps.contains(&pos(3, 0))));
    }
}
