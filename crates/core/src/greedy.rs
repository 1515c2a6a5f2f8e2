//! Greedy choice of final positions and message groups (§4.7, Fig. 9g).
//!
//! "Consider the most constrained communication entry next, and put it
//! where it is compatible in communication pattern with the largest number
//! of other candidate communications" — similar to Click's global code
//! motion heuristic. Each group is then placed at the latest position
//! common to its members (buffer/cache folk truism for the SP2).

use gcomm_ir::Pos;

use crate::ctx::AnalysisCtx;
use crate::entry::{CommEntry, CommKind, EntryId};
use crate::schedule::PlacedGroup;
use crate::subset::CandidateTable;

/// Order in which the greedy pass considers entries (ablation A1; the
/// paper uses most-constrained-first, after Click's global code motion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GreedyOrder {
    /// Fewest remaining candidates first (the paper's heuristic).
    #[default]
    MostConstrained,
    /// Most remaining candidates first (inverted, for comparison).
    LeastConstrained,
    /// Plain program order.
    ProgramOrder,
}

/// Limits under which two communications may combine into one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinePolicy {
    /// Maximum combined message size in bytes (paper: 20 KB on the SP2,
    /// "beyond which combining messages leads to diminishing returns").
    pub max_combined_bytes: u64,
    /// Bytes per array element (doubles).
    pub elem_bytes: u64,
    /// Whether combining is enabled at all (ablation switch).
    pub enabled: bool,
    /// Entry consideration order.
    pub order: GreedyOrder,
}

impl Default for CombinePolicy {
    fn default() -> Self {
        CombinePolicy {
            max_combined_bytes: 20 * 1024,
            elem_bytes: 8,
            enabled: true,
            order: GreedyOrder::MostConstrained,
        }
    }
}

/// True when entries `a` and `b` may be combined into one message at a
/// position of nesting level `level` (§4.7's compatibility criteria).
pub fn compatible(
    ctx: &AnalysisCtx<'_>,
    a: &CommEntry,
    b: &CommEntry,
    level: u32,
    policy: &CombinePolicy,
) -> bool {
    if !policy.enabled || !a.mapping.compatible(&b.mapping) {
        return false;
    }
    match (a.kind, b.kind) {
        // Reductions exchange partial results, not the data sections: the
        // combined payload is a handful of scalars. They combine when they
        // reduce the same array, or sections of identical shape (the
        // single-descriptor representation needs identical sections for
        // different arrays).
        (CommKind::Reduction, CommKind::Reduction) => {
            a.array == b.array
                || ctx
                    .asd_shared(a, level)
                    .section
                    .same_shape(&ctx.asd_shared(b, level).section)
        }
        (CommKind::Reduction, _) | (_, CommKind::Reduction) => false,
        // NNC ghost exchanges: mapping equality is checked in physical
        // processor space (the paper's extension), so different arrays may
        // share a message; sizes are assumed within range for boundary
        // strips ("rules of thumb like assuming that NNC ... [is] operating
        // within the range suitable for combining").
        (CommKind::Nnc, CommKind::Nnc) => size_ok(ctx, a, b, level, policy),
        _ => {
            // General data motion: different arrays need identical sections
            // under the shared descriptor; same-array entries need a
            // bounded-blowup union.
            let sa = ctx.asd_shared(a, level);
            let sb = ctx.asd_shared(b, level);
            if a.array == b.array {
                sa.section.union_bbox(&sb.section, &ctx.sym).is_some()
                    && size_ok(ctx, a, b, level, policy)
            } else {
                sa.section.same_shape(&sb.section) && size_ok(ctx, a, b, level, policy)
            }
        }
    }
}

/// Size-threshold check: enforced when sizes are compile-time constants;
/// symbolic sizes fall back to the paper's rules of thumb (allow NNC,
/// otherwise allow — generals were already filtered by shape rules).
fn size_ok(
    ctx: &AnalysisCtx<'_>,
    a: &CommEntry,
    b: &CommEntry,
    level: u32,
    policy: &CombinePolicy,
) -> bool {
    let ca = ctx.asd_shared(a, level).section.count(&|_| None);
    let cb = ctx.asd_shared(b, level).section.count(&|_| None);
    match (ca, cb) {
        (Some(x), Some(y)) => (x + y) * policy.elem_bytes <= policy.max_combined_bytes,
        _ => true,
    }
}

/// Runs the greedy choice and forms the final groups.
///
/// Entries are processed most-constrained first (`|StmtSet(c)|` ascending,
/// ties by id). Each is pinned to the candidate position where it can
/// combine with the most other entries; position ties prefer the **latest**
/// position. Pinned entries then [`partition`] per position into
/// compatibility groups.
pub fn choose(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
    table: &mut CandidateTable,
    policy: &CombinePolicy,
) -> Vec<PlacedGroup> {
    let _s = gcomm_obs::span("core.greedy");
    let mut order: Vec<EntryId> = table.cands.ids().collect();
    gcomm_obs::count("core.greedy.rounds", order.len() as u64);
    let cands = &table.cands;
    match policy.order {
        GreedyOrder::MostConstrained => order.sort_by_key(|&e| (cands[e].len(), e)),
        GreedyOrder::LeastConstrained => order.sort_by_key(|&e| (usize::MAX - cands[e].len(), e)),
        GreedyOrder::ProgramOrder => order.sort(),
    }
    // Position → entries, ascending, built once. Entries only ever leave
    // a position (a pin keeps one of an entry's candidates), so the index
    // stays a superset of the live table and is read against it.
    let mut index: Vec<(Pos, EntryId)> = cands
        .iter()
        .flat_map(|(e, row)| row.iter().map(move |&p| (p, e)))
        .collect();
    index.sort_unstable();

    for &eid in &order {
        let e = &entries[eid.0 as usize];
        let row = &table.cands[eid];
        // Pre-charge the whole compatibility scan for this entry (one unit
        // per candidate × entry pair). If it doesn't fit, degrade: pin to
        // the latest remaining candidate — still inside the (possibly
        // refined) window, hence legal — and skip the combining search.
        let scan_cost = (row.len() as u64).saturating_mul(table.cands.len() as u64);
        if !ctx.budget.charge(scan_cost) {
            gcomm_obs::count("core.degraded.greedy", 1);
            if let Some(&p) = row.last() {
                table.cands.pin(eid, p);
            }
            continue;
        }
        let mut best: Option<(usize, Pos)> = None;
        for &p in row {
            let level = p.level(ctx.prog);
            let from = index.partition_point(|&(q, _)| q < p);
            let count = index[from..]
                .iter()
                .take_while(|&&(q, _)| q == p)
                .filter(|&&(_, oid)| {
                    oid != eid
                        && table.cands.contains(oid, p)
                        && compatible(ctx, e, &entries[oid.0 as usize], level, policy)
                })
                .count();
            best = Some(match best {
                None => (count, p),
                Some((bc, bp)) => {
                    if count > bc || (count == bc && later(ctx, p, bp)) {
                        (count, p)
                    } else {
                        (bc, bp)
                    }
                }
            });
        }
        if let Some((_, p)) = best {
            table.cands.pin(eid, p);
        }
    }

    let pinned = table
        .cands
        .iter()
        .filter_map(|(eid, row)| row.first().map(|&p| (eid, p)));
    partition(ctx, entries, pinned, policy)
}

/// The one first-fit grouping rule (§4.7), shared by the greedy choice and
/// the optimal search's leaves so the two are compared like for like. Per
/// position, taking `pinned` in the order given: an entry joins the first
/// group at its position whose every member it is [`compatible`] with,
/// else opens a new group; groups come out in position order, then
/// creation order.
///
/// With no budget left, entries become singleton groups instead (no
/// combining scan). A group of one is always legal — combining only ever
/// merges messages.
pub(crate) fn partition(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
    pinned: impl IntoIterator<Item = (EntryId, Pos)>,
    policy: &CombinePolicy,
) -> Vec<PlacedGroup> {
    // By position, each position's entries in the order given (the sort
    // is stable).
    let mut by_pos: Vec<(Pos, EntryId)> = pinned.into_iter().map(|(e, p)| (p, e)).collect();
    by_pos.sort_by_key(|&(p, _)| p);
    let mut groups = Vec::new();
    for at in by_pos.chunk_by(|a, b| a.0 == b.0) {
        let pos = at[0].0;
        let level = pos.level(ctx.prog);
        let mut parts: Vec<Vec<EntryId>> = Vec::new();
        for &(_, id) in at {
            let e = &entries[id.0 as usize];
            let slot = if ctx.budget.exhausted() {
                gcomm_obs::count("core.degraded.greedy", 1);
                None
            } else {
                parts.iter_mut().find(|g| {
                    g.iter()
                        .all(|&m| compatible(ctx, e, &entries[m.0 as usize], level, policy))
                })
            };
            match slot {
                Some(g) => g.push(id),
                None => parts.push(vec![id]),
            }
        }
        for members in parts {
            let first = &entries[members[0].0 as usize];
            groups.push(PlacedGroup {
                pos,
                entries: members,
                mapping: first.mapping.clone(),
                kind: first.kind,
            });
        }
    }
    groups
}

/// True if `p` is later than `q` in execution order (q dominates p); falls
/// back to position order when incomparable.
fn later(ctx: &AnalysisCtx<'_>, p: Pos, q: Pos) -> bool {
    if q.dominates(&p, &ctx.dt) {
        true
    } else if p.dominates(&q, &ctx.dt) {
        false
    } else {
        p > q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{candidates, commgen, earliest, latest, redundancy, subset};
    use gcomm_ir::IrProgram;

    fn run(src: &str) -> (IrProgram, Vec<CommEntry>, Vec<PlacedGroup>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        let groups = {
            let ctx = AnalysisCtx::new(&prog);
            let mut table = CandidateTable::default();
            for e in &entries {
                let ep = earliest::earliest_pos(&ctx, e);
                let lp = latest::latest(&ctx, e);
                table
                    .cands
                    .insert(e.id, candidates::candidates(&ctx, e, ep, lp));
            }
            subset::subset_eliminate(&mut table, &ctx.dt, &ctx.budget);
            redundancy::eliminate(&ctx, &entries, &mut table);
            choose(&ctx, &entries, &mut table, &CombinePolicy::default())
        };
        (prog, entries, groups)
    }

    #[test]
    fn same_shift_different_arrays_combine() {
        let (_, entries, groups) = run("
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
a(1:n, 1:n) = 1
b(1:n, 1:n) = 2
c(2:n, 1:n) = a(1:n-1, 1:n) + b(1:n-1, 1:n)
end");
        assert_eq!(entries.len(), 2);
        assert_eq!(groups.len(), 1, "a and b east-shifts share one message");
        assert_eq!(groups[0].entries.len(), 2);
    }

    #[test]
    fn opposite_shifts_stay_separate() {
        let (_, _, groups) = run("
program t
param n
real a(n,n), c(n,n), d(n,n) distribute (block,block)
c(2:n, 1:n) = a(1:n-1, 1:n)
d(1:n-1, 1:n) = a(2:n, 1:n)
end");
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn reductions_of_same_array_combine() {
        let (_, entries, groups) = run("
program t
param n
real g(n,n) distribute (block,block)
real s
s = sum(g(1, 1:n)) + sum(g(2, 1:n)) + sum(g(3, 1:n))
end");
        assert_eq!(entries.len(), 3);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].entries.len(), 3);
        assert_eq!(groups[0].kind, CommKind::Reduction);
    }

    #[test]
    fn reductions_of_different_rank_arrays_stay_separate() {
        let (_, _, groups) = run("
program t
param n, nx
real g(nx,n,n) distribute (*,block,block)
real h(n,n) distribute (block,block)
real s
s = sum(g(1, 2, 1:n)) + sum(h(2, 1:n))
end");
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn combining_disabled_by_policy() {
        let prog = gcomm_ir::lower(
            &gcomm_lang::parse_program(
                "
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
a(1:n, 1:n) = 1
b(1:n, 1:n) = 2
c(2:n, 1:n) = a(1:n-1, 1:n) + b(1:n-1, 1:n)
end",
            )
            .unwrap(),
        )
        .unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        let ctx = AnalysisCtx::new(&prog);
        let mut table = CandidateTable::default();
        for e in &entries {
            let ep = earliest::earliest_pos(&ctx, e);
            let lp = latest::latest(&ctx, e);
            table
                .cands
                .insert(e.id, candidates::candidates(&ctx, e, ep, lp));
        }
        let policy = CombinePolicy {
            enabled: false,
            ..CombinePolicy::default()
        };
        let groups = choose(&ctx, &entries, &mut table, &policy);
        assert_eq!(groups.len(), 2);
    }
}
