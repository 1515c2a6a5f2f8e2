//! The three code versions of the paper's evaluation (§5).
//!
//! * [`Strategy::Original`] — the baseline: "pulls communication into
//!   outermost possible loops but does not detect redundancy or perform
//!   message scheduling" (per-reference `Latest` placement).
//! * [`Strategy::EarliestRE`] — "uses earliest placement for redundancy
//!   elimination but does not perform message scheduling or combining".
//! * [`Strategy::Global`] — this paper's algorithm: candidates, subset
//!   elimination, global redundancy elimination, greedy combining.

use gcomm_ir::Pos;

use crate::candidates::candidates;
use crate::ctx::AnalysisCtx;
use crate::earliest::earliest_pos;
use crate::entry::CommEntry;
use crate::greedy::{choose, CombinePolicy};
use crate::latest::latest;
use crate::redundancy::{self, Absorption};
use crate::schedule::{PlacedGroup, Schedule};
use crate::subset::{subset_eliminate, CandidateTable};

/// Which communication-placement strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Message vectorization only (the paper's `orig` bars).
    Original,
    /// Earliest placement + redundancy elimination (the `nored` bars).
    EarliestRE,
    /// Earliest placement with *partial* redundancy elimination: subsumed
    /// communication is dropped, and partially-covered communication ships
    /// only the residual section (the behaviour of Gupta–Schonberg–
    /// Srinivasan \[14\] that §4.6 contrasts against; extension).
    EarliestPartialRE,
    /// The paper's global algorithm (the `comb` bars).
    Global,
    /// The global algorithm refined by branch-and-bound optimal search
    /// (extension; paper §6.1): starts from the `comb` schedule, then
    /// searches candidate assignments under a node budget for a cheaper
    /// one under the canonical scoring model. Never worse than `comb`;
    /// certified optimal when the search completes within budget.
    Optimal,
}

impl Strategy {
    /// Parses the canonical CLI/protocol name (`orig`, `nored`, `partial`,
    /// `comb`, `optimal`) — the single source of truth for every driver
    /// and for the compile-service protocol.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "orig" => Some(Strategy::Original),
            "nored" => Some(Strategy::EarliestRE),
            "partial" => Some(Strategy::EarliestPartialRE),
            "comb" => Some(Strategy::Global),
            "optimal" => Some(Strategy::Optimal),
            _ => None,
        }
    }

    /// The canonical name [`Strategy::parse`] accepts.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Original => "orig",
            Strategy::EarliestRE => "nored",
            Strategy::EarliestPartialRE => "partial",
            Strategy::Global => "comb",
            Strategy::Optimal => "optimal",
        }
    }
}

/// Runs a strategy over pre-generated entries.
pub fn run(ctx: &AnalysisCtx<'_>, entries: Vec<CommEntry>, strategy: Strategy) -> Schedule {
    run_with_policy(ctx, entries, strategy, &CombinePolicy::default())
}

/// Runs a strategy with an explicit combining policy (for ablations).
pub fn run_with_policy(
    ctx: &AnalysisCtx<'_>,
    entries: Vec<CommEntry>,
    strategy: Strategy,
    policy: &CombinePolicy,
) -> Schedule {
    match strategy {
        Strategy::Original => original(ctx, entries),
        Strategy::EarliestRE => earliest_re(ctx, entries),
        Strategy::EarliestPartialRE => earliest_partial_re(ctx, entries),
        Strategy::Global => global(ctx, entries, policy, true),
        Strategy::Optimal => crate::optimal::optimal_strategy(ctx, entries, policy),
    }
}

/// Runs the global strategy with subset elimination optionally disabled
/// (ablation A3; §6 notes the step must be dropped when overlap matters).
pub fn run_global_ablation(
    ctx: &AnalysisCtx<'_>,
    entries: Vec<CommEntry>,
    policy: &CombinePolicy,
    subset_elim: bool,
) -> Schedule {
    global(ctx, entries, policy, subset_elim)
}

fn singleton_groups(entries: &[CommEntry], pos_of: impl Fn(&CommEntry) -> Pos) -> Vec<PlacedGroup> {
    entries
        .iter()
        .map(|e| PlacedGroup {
            pos: pos_of(e),
            entries: vec![e.id],
            mapping: e.mapping.clone(),
            kind: e.kind,
        })
        .collect()
}

fn original(ctx: &AnalysisCtx<'_>, entries: Vec<CommEntry>) -> Schedule {
    let groups = singleton_groups(&entries, |e| latest(ctx, e));
    Schedule {
        strategy: Strategy::Original,
        entries,
        groups,
        absorptions: Vec::new(),
        section_overrides: Vec::new(),
        search: None,
    }
}

fn earliest_re(ctx: &AnalysisCtx<'_>, entries: Vec<CommEntry>) -> Schedule {
    // Place everything at its earliest point (reductions stay at their
    // statement). When the budget exhausts mid-stream the remaining
    // entries fall back to their `Latest` position — the `Original`
    // placement, legal but without hoisting.
    let lat: Vec<Pos> = entries.iter().map(|e| latest(ctx, e)).collect();
    let pos: Vec<Pos> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if e.is_reduction() {
                lat[i]
            } else if ctx.budget.exhausted() {
                gcomm_obs::count("core.degraded.candidates", 1);
                lat[i]
            } else {
                earliest_pos(ctx, e)
            }
        })
        .collect();

    // Pairwise redundancy elimination: an entry is covered by an earlier,
    // dominating entry of its subsumption class whose vectorized data
    // subsumes it. Each same-class pair charges the budget; on exhaustion
    // the scan stops and the remaining entries simply keep their own
    // communication (conservative but legal).
    let class = redundancy::subsumption_classes(&entries);
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| (ctx.dt.depth(pos[i].node), pos[i].slot, entries[i].id));
    let mut alive = vec![true; entries.len()];
    // An entry that has absorbed others must keep its own communication:
    // absorbing it too would leave its dependents' data unserved (the
    // paper's global algorithm inherits such obligations through chains;
    // here we simply refuse the chain). Found by the fuzzing harness.
    let mut absorber = vec![false; entries.len()];
    let mut absorptions = Vec::new();
    'outer: for (oi, &i2) in order.iter().enumerate() {
        for &i1 in &order[..oi] {
            if class[i1] != class[i2] {
                continue;
            }
            if !ctx.budget.charge(1) {
                gcomm_obs::count("core.degraded.redundancy", 1);
                break 'outer;
            }
            if !alive[i1] || !alive[i2] {
                continue;
            }
            // The cover's data must still be valid at the covered use.
            // Two sound placements (found by the fuzzing harness: a
            // self-updating array read twice in one loop body used to be
            // absorbed across its own killing write):
            //  * inside the covered entry's legal window [earliest ..
            //    latest] — no definition there kills the covered section;
            //  * above that window, provided the covered entry's earliest
            //    point dominates the cover's own use — then no definition
            //    kills ASD(i1) ⊇ ASD(i2) down to that use, and none kills
            //    ASD(i2) from its earliest on, so validity chains through.
            let in_window =
                pos[i2].dominates(&pos[i1], &ctx.dt) && pos[i1].dominates(&lat[i2], &ctx.dt);
            let chains = pos[i1].dominates(&pos[i2], &ctx.dt)
                && pos[i2].dominates(&Pos::before(ctx.prog, entries[i1].stmt), &ctx.dt);
            if !in_window && !chains {
                continue;
            }
            let lvl = pos[i1].level(ctx.prog);
            if !absorber[i2] && ctx.subsumed_within(&entries[i2], &entries[i1], lvl) {
                alive[i2] = false;
                absorber[i1] = true;
                absorptions.push(Absorption {
                    absorbed: entries[i2].id,
                    by: entries[i1].id,
                });
                break;
            }
            // At the *same* point the pair may subsume in either direction
            // (the classic per-statement pairwise test); across distinct
            // points only a dominating communication can cover a later one.
            if pos[i1] == pos[i2]
                && !absorber[i1]
                && ctx.subsumed_within(&entries[i1], &entries[i2], lvl)
            {
                alive[i1] = false;
                absorber[i2] = true;
                absorptions.push(Absorption {
                    absorbed: entries[i1].id,
                    by: entries[i2].id,
                });
            }
        }
    }

    let groups = entries
        .iter()
        .enumerate()
        .filter(|(i, _)| alive[*i])
        .map(|(i, e)| PlacedGroup {
            pos: pos[i],
            entries: vec![e.id],
            mapping: e.mapping.clone(),
            kind: e.kind,
        })
        .collect();
    Schedule {
        strategy: Strategy::EarliestRE,
        entries,
        groups,
        absorptions,
        section_overrides: Vec::new(),
        search: None,
    }
}

/// Earliest placement with partial redundancy elimination: like
/// [`earliest_re`], but a communication only partially covered by an
/// earlier dominating one ships its residual section (when expressible as
/// one regular section). This reproduces the [14] behaviour §4.6 describes
/// on the running example: "reduce the communication for b2 to
/// ASD(b2) − ASD(b1), while the communication for b1 would remain".
fn earliest_partial_re(ctx: &AnalysisCtx<'_>, entries: Vec<CommEntry>) -> Schedule {
    let base = earliest_re(ctx, entries);
    // The group heads below are the survivors (never an absorbed entry);
    // per entry, whether it absorbed another and whether it got shaved.
    let mut absorber = vec![false; base.entries.len()];
    for a in &base.absorptions {
        absorber[a.by.0 as usize] = true;
    }
    let mut shaved = vec![false; base.entries.len()];
    let mut overrides: Vec<(crate::entry::EntryId, gcomm_sections::Section)> = Vec::new();

    // For every surviving pair at comparable placements, try to shave the
    // later entry's section by the earlier one's. Each pair charges the
    // budget; on exhaustion the remaining entries just ship their full
    // sections (no override), which is always legal.
    let groups = &base.groups;
    'outer: for gi in groups {
        for gj in groups {
            if !ctx.budget.charge(1) {
                gcomm_obs::count("core.degraded.redundancy", 1);
                break 'outer;
            }
            let (ei, ej) = (gi.entries[0], gj.entries[0]);
            // A cover serves others with its FULL section, so it must not
            // itself have been shaved (`ei` overridden), and an entry that
            // absorbed others is obligated to its full section and cannot
            // be shaved (`ej` an absorber). Without these two exclusions a
            // pair at one position can shave each other mutually and the
            // intersection goes unshipped. (Found by the fuzzing harness.)
            if ei == ej || shaved[ei.0 as usize] || shaved[ej.0 as usize] || absorber[ej.0 as usize]
            {
                continue;
            }
            let (a, b) = (base.entry(ei), base.entry(ej));
            if a.array != b.array || !a.mapping.subset_of(&b.mapping) {
                continue;
            }
            // Same staleness rule as the full absorption above: the served
            // intersection ⊆ ASD(cover) stays valid down to the cover's
            // own use, and ⊆ ASD(shaved) from the shaved entry's earliest
            // on — so the shaved use must sit below both.
            if !gi.pos.dominates(&gj.pos, &ctx.dt)
                || !gj.pos.dominates(&Pos::before(ctx.prog, a.stmt), &ctx.dt)
                || gi.pos.level(ctx.prog) != gj.pos.level(ctx.prog)
            {
                continue;
            }
            let lvl = gj.pos.level(ctx.prog);
            let full = ctx.asd_shared(b, lvl);
            let cover = ctx.asd_shared(a, lvl);
            if let Some(residual) = full.section.subtract(&cover.section, &ctx.sym) {
                overrides.push((ej, residual));
                shaved[ej.0 as usize] = true;
            }
        }
    }

    Schedule {
        strategy: Strategy::EarliestPartialRE,
        section_overrides: overrides,
        ..base
    }
}

pub(crate) fn global(
    ctx: &AnalysisCtx<'_>,
    entries: Vec<CommEntry>,
    policy: &CombinePolicy,
    subset_elim: bool,
) -> Schedule {
    let mut table = CandidateTable::default();
    {
        let _s = gcomm_obs::span("core.candidates");
        for e in &entries {
            let lp = latest(ctx, e);
            // Once the budget is gone, skip the earliest-placement SSA walk
            // entirely: candidates() degrades to {latest} regardless, and
            // latest() alone is both cheap and always legal.
            let ep = if ctx.budget.exhausted() {
                lp
            } else {
                earliest_pos(ctx, e)
            };
            let cands = candidates(ctx, e, ep, lp);
            gcomm_obs::count("core.candidate_positions", cands.len() as u64);
            table.cands.insert(e.id, cands);
        }
    }
    if subset_elim {
        subset_eliminate(&mut table, &ctx.dt, &ctx.budget);
    }
    let absorptions = redundancy::eliminate(ctx, &entries, &mut table);
    let groups = choose(ctx, &entries, &mut table, policy);
    Schedule {
        strategy: Strategy::Global,
        entries,
        groups,
        absorptions,
        section_overrides: Vec::new(),
        search: None,
    }
}
