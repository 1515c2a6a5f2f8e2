//! Optimal placement by branch-and-bound (extension; paper §6.1).
//!
//! Picking one candidate position per reference to minimize total
//! communication cost is NP-hard (Claim 6.1, reduction from chromatic
//! number), which justifies the paper's greedy heuristic. For small
//! procedures the optimum used to be computed here by odometer
//! enumeration; this module now runs a **branch-and-bound search** over
//! entries ordered by the dominator tree (DESIGN.md §16):
//!
//! * **Admissible lower bounds.** Every entry's byte contribution to its
//!   group is additive ([`crate::codegen::entry_msg_bytes`]), and the
//!   network model's bandwidth term is affine in bytes, so an entry placed
//!   at position `p` always adds at least `mult(p) · bytes(p) / peak_bw`
//!   microseconds no matter how it is grouped. Suffix sums of the
//!   per-entry minima give an admissible remaining-cost bound `h[d]`.
//! * **Incremental partial cost.** A partial assignment's groups are
//!   maintained incrementally with the same first-fit rule as the final
//!   grouping, and costed analytically with the exact lowering arithmetic
//!   — a pruned subtree never touches the simulator.
//! * **Dominance pruning.** Two partial assignments at the same depth
//!   that agree on every entry placed at a position still reachable by
//!   the remaining entries have identical completion deltas; the later,
//!   strictly costlier one is cut.
//! * **Determinism contract (DESIGN.md §11/§16).** The subtree split,
//!   per-subtree node allowances, and every pruning decision depend only
//!   on the program and the budget — never on worker scheduling; workers
//!   share nothing mutable. Each subtree keeps its first cheapest leaf,
//!   and the merge walks the subtrees in task order taking strict
//!   improvements only. A depth-first walk visits leaves in enumeration
//!   order and subtree `t` precedes subtree `t + 1`, so that is the
//!   minimum by `(cost, enumeration order)`, with the seed schedule
//!   winning cost ties. `jobs = 1` and `jobs = 8` are bit-identical,
//!   including the node and prune counts.
//!
//! Surviving complete assignments are scored with the machine simulator,
//! exactly like the retained exhaustive reference
//! ([`exhaustive_placement`]), so the two return bit-identical results
//! whenever both complete — the differential property the test suite
//! enforces. The budget charges **nodes expanded** (one per entry
//! binding); on exhaustion the search truncates and returns the seeded
//! schedule or better.

use std::collections::{HashMap, HashSet};

use gcomm_ir::{IrProgram, LoopId, Pos};
use gcomm_machine::{simulate, MsgKind, NetworkModel, ProcGrid};

use crate::candidates::candidates;
use crate::codegen::{
    entry_msg_bytes, group_pattern, loop_bindings, lower_to_sim, lower_to_sim_with, lowered_msg,
    SimConfig,
};
use crate::ctx::AnalysisCtx;
use crate::earliest::earliest_pos;
use crate::entry::{CommEntry, EntryId};
use crate::greedy::{compatible, partition, CombinePolicy};
use crate::latest::latest;
use crate::pipeline::{Compiled, CompiledRef};
use crate::redundancy::{self, Absorption};
use crate::schedule::{PlacedGroup, Schedule, SearchOutcome};
use crate::strategy::Strategy;
use crate::subset::CandidateTable;

/// Node budget for `--strategy optimal` when the caller's compile budget
/// has no step cap of its own (matches the `compare_optimal` default).
pub const DEFAULT_SEARCH_NODES: u64 = 20_000;

/// The subtree split stops growing once this many prefixes exist…
const SPLIT_TARGET: u64 = 256;
/// …and never exceeds this many (the next level is not split if it would).
const SPLIT_CAP: u64 = 4096;
/// Dominance-memo entries per subtree (inserts stop at the cap; lookups
/// and in-place improvements continue).
const DOM_CAP: usize = 65_536;

/// Floating-point safety margin for pruning decisions: the analytic cost
/// model and the simulator sum the same terms in different orders, so a
/// subtree is only cut when it is worse by more than accumulated rounding
/// could explain. Keeps the true optimum — and every exact tie — alive.
fn slack(x: f64) -> f64 {
    1e-9 * x.abs() + 1e-6
}

/// Result of an optimal placement search.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its simulated communication time (µs).
    pub comm_us: f64,
    /// Search-tree nodes expanded (one per entry binding; the budget
    /// unit). The exhaustive reference reports assignments scored here.
    pub nodes: u64,
    /// Complete assignments scored with the simulator.
    pub leaves: u64,
    /// Subtrees cut by the admissible lower bound.
    pub pruned_bound: u64,
    /// Subtrees cut by frontier dominance.
    pub pruned_dominance: u64,
    /// Total assignments in the search space (saturating at `u64::MAX`).
    pub space: u64,
    /// True when the search space exceeded the budget: the result is the
    /// seed or better, but not certified optimal.
    pub truncated: bool,
}

/// Simulated communication time of an existing schedule.
pub fn comm_cost(compiled: &Compiled, cfg: &SimConfig, net: &NetworkModel) -> f64 {
    simulate(&lower_to_sim(compiled, cfg), net).comm_us
}

// ---------------------------------------------------------------------------
// Shared front half: entries, candidate windows, dominator-ordered space
// ---------------------------------------------------------------------------

/// The candidate-assignment space both searches explore: one choice of
/// position per surviving entry, entries in dominator-tree order (outer
/// and earlier program points first), so a depth-`d` prefix decides the
/// outermost placements before the inner ones and prefix grouping matches
/// the final first-fit grouping exactly.
struct SearchSpace {
    entries: Vec<CommEntry>,
    absorptions: Vec<Absorption>,
    /// Surviving entries in search order.
    ids: Vec<EntryId>,
    /// Candidate positions per entry, parallel to `ids`.
    choice_sets: Vec<Vec<Pos>>,
    /// Product of the choice-set sizes (saturating).
    space: u64,
}

impl SearchSpace {
    /// The message groups of the complete assignment `digits` (one choice
    /// index per entry, parallel to `ids`): the greedy's own first-fit
    /// grouping, for a like-for-like comparison.
    fn groups(
        &self,
        ctx: &AnalysisCtx<'_>,
        digits: &[usize],
        policy: &CombinePolicy,
    ) -> Vec<PlacedGroup> {
        let pinned = self
            .ids
            .iter()
            .zip(&self.choice_sets)
            .zip(digits)
            .map(|((&id, set), &j)| (id, set[j]));
        partition(ctx, &self.entries, pinned, policy)
    }
}

fn front_half(compiled: &Compiled) -> Option<(AnalysisCtx<'_>, SearchSpace)> {
    let prog = &compiled.prog;
    let entries = crate::commgen::number(crate::commgen::generate(prog));
    if entries.is_empty() {
        return None;
    }
    let ctx = AnalysisCtx::new(prog);
    let mut table = CandidateTable::default();
    let mut earliest_of: Vec<Pos> = Vec::with_capacity(entries.len());
    for e in &entries {
        let ep = earliest_pos(&ctx, e);
        let lp = latest(&ctx, e);
        earliest_of.push(ep);
        table.cands.insert(e.id, candidates(&ctx, e, ep, lp));
    }
    let absorptions = redundancy::eliminate(&ctx, &entries, &mut table);

    // Dominator-tree order: sort by (dominator depth of the earliest
    // point, slot, id) — the same key the heuristics scan in.
    let mut ids: Vec<EntryId> = table.cands.ids().collect();
    ids.sort_by_key(|&id| {
        let ep = earliest_of[id.0 as usize];
        (ctx.dt.depth(ep.node), ep.slot, id)
    });
    // The choice sets are the surviving rows themselves.
    let choice_sets: Vec<Vec<Pos>> = ids
        .iter()
        .map(|&e| table.cands.remove(e).expect("a surviving entry's row"))
        .collect();
    let space: u64 = choice_sets
        .iter()
        .map(|c| c.len() as u64)
        .try_fold(1u64, |a, b| a.checked_mul(b))
        .unwrap_or(u64::MAX);
    Some((
        ctx,
        SearchSpace {
            entries,
            absorptions,
            ids,
            choice_sets,
            space,
        },
    ))
}

/// An empty scratch compile the searches mutate and score: the seed's
/// program with the shared entry table but no groups or overrides.
fn base_scratch(compiled: &Compiled, space: &SearchSpace) -> Compiled {
    Compiled {
        prog: compiled.prog.clone(),
        schedule: Schedule {
            strategy: Strategy::Global,
            entries: space.entries.clone(),
            groups: Vec::new(),
            absorptions: space.absorptions.clone(),
            section_overrides: Vec::new(),
            search: None,
        },
        stats: Default::default(),
    }
}

// ---------------------------------------------------------------------------
// Analytic cost model (precomputed once per search)
// ---------------------------------------------------------------------------

/// Per-`(entry, choice)` cost tables, precomputed once per search with the
/// exact lowering arithmetic (`entry_msg_bytes`/`group_pattern` — the same
/// functions `group_msg` sums), plus the admissible suffix bounds.
struct CostModel {
    /// Message-byte contribution of entry `i` placed at choice `j`.
    bytes: Vec<Vec<f64>>,
    /// Loop multiplicity of choice `j` (product of enclosing trip counts).
    mult: Vec<Vec<f64>>,
    /// Rounds, message kind, and pattern shape if entry `i` at choice `j`
    /// heads its group.
    head_rounds: Vec<Vec<(u64, MsgKind, gcomm_coll::PatternShape)>>,
    /// Collective-backend configuration of the scoring `SimConfig`, so
    /// partial costs lower exactly like `group_msg`.
    coll: Option<gcomm_coll::CollConfig>,
    /// Loop level of each choice (for compatibility tests).
    level: Vec<Vec<u32>>,
    /// Encoded position of each choice (for grouping and dominance keys).
    pos_enc: Vec<Vec<u64>>,
    /// `h[d]` = admissible lower bound on the cost the entries `d..` must
    /// still add, for any completion: suffix sums of per-entry minima of
    /// `mult · bytes / peak_bw`.
    h: Vec<f64>,
    /// `rc[d]` = encoded positions still reachable by entries `d..` (the
    /// dominance frontier filter).
    rc: Vec<HashSet<u64>>,
}

fn pos_encode(pos: Pos) -> u64 {
    ((pos.node.0 as u64) << 32) | pos.slot as u64
}

/// Product of enclosing-loop trip counts at a position — the factor the
/// simulator multiplies a message placed there by.
fn position_mult(prog: &IrProgram, trips: &HashMap<LoopId, u64>, pos: Pos) -> f64 {
    let mut m: u64 = 1;
    let mut enclosing = prog.cfg.node(pos.node).enclosing;
    while let Some(l) = enclosing {
        m = m.saturating_mul(trips[&l]);
        enclosing = prog.loops[l.0 as usize].parent;
    }
    m as f64
}

fn build_cost_model(
    base: &Compiled,
    cfg: &SimConfig,
    net: &NetworkModel,
    ctx: &AnalysisCtx<'_>,
    space: &SearchSpace,
) -> CostModel {
    let prog = &base.prog;
    let p_total = cfg.grid.nproc().max(1);
    let view = CompiledRef::from(base);
    let (mid, trips) = loop_bindings(view, cfg);
    let n = space.ids.len();
    let peak = net.peak_bw_mb.max(1e-9);

    let mut bytes = Vec::with_capacity(n);
    let mut mult = Vec::with_capacity(n);
    let mut head_rounds = Vec::with_capacity(n);
    let mut level = Vec::with_capacity(n);
    let mut pos_enc = Vec::with_capacity(n);
    let mut floor_min = Vec::with_capacity(n);
    for (&id, cands) in space.ids.iter().zip(&space.choice_sets) {
        let e = &space.entries[id.0 as usize];
        let mut b_row = Vec::with_capacity(cands.len());
        let mut m_row = Vec::with_capacity(cands.len());
        let mut r_row = Vec::with_capacity(cands.len());
        let mut l_row = Vec::with_capacity(cands.len());
        let mut p_row = Vec::with_capacity(cands.len());
        let mut fmin = f64::INFINITY;
        for &pos in cands {
            let b = entry_msg_bytes(view, cfg, ctx, &mid, id, &e.mapping, e.kind, pos, p_total);
            let m = position_mult(prog, &trips, pos);
            fmin = fmin.min(m * (b / peak));
            b_row.push(b);
            m_row.push(m);
            r_row.push(group_pattern(
                view, cfg, ctx, &mid, id, &e.mapping, e.kind, pos, p_total,
            ));
            l_row.push(pos.level(prog));
            p_row.push(pos_encode(pos));
        }
        bytes.push(b_row);
        mult.push(m_row);
        head_rounds.push(r_row);
        level.push(l_row);
        pos_enc.push(p_row);
        floor_min.push(fmin);
    }

    let mut h = vec![0.0f64; n + 1];
    for d in (0..n).rev() {
        h[d] = h[d + 1] + floor_min[d];
    }
    let mut rc: Vec<HashSet<u64>> = vec![HashSet::new(); n + 1];
    for d in (0..n).rev() {
        let mut set = rc[d + 1].clone();
        set.extend(pos_enc[d].iter().copied());
        rc[d] = set;
    }

    CostModel {
        bytes,
        mult,
        head_rounds,
        coll: cfg.coll.clone(),
        level,
        pos_enc,
        h,
        rc,
    }
}

// ---------------------------------------------------------------------------
// Branch-and-bound search
// ---------------------------------------------------------------------------

/// A live group in a partial assignment: members as `(order index,
/// choice index)` pairs in binding order (first member is the head).
struct LiveGroup {
    pos_enc: u64,
    members: Vec<(usize, usize)>,
}

struct Searcher<'a, 'p> {
    ctx: &'a AnalysisCtx<'p>,
    space: &'a SearchSpace,
    cm: &'a CostModel,
    policy: &'a CombinePolicy,
    cfg: &'a SimConfig,
    net: &'a NetworkModel,
    base: &'a Compiled,
    /// Forced digits below the split depth.
    prefix: &'a [usize],
    k: usize,
    allowance: u64,
    /// Deterministic per-subtree prune bound: min(seed cost, cheapest
    /// leaf simulated so far *in this subtree*) — nothing another worker
    /// found, so scheduling cannot change a pruning decision.
    bound: f64,
    digits: Vec<usize>,
    groups: Vec<LiveGroup>,
    /// Group index each depth bound into (for undo).
    bind_log: Vec<usize>,
    dom: HashMap<Vec<u64>, f64>,
    scratch: Option<Compiled>,
    nodes: u64,
    leaves: u64,
    pruned_bound: u64,
    pruned_dominance: u64,
    truncated: bool,
    stopped: bool,
    /// Digits of the first leaf that reached `bound`; `None` while the
    /// seed is still the cheapest this subtree knows.
    best: Option<Vec<usize>>,
}

impl<'a, 'p> Searcher<'a, 'p> {
    fn entry(&self, i: usize) -> &'a CommEntry {
        &self.space.entries[self.space.ids[i].0 as usize]
    }

    /// Joins entry `i` at choice `j` into the partial grouping by the
    /// first-fit rule of [`crate::greedy::partition`] — which groups every
    /// leaf — applied one entry at a time so it can be undone: groups at
    /// the position in creation order; a member must be compatible with
    /// every existing member. Binding in `ids` order makes the two
    /// identical.
    fn bind(&mut self, i: usize, j: usize) {
        let enc = self.cm.pos_enc[i][j];
        let level = self.cm.level[i][j];
        let e = self.entry(i);
        let slot = self.groups.iter().position(|g| {
            g.pos_enc == enc
                && g.members
                    .iter()
                    .all(|&(m, _)| compatible(self.ctx, e, self.entry(m), level, self.policy))
        });
        match slot {
            Some(gi) => {
                self.groups[gi].members.push((i, j));
                self.bind_log.push(gi);
            }
            None => {
                self.groups.push(LiveGroup {
                    pos_enc: enc,
                    members: vec![(i, j)],
                });
                self.bind_log.push(self.groups.len() - 1);
            }
        }
    }

    fn unbind(&mut self) {
        let gi = self.bind_log.pop().expect("unbind under bind");
        self.groups[gi].members.pop();
        if self.groups[gi].members.is_empty() {
            // A group emptied by undo is necessarily the newest one.
            self.groups.remove(gi);
        }
    }

    /// Analytic cost of the current partial assignment: every live group
    /// costed with the exact lowering arithmetic, summed fresh in
    /// creation order (no incremental float drift).
    fn partial_cost(&self) -> f64 {
        let mut total = 0.0f64;
        for g in &self.groups {
            let (i0, j0) = g.members[0];
            let mut bytes = 0.0f64;
            for &(i, j) in &g.members {
                bytes += self.cm.bytes[i][j];
            }
            let (rounds, kind, shape) = self.cm.head_rounds[i0][j0];
            let msg = lowered_msg(
                self.cm.coll.as_ref(),
                bytes,
                rounds,
                kind,
                shape,
                g.members.len() as u64,
            );
            total += self.cm.mult[i0][j0] * msg.time_us(self.net);
        }
        total
    }

    /// True when an earlier partial assignment reached the same frontier
    /// strictly cheaper: same depth, same placements among the positions
    /// the remaining entries can still reach. The frozen remainder then
    /// costs strictly more for any completion. Strict margin only — exact
    /// ties both survive, so the first of them in enumeration order wins.
    fn dominated(&mut self, d: usize, g: f64) -> bool {
        let rc = &self.cm.rc[d];
        let mut key: Vec<u64> = Vec::with_capacity(2 * d + 1);
        key.push(d as u64);
        for i in 0..d {
            let enc = self.cm.pos_enc[i][self.digits[i]];
            if rc.contains(&enc) {
                key.push(i as u64);
                key.push(enc);
            }
        }
        match self.dom.get_mut(&key) {
            Some(prev) => {
                if g > *prev + slack(*prev) {
                    return true;
                }
                if g < *prev {
                    *prev = g;
                }
                false
            }
            None => {
                if self.dom.len() < DOM_CAP {
                    self.dom.insert(key, g);
                }
                false
            }
        }
    }

    /// Scores a surviving complete assignment with the simulator — the
    /// same arithmetic as the exhaustive reference, so costs (and the
    /// recorded winner) are bit-identical between the two searches.
    fn score_leaf(&mut self) {
        let (ctx, policy, cfg, net, space) =
            (self.ctx, self.policy, self.cfg, self.net, self.space);
        if self.scratch.is_none() {
            self.scratch = Some(self.base.clone());
        }
        let scratch = self.scratch.as_mut().expect("scratch just set");
        scratch.schedule.groups = space.groups(ctx, &self.digits, policy);
        let cost = simulate(&lower_to_sim_with(&*scratch, cfg, ctx), net).comm_us;
        self.leaves += 1;
        // Strict: the seed and every earlier leaf win cost ties.
        if cost < self.bound {
            self.bound = cost;
            self.best = Some(self.digits.clone());
        }
    }

    fn dfs(&mut self, depth: usize) {
        if self.stopped {
            return;
        }
        let n = self.space.ids.len();
        if depth == n {
            self.score_leaf();
            return;
        }
        let (jlo, jhi) = if depth < self.k {
            (self.prefix[depth], self.prefix[depth] + 1)
        } else {
            (0, self.space.choice_sets[depth].len())
        };
        // Only branching decisions below the shared prefix are charged:
        // the prefix tree is charged once globally (not once per subtree),
        // and forced moves (single-candidate entries) expand nothing.
        let charged = depth >= self.k && self.space.choice_sets[depth].len() > 1;
        for j in jlo..jhi {
            if charged {
                if self.nodes >= self.allowance {
                    self.truncated = true;
                    self.stopped = true;
                    return;
                }
                self.nodes += 1;
            }
            self.digits[depth] = j;
            self.bind(depth, j);
            let g = self.partial_cost();
            let d = depth + 1;
            let lb = g + self.cm.h[d];
            if lb > self.bound + slack(self.bound) {
                self.pruned_bound += 1;
            } else if d < n && d > self.k && self.dominated(d, g) {
                self.pruned_dominance += 1;
            } else {
                self.dfs(d);
            }
            self.unbind();
            if self.stopped {
                return;
            }
        }
    }
}

/// Branch-and-bound search for the cheapest candidate assignment, fanned
/// across `jobs` workers by work-stealing over subtree ranges.
///
/// Runs the same front half as the global strategy (entries, candidate
/// windows, redundancy elimination), then searches one choice of position
/// per surviving entry. The `budget` charges one step per **node
/// expanded** (entry binding, including each subtree's prefix bindings);
/// the node window is fixed up front from the budget's remaining steps,
/// split across subtrees proportionally, so every worker count expands
/// exactly the same nodes. An exhausted window truncates the search — the
/// seeded input schedule guarantees the result is never worse than what
/// the caller already had. See the module docs for the full determinism
/// contract.
///
/// Returns `None` when the program has no communication.
pub fn optimal_placement_jobs(
    compiled: &Compiled,
    policy: &CombinePolicy,
    cfg: &SimConfig,
    net: &NetworkModel,
    budget: &gcomm_guard::Budget,
    jobs: usize,
) -> Option<OptimalResult> {
    let (ctx, space) = front_half(compiled)?;
    let n = space.ids.len();
    let base = base_scratch(compiled, &space);
    let cm = build_cost_model(&base, cfg, net, &ctx, &space);

    // Seed the search with the input schedule so the result is never worse
    // than what the caller already has, even under truncation. Every
    // scoring call shares `ctx`, so SSA/dominators build once and each
    // `(entry, level)` section widens once for the whole search.
    let seed_cost = simulate(&lower_to_sim_with(compiled, cfg, &ctx), net).comm_us;
    let reg = gcomm_obs::current();

    // The node window is fixed up front from the budget's remaining steps
    // (at least one node), so every worker count expands exactly the same
    // nodes no matter how charges interleave.
    let window = budget
        .step_cap()
        .map_or(u64::MAX, |cap| cap.saturating_sub(budget.steps_used()))
        .max(1);

    // Jobs-independent subtree split: fix the first `k` digits, smallest
    // `k` reaching SPLIT_TARGET prefixes without exceeding SPLIT_CAP —
    // both capped by the window, so a near-exhausted budget is not spent
    // duplicating prefix bindings across subtrees it could never explore.
    let mut k = 0usize;
    let mut prefixes: u64 = 1;
    while k < n && prefixes < SPLIT_TARGET.min(window) {
        let len = space.choice_sets[k].len() as u64;
        if prefixes.saturating_mul(len) > SPLIT_CAP.min(window) {
            break;
        }
        prefixes *= len;
        k += 1;
    }

    // The shared prefix tree's branching nodes are charged once, up
    // front — every subtree re-binds the same prefix digits, and charging
    // them per subtree would multiply the bill by the subtree count.
    let mut prefix_charged = 0u64;
    let mut width = 1u64;
    for cs in space.choice_sets.iter().take(k) {
        let len = cs.len() as u64;
        width = width.saturating_mul(len);
        if len > 1 {
            prefix_charged = prefix_charged.saturating_add(width);
        }
    }
    let subtree_window = window.saturating_sub(prefix_charged);

    // Runs one subtree under a node allowance. Reruns are from scratch:
    // a subtree's result depends only on its prefix and allowance, never
    // on worker scheduling.
    let run_task = |t: u64, allowance: u64| {
        // Workers inherit the coordinator's stats registry (counter sums
        // are scheduling-independent) and explore one subtree each.
        let _obs = reg.clone().map(gcomm_obs::install);
        let mut rem = t;
        let mut prefix = vec![0usize; k];
        for i in (0..k).rev() {
            let len = space.choice_sets[i].len() as u64;
            prefix[i] = (rem % len) as usize;
            rem /= len;
        }
        let mut s = Searcher {
            ctx: &ctx,
            space: &space,
            cm: &cm,
            policy,
            cfg,
            net,
            base: &base,
            prefix: &prefix,
            k,
            allowance,
            bound: seed_cost,
            digits: vec![0usize; n],
            groups: Vec::new(),
            bind_log: Vec::new(),
            dom: HashMap::new(),
            scratch: None,
            nodes: 0,
            leaves: 0,
            pruned_bound: 0,
            pruned_dominance: 0,
            truncated: false,
            stopped: false,
            best: None,
        };
        s.dfs(0);
        (
            s.best.map(|digits| (s.bound, digits)),
            s.nodes,
            s.leaves,
            s.pruned_bound,
            s.pruned_dominance,
            s.truncated,
        )
    };

    // Deterministic node allowances with barrier-round redistribution:
    // every subtree starts with a near-equal share of the window; after
    // each round, the window the completed subtrees left unused is
    // re-shared among the still-truncated ones, which rerun from scratch
    // with the larger allowance. Rounds are barriers and every share is
    // computed from per-subtree results, so coverage never depends on
    // worker scheduling — only the round count bounds the rerun waste.
    let share = |total: u64, count: u64, i: u64| total / count + u64::from(i < total % count);
    let p = prefixes as usize;
    let mut allowance: Vec<u64> = (0..prefixes)
        .map(|t| {
            if window == u64::MAX {
                u64::MAX
            } else {
                share(subtree_window, prefixes, t)
            }
        })
        .collect();
    type WorkerOut = (Option<(f64, Vec<usize>)>, u64, u64, u64, u64, bool);
    let mut outs: Vec<Option<WorkerOut>> = (0..p).map(|_| None).collect();
    let mut pending: Vec<u64> = (0..prefixes).collect();
    const MAX_ROUNDS: usize = 32;
    for _round in 0..MAX_ROUNDS {
        let batch: Vec<(u64, u64)> = pending
            .iter()
            .map(|&t| (t, allowance[t as usize]))
            .collect();
        let round_outs = gcomm_par::map(jobs, &batch, |_, &(t, a)| run_task(t, a));
        for (&(t, _), out) in batch.iter().zip(round_outs) {
            outs[t as usize] = Some(out);
        }
        if window == u64::MAX {
            break;
        }
        // A truncated subtree consumed exactly its allowance; a complete
        // one consumed its node count — the difference is redistributable.
        let used: u64 = outs.iter().flatten().map(|o| o.1).sum();
        let leftover = subtree_window.saturating_sub(used);
        pending = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.as_ref().is_some_and(|o| o.5))
            .map(|(t, _)| t as u64)
            .collect();
        if pending.is_empty() || leftover == 0 {
            break;
        }
        // Regrants at least double a subtree's allowance (a subtree whose
        // demand is D reaches it in O(log D) rounds), bounded by the
        // leftover pool; later subtrees starve first when the pool runs
        // dry — a deterministic order, never a scheduling-dependent one.
        let t_count = pending.len() as u64;
        let mut pool = leftover;
        for (i, &t) in pending.iter().enumerate() {
            let fair = share(leftover, t_count, i as u64);
            let grant = fair.max(allowance[t as usize]).min(pool);
            if grant == 0 {
                break;
            }
            allowance[t as usize] += grant;
            pool -= grant;
        }
    }

    let mut nodes = prefix_charged;
    let mut leaves = 0u64;
    let mut pruned_bound = 0u64;
    let mut pruned_dominance = 0u64;
    let mut truncated = false;
    // Deterministic merge: subtrees in task order, strict improvements
    // only — the seed, then the earliest subtree, wins a cost tie.
    let mut comm_us = seed_cost;
    let mut best: Option<Vec<usize>> = None;
    for (cand, n_, l, pb, pd, t) in outs.into_iter().flatten() {
        nodes += n_;
        leaves += l;
        pruned_bound += pb;
        pruned_dominance += pd;
        truncated |= t;
        if let Some((cost, digits)) = cand {
            if cost < comm_us {
                comm_us = cost;
                best = Some(digits);
            }
        }
    }
    budget.charge(nodes);
    gcomm_obs::count("search.nodes", nodes);
    gcomm_obs::count("search.pruned_bound", pruned_bound);
    gcomm_obs::count("search.pruned_dominance", pruned_dominance);
    if !truncated {
        gcomm_obs::count("search.complete", 1);
    }

    let schedule = match best {
        Some(digits) => {
            let mut sched = base.schedule.clone();
            sched.groups = space.groups(&ctx, &digits, policy);
            sched
        }
        None => compiled.schedule.clone(),
    };
    Some(OptimalResult {
        schedule,
        comm_us,
        nodes,
        leaves,
        pruned_bound,
        pruned_dominance,
        space: space.space,
        truncated,
    })
}

// ---------------------------------------------------------------------------
// Retained exhaustive reference
// ---------------------------------------------------------------------------

/// Exhaustively enumerates and scores candidate assignments — the
/// retained reference the branch-and-bound search is differentially
/// tested against, and the baseline `BENCH_optimal.json` measures the
/// speedup over. Deliberately the simplest thing that could be right: one
/// serial odometer over the same front half in the same enumeration order
/// (entry 0 slowest), the first cheapest assignment kept, the seed winning
/// ties. The `budget` bounds the assignments scored, one step each.
///
/// Returns `None` when the program has no communication.
pub fn exhaustive_placement(
    compiled: &Compiled,
    policy: &CombinePolicy,
    cfg: &SimConfig,
    net: &NetworkModel,
    budget: &gcomm_guard::Budget,
) -> Option<OptimalResult> {
    let (ctx, space) = front_half(compiled)?;
    let remaining = budget
        .step_cap()
        .map_or(u64::MAX, |cap| cap.saturating_sub(budget.steps_used()));
    let limit = space.space.min(remaining.max(1));

    let seed_cost = simulate(&lower_to_sim_with(compiled, cfg, &ctx), net).comm_us;
    let mut best = (seed_cost, compiled.schedule.clone());
    let mut scratch = base_scratch(compiled, &space);
    let mut digits = vec![0usize; space.ids.len()];
    for _ in 0..limit {
        scratch.schedule.groups = space.groups(&ctx, &digits, policy);
        let cost = simulate(&lower_to_sim_with(&scratch, cfg, &ctx), net).comm_us;
        if cost < best.0 {
            best = (cost, scratch.schedule.clone());
        }
        // Advance the odometer (last digit fastest).
        for (d, set) in digits.iter_mut().zip(&space.choice_sets).rev() {
            *d += 1;
            if *d < set.len() {
                break;
            }
            *d = 0;
        }
    }
    budget.charge(limit);
    Some(OptimalResult {
        schedule: best.1,
        comm_us: best.0,
        nodes: limit,
        leaves: limit,
        pruned_bound: 0,
        pruned_dominance: 0,
        space: space.space,
        truncated: space.space > limit,
    })
}

// ---------------------------------------------------------------------------
// `--strategy optimal`
// ---------------------------------------------------------------------------

/// The `Strategy::Optimal` pipeline arm: run the global strategy, then
/// refine its schedule by branch-and-bound under the canonical scoring
/// model (SP2 network, balanced 8-processor grid, n = 64, nsteps = 4 —
/// the `compare_optimal` configuration). The search budget is the
/// caller's compile budget when it has a step cap, else a fresh
/// [`DEFAULT_SEARCH_NODES`] window; a truncated search is recorded in
/// [`Schedule::search`] so drivers and caches can treat the result as
/// degraded (never worse than `comb`, but not certified optimal).
pub(crate) fn optimal_strategy(
    ctx: &AnalysisCtx<'_>,
    entries: Vec<CommEntry>,
    policy: &CombinePolicy,
) -> Schedule {
    let seed = crate::strategy::global(ctx, entries, policy, true);
    let scratch = Compiled {
        prog: ctx.prog.clone(),
        schedule: seed,
        stats: Default::default(),
    };
    let rank = scratch.prog.grid_rank();
    let cfg = SimConfig::uniform(&scratch, ProcGrid::balanced(8, rank), 64).with("nsteps", 4);
    let net = NetworkModel::sp2();
    let budget = if ctx.budget.step_cap().is_some() {
        ctx.budget.clone()
    } else {
        gcomm_guard::Budget::steps(DEFAULT_SEARCH_NODES)
    };
    match optimal_placement_jobs(
        &scratch,
        policy,
        &cfg,
        &net,
        &budget,
        gcomm_par::default_jobs(),
    ) {
        Some(r) => {
            let mut s = r.schedule;
            s.strategy = Strategy::Optimal;
            s.search = Some(SearchOutcome {
                nodes: r.nodes,
                leaves: r.leaves,
                pruned_bound: r.pruned_bound,
                pruned_dominance: r.pruned_dominance,
                space: r.space,
                truncated: r.truncated,
            });
            s
        }
        None => {
            let mut s = scratch.schedule;
            s.strategy = Strategy::Optimal;
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use gcomm_machine::ProcGrid;

    fn setup(src: &str) -> (Compiled, SimConfig, NetworkModel) {
        let c = compile(src, Strategy::Global).unwrap();
        let cfg = SimConfig::uniform(&c, ProcGrid::balanced(4, 2), 64).with("nsteps", 4);
        (c, cfg, NetworkModel::sp2())
    }

    #[test]
    fn greedy_matches_optimal_on_figure4() {
        let (c, cfg, net) = setup(gcomm_kernels_src::FIG4);
        let greedy_cost = comm_cost(&c, &cfg, &net);
        let budget = gcomm_guard::Budget::steps(100_000);
        let opt =
            optimal_placement_jobs(&c, &CombinePolicy::default(), &cfg, &net, &budget, 1).unwrap();
        assert!(!opt.truncated);
        assert!(
            greedy_cost <= opt.comm_us * 1.0001,
            "greedy {greedy_cost} vs optimal {}",
            opt.comm_us
        );
        assert_eq!(opt.schedule.groups.len(), c.schedule.groups.len());
    }

    #[test]
    fn greedy_matches_optimal_on_two_reads() {
        let (c, cfg, net) = setup(gcomm_kernels_src::TWO_READS);
        let greedy_cost = comm_cost(&c, &cfg, &net);
        let budget = gcomm_guard::Budget::steps(100_000);
        let opt =
            optimal_placement_jobs(&c, &CombinePolicy::default(), &cfg, &net, &budget, 1).unwrap();
        assert!(greedy_cost <= opt.comm_us * 1.0001);
    }

    #[test]
    fn optimal_never_beats_greedy_by_much_on_gauss() {
        let c = compile(gcomm_kernels_src::GAUSS, Strategy::Global).unwrap();
        let cfg = SimConfig::uniform(&c, ProcGrid::balanced(4, 2), 32).with("nsteps", 2);
        let net = NetworkModel::sp2();
        let greedy_cost = comm_cost(&c, &cfg, &net);
        let budget = gcomm_guard::Budget::steps(30_000);
        let opt =
            optimal_placement_jobs(&c, &CombinePolicy::default(), &cfg, &net, &budget, 1).unwrap();
        // The greedy must be within 10% of the best assignment found.
        assert!(
            greedy_cost <= opt.comm_us * 1.10,
            "greedy {greedy_cost} vs optimal {} (nodes {}, truncated {})",
            opt.comm_us,
            opt.nodes,
            opt.truncated
        );
    }

    /// Branch-and-bound must return bit-identical results to the retained
    /// exhaustive reference when both complete (same cost bits, same
    /// schedule, same winner under the first-in-enumeration-order
    /// tie-break).
    #[test]
    fn bnb_matches_exhaustive_on_kernels() {
        for src in [
            gcomm_kernels_src::FIG4,
            gcomm_kernels_src::TWO_READS,
            gcomm_kernels_src::GAUSS,
        ] {
            let (c, cfg, net) = setup(src);
            let policy = CombinePolicy::default();
            let ex = exhaustive_placement(
                &c,
                &policy,
                &cfg,
                &net,
                &gcomm_guard::Budget::steps(2_000_000),
            )
            .unwrap();
            if ex.truncated {
                continue; // space too large for the reference; covered by fuzz suite
            }
            for jobs in [1usize, 8] {
                let bb = optimal_placement_jobs(
                    &c,
                    &policy,
                    &cfg,
                    &net,
                    &gcomm_guard::Budget::steps(2_000_000),
                    jobs,
                )
                .unwrap();
                assert!(!bb.truncated);
                assert_eq!(
                    bb.comm_us.to_bits(),
                    ex.comm_us.to_bits(),
                    "cost mismatch on kernel (jobs {jobs})"
                );
                assert_eq!(bb.schedule, ex.schedule, "schedule mismatch (jobs {jobs})");
            }
        }
    }

    /// Regression pin for admissibility: for every prefix of every
    /// complete assignment, the analytic bound `g + h[d]` must not exceed
    /// the cheapest simulated completion — pruning can never discard the
    /// true optimum.
    #[test]
    fn lower_bound_is_admissible_on_enumerated_subtrees() {
        /// Binds every choice of entry `d` under the prefix already bound,
        /// checks the bound of each extended prefix against the cheapest
        /// leaf below it, and returns the cheapest leaf below the prefix.
        fn cheapest_completion(s: &mut Searcher<'_, '_>, scratch: &mut Compiled, d: usize) -> f64 {
            let n = s.space.ids.len();
            if d == n {
                scratch.schedule.groups = s.space.groups(s.ctx, &s.digits, s.policy);
                return simulate(&lower_to_sim_with(&*scratch, s.cfg, s.ctx), s.net).comm_us;
            }
            let mut min = f64::INFINITY;
            for j in 0..s.space.choice_sets[d].len() {
                s.digits[d] = j;
                s.bind(d, j);
                let g = s.partial_cost();
                let below = cheapest_completion(s, scratch, d + 1);
                s.unbind();
                assert!(
                    g + s.cm.h[d + 1] <= below + slack(below),
                    "inadmissible bound at depth {} under {:?}: \
                     g+h = {} vs min completion {below}",
                    d + 1,
                    &s.digits[..=d],
                    g + s.cm.h[d + 1]
                );
                min = min.min(below);
            }
            min
        }

        for src in [gcomm_kernels_src::FIG4, gcomm_kernels_src::TWO_READS] {
            let (c, cfg, net) = setup(src);
            let policy = CombinePolicy::default();
            let (ctx, space) = front_half(&c).unwrap();
            let base = base_scratch(&c, &space);
            let cm = build_cost_model(&base, &cfg, &net, &ctx, &space);
            assert!(space.space <= 4096, "kernel meant to be enumerable");
            // The searcher only lends its incremental grouping and analytic
            // cost; the walk above never calls `dfs`.
            let mut s = Searcher {
                ctx: &ctx,
                space: &space,
                cm: &cm,
                policy: &policy,
                cfg: &cfg,
                net: &net,
                base: &base,
                prefix: &[],
                k: 0,
                allowance: u64::MAX,
                bound: f64::INFINITY,
                digits: vec![0usize; space.ids.len()],
                groups: Vec::new(),
                bind_log: Vec::new(),
                dom: HashMap::new(),
                scratch: None,
                nodes: 0,
                leaves: 0,
                pruned_bound: 0,
                pruned_dominance: 0,
                truncated: false,
                stopped: false,
                best: None,
            };
            cheapest_completion(&mut s, &mut base.clone(), 0);
        }
    }

    /// Kernel sources for tests (kept local to avoid a dev-dependency
    /// cycle with gcomm-kernels).
    mod gcomm_kernels_src {
        pub const FIG4: &str = "
program fig4
param n
real a(n,n), b(n,n), c(n,n), d(n,n) distribute (block, *)
real cond
b(1:n, 1:n:2) = 1
b(1:n, 2:n:2) = 2
if (cond > 0) then
  a(1:n, 1:n) = 3
else
  a(1:n, 1:n) = d(1:n, 1:n)
endif
do i = 2, n
  do j = 1, n, 2
    c(i, j) = a(i-1, j) + b(i-1, j)
  enddo
  do j = 1, n
    c(i, j) = a(i-1, j) + b(i-1, j)
  enddo
enddo
end";
        pub const TWO_READS: &str = "
program t
param n, nsteps
real a(n,n), b(n,n), c(n,n) distribute (block,block)
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
  c(2:n, 1:n) = a(1:n-1, 1:n)
  a(1:n, 1:n) = b(1:n, 1:n) + c(1:n, 1:n)
enddo
end";
        pub const GAUSS: &str = "
program gauss
param n, nsteps
real x(n,n), y(n,n), w(n,n), edge(n,n) distribute (block, block)
real acc(n,n) distribute (block, block)
do t = 1, nsteps
  acc(2:n, 2:n) = x(1:n-1, 2:n) + y(1:n-1, 2:n) + w(1:n-1, 2:n) + edge(1:n-1, 2:n) &
                + x(2:n, 1:n-1) + y(2:n, 1:n-1) + w(2:n, 1:n-1)
  acc(1:n-1, 1:n-1) = acc(1:n-1, 1:n-1) + x(2:n, 2:n) + y(2:n, 2:n) + w(2:n, 2:n)
  x(1:n, 1:n) = acc(1:n, 1:n)
  y(1:n, 1:n) = acc(1:n, 1:n) * 0.5
  w(1:n, 1:n) = acc(1:n, 1:n) * 0.25
  edge(1:n, 1:n) = acc(1:n, 1:n) * 0.125
enddo
end";
    }
}
