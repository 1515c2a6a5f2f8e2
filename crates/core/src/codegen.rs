//! Code generation (§4.8): lowering a placed schedule to an executable
//! communication program for the machine simulator.
//!
//! The paper's code generator emits calls into the pHPF runtime (which in
//! turn calls MPL/MPI); ours lowers to a [`CommProgram`] — a loop-structured
//! sequence of compute and communication phases at a *concrete* problem
//! size — which [`gcomm_machine::sim`] then executes under a network model.

use std::collections::HashMap;

use gcomm_coll::{CollConfig, PatternShape};
use gcomm_guard::Budget;
use gcomm_ir::StmtKind;
use gcomm_ir::{AccessRef, LoopId, SubscriptIr, Var};
use gcomm_machine::{CommPhase, CommProgram, Msg, MsgKind, PhaseItem, ProcGrid};
use gcomm_sections::Mapping;

use crate::ctx::SectionCtx;
use crate::entry::CommKind;
use crate::pipeline::CompiledRef;
use crate::schedule::PlacedGroup;

/// Concrete simulation configuration: processor grid and parameter values.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The processor grid.
    pub grid: ProcGrid,
    /// Value of each size parameter, by name.
    pub params: HashMap<String, i64>,
    /// Bytes per element (8 for doubles).
    pub elem_bytes: f64,
    /// Collective-backend configuration (`--machine`/`--coll`). `None`
    /// prices every message on the legacy flat model.
    pub coll: Option<CollConfig>,
}

impl SimConfig {
    /// A configuration with every parameter bound to `n`.
    pub fn uniform<'a>(compiled: impl Into<CompiledRef<'a>>, grid: ProcGrid, n: i64) -> Self {
        SimConfig {
            grid,
            params: compiled
                .into()
                .prog
                .params
                .iter()
                .map(|p| (p.clone(), n))
                .collect(),
            elem_bytes: 8.0,
            coll: None,
        }
    }

    /// Binds one parameter to a different value (e.g. the timestep count).
    pub fn with(mut self, name: &str, v: i64) -> Self {
        self.params.insert(name.to_string(), v);
        self
    }

    /// Routes combined messages through the collective backend.
    pub fn with_coll(mut self, coll: CollConfig) -> Self {
        self.coll = Some(coll);
        self
    }
}

/// Lowers a compiled procedure — a `&Compiled`, or a [`CompiledRef`] over
/// separately held parts — to a concrete communication program. Lowering
/// needs the program and the widened sections, nothing else: neither this
/// nor [`lower_to_sim_with`] builds dominators or SSA. A `&Compiled`
/// brings the sections its compile widened ([`Compiled::asds`](
/// crate::Compiled::asds)); only the ones placement never asked about are
/// widened here, into that same table.
pub fn lower_to_sim<'a>(compiled: impl Into<CompiledRef<'a>>, cfg: &SimConfig) -> CommProgram {
    let compiled = compiled.into();
    let ctx = match compiled.asds {
        Some(asds) => SectionCtx::over(compiled.prog, asds),
        None => SectionCtx::with_budget(compiled.prog, Budget::unlimited()),
    };
    lower_to_sim_with(compiled, cfg, &ctx)
}

/// Like [`lower_to_sim`], but reuses a caller-provided section context
/// (an `&AnalysisCtx` derefs to one) for the *same program*. Repeated
/// lowerings — the optimal search scores thousands of schedules of one
/// procedure — then share its `(entry, level) → ASD` cache instead of
/// widening every section again per call.
pub fn lower_to_sim_with<'a>(
    compiled: impl Into<CompiledRef<'a>>,
    cfg: &SimConfig,
    ctx: &SectionCtx<'_>,
) -> CommProgram {
    let compiled = compiled.into();
    let prog = compiled.prog;
    let p_total = cfg.grid.nproc().max(1);
    let b = loop_bindings(compiled, cfg);
    let items = build_items(compiled, cfg, ctx, &b, None, p_total);
    CommProgram {
        name: prog.name.clone(),
        items,
    }
}

/// What a variable is bound to at the configured size, by dense id: each
/// parameter's value (resolved from [`SimConfig::params`] once), each
/// loop's midpoint and trip count. Shared between lowering and the
/// branch-and-bound cost model so both evaluate sizes with bit-identical
/// arithmetic.
pub(crate) struct Bindings {
    /// By `ParamId`; `None` for a parameter the configuration leaves
    /// unbound.
    params: Vec<Option<i64>>,
    /// By `LoopId`.
    mid: Vec<i64>,
    /// By `LoopId`.
    trips: Vec<u64>,
}

impl Bindings {
    /// The value of `v`, if bound.
    pub(crate) fn get(&self, v: Var) -> Option<i64> {
        match v {
            Var::Param(p) => self.params.get(p.0 as usize).copied().flatten(),
            Var::Loop(l) => self.mid.get(l.0 as usize).copied(),
        }
    }

    /// The trip count of loop `l`.
    pub(crate) fn trips(&self, l: LoopId) -> u64 {
        self.trips[l.0 as usize]
    }
}

/// The [`Bindings`] of a configuration. Parents come first in `LoopId`
/// order, so a loop's bounds see the midpoints of its enclosing loops and
/// nothing of a later one.
pub(crate) fn loop_bindings(compiled: CompiledRef<'_>, cfg: &SimConfig) -> Bindings {
    let prog = compiled.prog;
    let mut b = Bindings {
        params: prog
            .params
            .iter()
            .map(|name| cfg.params.get(name).copied())
            .collect(),
        mid: Vec::with_capacity(prog.loops.len()),
        trips: Vec::with_capacity(prog.loops.len()),
    };
    for li in &prog.loops {
        let (lo, hi) = {
            let bind = |v| b.get(v);
            let lo = li.lo.eval(&bind).unwrap_or(1);
            let hi = li.hi.eval(&bind).unwrap_or(lo);
            (lo, hi)
        };
        let t = if li.step > 0 {
            ((hi - lo).max(-1) / li.step + 1).max(0)
        } else {
            ((lo - hi).max(-1) / -li.step + 1).max(0)
        };
        b.trips.push(t as u64);
        b.mid.push((lo + hi) / 2);
    }
    b
}

fn build_items(
    compiled: CompiledRef<'_>,
    cfg: &SimConfig,
    ctx: &SectionCtx<'_>,
    b: &Bindings,
    context: Option<LoopId>,
    p_total: u64,
) -> Vec<PhaseItem> {
    let prog = compiled.prog;
    let mut items = Vec::new();

    // Communication groups placed in this loop context.
    let mut phase = CommPhase::default();
    for g in &compiled.schedule.groups {
        if prog.cfg.node(g.pos.node).enclosing == context {
            phase
                .msgs
                .push(group_msg(compiled, cfg, ctx, b, g, p_total));
        }
    }
    if !phase.msgs.is_empty() {
        items.push(PhaseItem::Comm(phase));
    }

    // Aggregate compute of the statements directly in this context.
    let mut flops = 0.0f64;
    let mut mem = 0.0f64;
    for info in &prog.stmts {
        if info.enclosing != context {
            continue;
        }
        if let StmtKind::Assign {
            lhs,
            reads,
            flops: f,
            ..
        } = &info.kind
        {
            let elems = access_count(b, lhs) as f64;
            let local = if prog.array(lhs.array).is_replicated() {
                elems
            } else {
                (elems / p_total as f64).max(1.0)
            };
            flops += local * (*f).max(1) as f64;
            mem += local * cfg.elem_bytes * (reads.len() + 1) as f64;
        }
    }
    if flops > 0.0 || mem > 0.0 {
        items.push(PhaseItem::Compute {
            flops,
            mem_bytes: mem,
        });
    }

    // Child loops.
    for (i, li) in prog.loops.iter().enumerate() {
        if li.parent != context {
            continue;
        }
        let l = LoopId(i as u32);
        let body = build_items(compiled, cfg, ctx, b, Some(l), p_total);
        if !body.is_empty() {
            items.push(PhaseItem::Loop {
                trips: b.trips(l),
                body,
            });
        }
    }
    items
}

/// Concrete element count of an access at the configured size.
fn access_count(b: &Bindings, acc: &AccessRef) -> u64 {
    let bind = |v| b.get(v);
    let mut total: u64 = 1;
    for s in &acc.subs {
        let c = match s {
            SubscriptIr::Elem(_) => 1,
            SubscriptIr::Range { lo, hi, step } => {
                let lo = lo.eval(&bind).unwrap_or(1);
                let hi = hi.eval(&bind).unwrap_or(lo);
                if hi < lo {
                    0
                } else {
                    ((hi - lo) / step.abs().max(1) + 1) as u64
                }
            }
            SubscriptIr::NonAffine => 1,
        };
        total = total.saturating_mul(c.max(1));
    }
    total
}

fn group_msg(
    compiled: CompiledRef<'_>,
    cfg: &SimConfig,
    ctx: &SectionCtx<'_>,
    b: &Bindings,
    g: &PlacedGroup,
    p_total: u64,
) -> Msg {
    let mut bytes = 0.0f64;
    for &eid in &g.entries {
        bytes += entry_msg_bytes(
            compiled, cfg, ctx, b, eid, &g.mapping, g.kind, g.pos, p_total,
        );
    }
    let (rounds, kind, shape) = group_pattern(
        compiled,
        cfg,
        ctx,
        b,
        g.entries[0],
        &g.mapping,
        g.kind,
        g.pos,
        p_total,
    );
    lowered_msg(
        cfg.coll.as_ref(),
        bytes,
        rounds,
        kind,
        shape,
        g.entries.len() as u64,
    )
}

/// Builds the group's [`Msg`]: the legacy flat pricing when no collective
/// backend is configured, otherwise the backend's lowered step schedule
/// (with `rounds` set to the schedule length so message counting follows
/// the algorithm actually executed). Shared with the branch-and-bound
/// cost model so both lower bit-identically.
pub(crate) fn lowered_msg(
    coll: Option<&CollConfig>,
    bytes: f64,
    rounds: u64,
    kind: MsgKind,
    shape: PatternShape,
    pieces: u64,
) -> Msg {
    match coll {
        None => Msg::flat(bytes, rounds, kind, pieces),
        Some(cc) => {
            let lowered = gcomm_coll::lower_msg(cc, shape, bytes);
            Msg {
                bytes,
                rounds: (lowered.steps.len() as u64).max(1),
                kind,
                pieces,
                steps: lowered.steps,
            }
        }
    }
}

/// Linearized rank distance of a template-space shift: per-axis offsets
/// weighted by the row-major stride of each grid axis. Translation
/// invariant — the topology tiers see only the magnitude.
fn shift_distance(offsets: &[i64], grid: &ProcGrid) -> u64 {
    let rank = grid.rank();
    let mut dist: i64 = 0;
    for (axis, &off) in offsets.iter().enumerate() {
        let a = axis.min(rank.saturating_sub(1));
        let mut stride: i64 = 1;
        for b in (a + 1)..rank {
            stride = stride.saturating_mul(grid.axis(b) as i64);
        }
        dist = dist.saturating_add(off.saturating_mul(stride));
    }
    dist.unsigned_abs().max(1)
}

/// One member's contribution to its group's message bytes (§6.1 cost
/// model). The contributions are exactly additive: `group_msg` sums one
/// per member, in member order, so the branch-and-bound search can
/// precompute them per `(entry, candidate position)` and rebuild any
/// group's byte count without re-walking sections.
#[allow(clippy::too_many_arguments)]
pub(crate) fn entry_msg_bytes(
    compiled: CompiledRef<'_>,
    cfg: &SimConfig,
    ctx: &SectionCtx<'_>,
    b: &Bindings,
    eid: crate::entry::EntryId,
    mapping: &Mapping,
    kind: CommKind,
    pos: gcomm_ir::Pos,
    p_total: u64,
) -> f64 {
    let prog = compiled.prog;
    let level = pos.level(prog);
    let bind = |v| b.get(v);
    let e = compiled.schedule.entry(eid);
    let sect = match compiled.schedule.section_override(eid) {
        Some(s) => s,
        None => &ctx.asd_shared(e, level).section,
    };
    let total = sect.count(&bind).unwrap_or(1).max(1) as f64;
    match (mapping, kind) {
        (_, CommKind::Reduction) => cfg.elem_bytes, // one partial result per reduction
        (Mapping::Shift { offsets }, _) => {
            let local = (total / p_total as f64).max(1.0);
            let arr = prog.array(e.array);
            let mut ghost = local;
            for (axis, &off) in offsets.iter().enumerate() {
                if off == 0 {
                    continue;
                }
                let dim = arr.distributed().nth(axis).unwrap_or(0);
                let ext = sect
                    .dims
                    .get(dim)
                    .and_then(|d| d.count(&bind))
                    .unwrap_or(1)
                    .max(1) as f64;
                let local_ext =
                    (ext / cfg.grid.axis(axis.min(cfg.grid.rank() - 1)) as f64).max(1.0);
                let cyclic = arr.dist.get(dim) == Some(&gcomm_lang::Dist::Cyclic);
                ghost = if cyclic {
                    local
                } else {
                    (local / local_ext * off.unsigned_abs() as f64).max(1.0)
                };
            }
            ghost * cfg.elem_bytes
        }
        (Mapping::Broadcast, _) => total * cfg.elem_bytes,
        _ => total * cfg.elem_bytes / p_total as f64,
    }
}

/// Round count, message kind, and pattern shape of a group led by `head`
/// (the first member). Depends only on the head entry, the group's
/// mapping and kind, and the placement position — shared with the
/// branch-and-bound cost model.
#[allow(clippy::too_many_arguments)]
pub(crate) fn group_pattern(
    compiled: CompiledRef<'_>,
    cfg: &SimConfig,
    ctx: &SectionCtx<'_>,
    b: &Bindings,
    head: crate::entry::EntryId,
    mapping: &Mapping,
    kind: CommKind,
    pos: gcomm_ir::Pos,
    p_total: u64,
) -> (u64, MsgKind, PatternShape) {
    let prog = compiled.prog;
    let level = pos.level(prog);
    let bind = |v| b.get(v);
    let log_p = (64 - (p_total.max(1) - 1).leading_zeros()) as u64;
    match kind {
        CommKind::Nnc => {
            let dist = match mapping {
                Mapping::Shift { offsets } => shift_distance(offsets, &cfg.grid),
                _ => 1,
            };
            (1, MsgKind::PointToPoint, PatternShape::Shift { dist })
        }
        CommKind::Reduction => {
            // The reduction tree spans only the owners of the reduced
            // section: a row section of a (BLOCK, BLOCK) array lives on one
            // grid row, so the combine runs over that axis subset.
            let e = compiled.schedule.entry(head);
            let asd = ctx.asd_shared(e, level);
            let sect = &asd.section;
            let arr = prog.array(e.array);
            let mut owners: u64 = 1;
            for (axis, dim) in arr.distributed().enumerate() {
                let ext = sect
                    .dims
                    .get(dim)
                    .and_then(|d| d.count(&bind))
                    .unwrap_or(u64::MAX);
                if ext > 1 {
                    owners *= cfg.grid.axis(axis.min(cfg.grid.rank() - 1)) as u64;
                }
            }
            let log_owners = (64 - (owners.max(1) - 1).leading_zeros()) as u64;
            (
                log_owners.max(1),
                MsgKind::Collective,
                PatternShape::Tree {
                    parts: owners.max(1),
                },
            )
        }
        CommKind::Broadcast | CommKind::Gather => (
            log_p.max(1),
            MsgKind::Collective,
            PatternShape::Tree { parts: p_total },
        ),
        CommKind::General => (
            log_p.max(1),
            MsgKind::Collective,
            PatternShape::Tree { parts: p_total },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Strategy};
    use gcomm_machine::{simulate, NetworkModel};

    const STENCIL: &str = "
program stencil
param n, nsteps
real a(n,n), b(n,n) distribute (block,block)
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
  a(1:n, 1:n) = b(1:n, 1:n)
enddo
end";

    fn sim(strategy: Strategy, n: i64) -> gcomm_machine::SimResult {
        let c = compile(STENCIL, strategy).unwrap();
        let cfg = SimConfig::uniform(&c, ProcGrid::balanced(4, 2), n).with("nsteps", 10);
        let prog = lower_to_sim(&c, &cfg);
        simulate(&prog, &NetworkModel::sp2())
    }

    #[test]
    fn stencil_simulates_with_messages_inside_timestep_loop() {
        let r = sim(Strategy::Global, 512);
        // One NNC exchange per timestep: 10 messages.
        assert_eq!(r.messages, 10);
        assert!(r.comm_us > 0.0);
        assert!(r.compute_us > 0.0);
    }

    #[test]
    fn larger_problems_cost_more_compute() {
        let a = sim(Strategy::Global, 256);
        let b = sim(Strategy::Global, 1024);
        assert!(b.compute_us > 4.0 * a.compute_us);
    }

    #[test]
    fn redundant_reads_cost_more_under_baseline() {
        let src = "
program dup
param n, nsteps
real a(n,n), b(n,n), c(n,n) distribute (block,block)
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
  c(2:n, 1:n) = a(1:n-1, 1:n)
  a(1:n, 1:n) = b(1:n, 1:n) + c(1:n, 1:n)
enddo
end";
        let run = |s| {
            let c = compile(src, s).unwrap();
            let cfg = SimConfig::uniform(&c, ProcGrid::balanced(4, 2), 512).with("nsteps", 5);
            simulate(&lower_to_sim(&c, &cfg), &NetworkModel::now_myrinet())
        };
        let orig = run(Strategy::Original);
        let glob = run(Strategy::Global);
        assert!(glob.messages < orig.messages);
        assert!(glob.comm_us < orig.comm_us);
    }
}
