//! Dynamic distributed-schedule verifier.
//!
//! Replays a compiled program at a concrete size under a block/cyclic
//! distribution and checks, element by element, that every remote read is
//! served by **fresh** communicated data:
//!
//! * when execution reaches a placed communication group, the verifier
//!   records — for every element of every member entry's (vectorized)
//!   section — the element's current write-version in a *ghost table*;
//! * when a statement reads an element owned by a different processor than
//!   the element it computes (owner-computes pairing), or any element at
//!   all for reductions/broadcasts, the ghost version must equal the
//!   element's current version.
//!
//! A missing message shows up as an absent ghost entry; a too-early
//! placement or an over-aggressive redundancy elimination shows up as a
//! stale version. The check is schedule-agnostic: it validates `Original`,
//! `EarliestRE`, and `Global` placements alike.

use std::collections::HashMap;
use std::fmt;

use gcomm_core::{AnalysisCtx, CommKind, Compiled};
use gcomm_ir::{IrProgram, Pos, StmtId, StmtKind};
use gcomm_machine::ProcGrid;
use gcomm_sections::{DimSect, Section};

use crate::interp::{ExecError, Interp, Monitor, State};

/// One freshness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Violations found (capped at 50).
    pub errors: Vec<VerifyError>,
    /// Reads inspected.
    pub reads_checked: u64,
    /// Remote elements whose freshness was checked.
    pub remote_elements_checked: u64,
    /// Communication events executed.
    pub comm_events: u64,
    /// Elements recorded into the ghost table.
    pub elements_communicated: u64,
}

impl VerifyReport {
    /// True when no violation was found.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckKind {
    /// Shift exchange: only elements with a different owner than the paired
    /// computed element must be fresh.
    OwnerPaired,
    /// Reductions/broadcasts/gathers: every element read must be fresh.
    AllRemote,
}

/// Verifies a compiled schedule dynamically.
///
/// # Errors
///
/// Returns [`ExecError`] if the program itself fails to execute (unbound
/// parameters, non-affine subscripts, out-of-bounds accesses). Freshness
/// violations are reported in the returned [`VerifyReport`], not as `Err`.
pub fn verify_schedule(
    compiled: &Compiled,
    grid: &ProcGrid,
    params: &HashMap<String, i64>,
) -> Result<VerifyReport, ExecError> {
    let prog = &compiled.prog;
    let ctx = AnalysisCtx::new(prog);

    // Index groups by position.
    let mut groups_by_pos: HashMap<Pos, Vec<usize>> = HashMap::new();
    for (gi, g) in compiled.schedule.groups.iter().enumerate() {
        groups_by_pos.entry(g.pos).or_default().push(gi);
    }

    // Which reads need checking, and how.
    let mut checks: HashMap<(StmtId, usize), CheckKind> = HashMap::new();
    for e in &compiled.schedule.entries {
        let kind = match e.kind {
            CommKind::Nnc => CheckKind::OwnerPaired,
            _ => CheckKind::AllRemote,
        };
        for &r in &e.reads {
            let slot = checks.entry((e.stmt, r)).or_insert(kind);
            if kind == CheckKind::AllRemote {
                *slot = CheckKind::AllRemote;
            }
        }
    }

    let mut mon = SchedMonitor {
        compiled,
        ctx,
        grid,
        groups_by_pos,
        checks,
        ghost: vec![HashMap::new(); prog.arrays.len()],
        report: VerifyReport::default(),
    };
    let mut it = Interp::new(prog, params)?;
    {
        let _t = gcomm_obs::time("exec.verify");
        it.run(&mut mon)?;
    }
    gcomm_obs::count("exec.verify.runs", 1);
    gcomm_obs::count(
        "exec.verify.remote_elements",
        mon.report.remote_elements_checked,
    );
    gcomm_obs::count("exec.verify.violations", mon.report.errors.len() as u64);
    Ok(mon.report)
}

struct SchedMonitor<'a> {
    compiled: &'a Compiled,
    ctx: AnalysisCtx<'a>,
    grid: &'a ProcGrid,
    groups_by_pos: HashMap<Pos, Vec<usize>>,
    checks: HashMap<(StmtId, usize), CheckKind>,
    /// Per array: flat element → version captured at the last communication
    /// covering it.
    ghost: Vec<HashMap<usize, u64>>,
    report: VerifyReport,
}

impl<'a> SchedMonitor<'a> {
    fn error(&mut self, msg: String) {
        if self.report.errors.len() < 50 {
            self.report.errors.push(VerifyError { message: msg });
        }
    }

    /// Grid coordinates owning an element.
    fn owner(
        &self,
        prog: &IrProgram,
        st: &State,
        array: gcomm_ir::ArrayId,
        idx: &[i64],
    ) -> Vec<u32> {
        let info = prog.array(array);
        let data = &st.arrays[array.0 as usize];
        let mut coords = Vec::new();
        for (axis, d) in info.distributed().enumerate() {
            let axis_size = self.grid.axis(axis.min(self.grid.rank() - 1));
            let extent = data.extents[d] as u64;
            let pos0 = (idx[d] + info.align_of(d) - data.lo[d]).max(0) as u64;
            let c = match info.dist[d] {
                gcomm_lang::Dist::Block => {
                    let b = extent.div_ceil(axis_size as u64).max(1);
                    ((pos0 / b) as u32).min(axis_size - 1)
                }
                gcomm_lang::Dist::Cyclic => (pos0 % axis_size as u64) as u32,
                gcomm_lang::Dist::Collapsed => 0,
            };
            coords.push(c);
        }
        coords
    }

    /// Enumerates a symbolic section at the current bindings.
    fn enumerate_section(
        &self,
        prog: &IrProgram,
        st: &State,
        sect: &Section,
    ) -> Result<Vec<Vec<i64>>, ExecError> {
        let mut dims: Vec<Vec<i64>> = Vec::new();
        for d in &sect.dims {
            match d {
                DimSect::Elem(e) => {
                    let v = st.eval_affine(prog, e).ok_or_else(|| ExecError {
                        message: "unbound variable in communicated section".into(),
                    })?;
                    dims.push(vec![v]);
                }
                DimSect::Range { lo, hi, step } => {
                    let lo = st.eval_affine(prog, lo).ok_or_else(|| ExecError {
                        message: "unbound variable in communicated section".into(),
                    })?;
                    let hi = st.eval_affine(prog, hi).ok_or_else(|| ExecError {
                        message: "unbound variable in communicated section".into(),
                    })?;
                    let step = (*step).max(1);
                    let mut v = Vec::new();
                    let mut i = lo;
                    while i <= hi {
                        v.push(i);
                        i += step;
                    }
                    dims.push(v);
                }
                DimSect::Any => {
                    return Err(ExecError {
                        message: "cannot enumerate an unknown section".into(),
                    });
                }
            }
        }
        let mut out: Vec<Vec<i64>> = vec![Vec::new()];
        for d in &dims {
            let mut next = Vec::with_capacity(out.len() * d.len());
            for pre in &out {
                for &x in d {
                    let mut e = pre.clone();
                    e.push(x);
                    next.push(e);
                }
            }
            out = next;
        }
        Ok(out)
    }

    fn fresh(&self, st: &State, array: gcomm_ir::ArrayId, idx: &[i64]) -> Option<bool> {
        let data = &st.arrays[array.0 as usize];
        let flat = data.flat(idx)?;
        Some(self.ghost[array.0 as usize].get(&flat) == Some(&data.vers[flat]))
    }
}

impl<'a> Monitor for SchedMonitor<'a> {
    fn at_pos(&mut self, prog: &IrProgram, st: &State, pos: Pos) -> Result<(), ExecError> {
        let Some(groups) = self.groups_by_pos.get(&pos).cloned() else {
            return Ok(());
        };
        let level = pos.level(prog);
        for gi in groups {
            self.report.comm_events += 1;
            let group = &self.compiled.schedule.groups[gi];
            for &eid in &group.entries {
                let e = self.compiled.schedule.entry(eid);
                let sect = self
                    .compiled
                    .schedule
                    .section_override(eid)
                    .cloned()
                    .unwrap_or_else(|| self.ctx.section_at(e, level));
                let elems = self.enumerate_section(prog, st, &sect)?;
                let data = &st.arrays[e.array.0 as usize];
                for idx in elems {
                    if let Some(flat) = data.flat(&idx) {
                        self.ghost[e.array.0 as usize].insert(flat, data.vers[flat]);
                        self.report.elements_communicated += 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn before_stmt(&mut self, prog: &IrProgram, st: &State, stmt: StmtId) -> Result<(), ExecError> {
        let info = prog.stmt(stmt);
        let reads = info.kind.reads();
        let lhs = info.kind.def();
        // Enumerate the lhs space once for owner pairing.
        let lhs_space = match (lhs, &info.kind) {
            (Some(l), StmtKind::Assign { .. }) => Some(st.enumerate_access(prog, l)?),
            _ => None,
        };
        for (ri, read) in reads.iter().enumerate() {
            let Some(kind) = self.checks.get(&(stmt, ri)).copied() else {
                continue; // local read
            };
            self.report.reads_checked += 1;
            let elems = st.enumerate_access(prog, &read.access)?;
            match kind {
                CheckKind::AllRemote => {
                    for idx in &elems {
                        self.report.remote_elements_checked += 1;
                        match self.fresh(st, read.access.array, idx) {
                            Some(true) => {}
                            Some(false) | None => {
                                let name = &prog.array(read.access.array).name;
                                self.error(format!(
                                    "stale or missing data for {name}{idx:?} read by {stmt} (collective)"
                                ));
                            }
                        }
                    }
                }
                CheckKind::OwnerPaired => {
                    let Some(lspace) = lhs_space.as_ref() else {
                        continue;
                    };
                    let Some(l) = lhs else { continue };
                    if lspace.len() != elems.len() {
                        self.error(format!(
                            "non-conformable read {ri} at {stmt}: {} vs {} elements",
                            elems.len(),
                            lspace.len()
                        ));
                        continue;
                    }
                    for (idx, lidx) in elems.iter().zip(lspace.iter()) {
                        let ro = self.owner(prog, st, read.access.array, idx);
                        let lo = self.owner(prog, st, l.array, lidx);
                        if ro == lo {
                            continue; // local to the computing processor
                        }
                        self.report.remote_elements_checked += 1;
                        match self.fresh(st, read.access.array, idx) {
                            Some(true) => {}
                            Some(false) | None => {
                                let name = &prog.array(read.access.array).name;
                                self.error(format!(
                                    "stale or missing ghost for {name}{idx:?} read by {stmt}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_core::{compile, Strategy};

    fn params_for(compiled: &Compiled, n: i64) -> HashMap<String, i64> {
        let mut m: HashMap<String, i64> = compiled
            .prog
            .params
            .iter()
            .map(|p| (p.clone(), n))
            .collect();
        m.insert("nsteps".into(), 2);
        m
    }

    fn grid_for(compiled: &Compiled) -> ProcGrid {
        ProcGrid::balanced(4, compiled.prog.grid_rank())
    }

    #[test]
    fn all_kernels_all_strategies_verify() {
        for (bench, routine, src) in gcomm_kernels::all_kernels() {
            for strategy in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
                let c = compile(src, strategy).unwrap();
                let grid = grid_for(&c);
                let params = params_for(&c, 8);
                let rep = verify_schedule(&c, &grid, &params)
                    .unwrap_or_else(|e| panic!("{bench}:{routine} {strategy:?}: {e}"));
                assert!(
                    rep.ok(),
                    "{bench}:{routine} {strategy:?}: {} violations, first: {}",
                    rep.errors.len(),
                    rep.errors.first().map(|e| e.message.as_str()).unwrap_or("")
                );
                assert!(
                    rep.remote_elements_checked > 0,
                    "{bench}:{routine} checked nothing"
                );
            }
        }
    }

    #[test]
    fn figure_examples_verify() {
        for src in [
            gcomm_kernels::FIG3_F90,
            gcomm_kernels::FIG3_SCALARIZED,
            gcomm_kernels::FIG4_RUNNING,
        ] {
            for strategy in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
                let c = compile(src, strategy).unwrap();
                let grid = grid_for(&c);
                let params = params_for(&c, 8);
                let rep = verify_schedule(&c, &grid, &params).unwrap();
                assert!(rep.ok(), "{strategy:?}: {:?}", rep.errors.first());
            }
        }
    }

    const STENCIL: &str = "
program t
param n, nsteps
real a(n,n), b(n,n) distribute (block,block)
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
  a(1:n, 1:n) = b(1:n, 1:n)
enddo
end";

    #[test]
    fn dropping_a_message_is_detected() {
        let mut c = compile(STENCIL, Strategy::Global).unwrap();
        assert_eq!(c.schedule.groups.len(), 1);
        c.schedule.groups.clear(); // fault injection: lose the message
        let grid = grid_for(&c);
        let params = params_for(&c, 8);
        let rep = verify_schedule(&c, &grid, &params).unwrap();
        assert!(!rep.ok(), "dropped message must be detected");
    }

    #[test]
    fn too_early_placement_is_detected() {
        let mut c = compile(STENCIL, Strategy::Global).unwrap();
        // Fault injection: hoist the exchange to program start, before the
        // per-timestep redefinitions of `a`.
        c.schedule.groups[0].pos = Pos::top(c.prog.cfg.entry);
        let grid = grid_for(&c);
        let params = params_for(&c, 8);
        let rep = verify_schedule(&c, &grid, &params).unwrap();
        assert!(!rep.ok(), "stale hoisted message must be detected");
    }

    #[test]
    fn legal_hoist_is_accepted() {
        // a is never redefined: hoisting out of the loop is legal and the
        // global strategy does exactly that. The verifier must agree.
        let src = "
program t
param n, nsteps
real a(n,n), b(n,n) distribute (block,block)
a(1:n, 1:n) = 1
do t = 1, nsteps
  b(2:n, 1:n) = a(1:n-1, 1:n)
enddo
end";
        let c = compile(src, Strategy::Global).unwrap();
        // Placement must be outside the loop...
        let lvl = c.schedule.groups[0].pos.level(&c.prog);
        assert_eq!(lvl, 0, "{}", c.report());
        // ...and still verify.
        let grid = grid_for(&c);
        let params = params_for(&c, 8);
        let rep = verify_schedule(&c, &grid, &params).unwrap();
        assert!(rep.ok(), "{:?}", rep.errors.first());
    }
}
