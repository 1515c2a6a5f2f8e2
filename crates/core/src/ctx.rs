//! Shared analysis context: program, SSA, dominators, dependence tester —
//! and, split out for the consumers that need nothing else, the section
//! context (program + ASD cache).

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use gcomm_dep::{widen::widen_access_within, DepResult, DepTest};
use gcomm_guard::Budget;
use gcomm_ir::{AccessRef, DomTree, IrProgram, StmtId};
use gcomm_sections::{Asd, Section, SymCtx};
use gcomm_ssa::{DefId, DefKind, SsaForm};

use crate::entry::{CommEntry, EntryId};

/// What widening an entry's section needs, and all that lowering a placed
/// schedule (`lower_to_sim`, the branch-and-bound cost model) needs of the
/// analysis: the program, the symbolic comparison context, the budget and
/// the `(entry, level) → ASD` cache. No dominators, no SSA.
#[derive(Debug)]
pub struct SectionCtx<'a> {
    /// The program under analysis.
    pub prog: &'a IrProgram,
    /// Symbolic comparison context.
    pub sym: SymCtx,
    /// Resource budget for the expensive phases. Unlimited by default;
    /// when it exhausts, every phase degrades conservatively (DESIGN.md
    /// §10) instead of erroring.
    pub budget: Budget,
    /// Memoized `(entry, level) → ASD`: the widened section of an entry at
    /// a placement level is a pure function of the program, so the pair
    /// scans (redundancy sweep, greedy grouping) and the cost model build
    /// each one exactly once (DESIGN.md §11).
    asd_cache: Mutex<HashMap<(EntryId, u32), Arc<Asd>>>,
}

impl<'a> SectionCtx<'a> {
    /// An empty cache over `prog`; widenings charge against `budget`.
    pub fn with_budget(prog: &'a IrProgram, budget: Budget) -> Self {
        SectionCtx {
            prog,
            sym: SymCtx::default(),
            budget,
            asd_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The access of read `idx` of statement `s`.
    pub fn read_access(&self, s: StmtId, idx: usize) -> &'a AccessRef {
        &self.prog.stmt(s).kind.reads()[idx].access
    }

    /// The section an entry communicates when placed at nesting level
    /// `level`: the union (bounding box per dimension, stride-aware) of its
    /// reads' accesses widened over all loops deeper than `level`.
    ///
    /// Served from the per-compile cache (the widening runs once per
    /// `(entry, level)`); callers that only need to *borrow* the section
    /// should prefer [`asd_shared`](Self::asd_shared) to skip the clone.
    pub fn section_at(&self, e: &CommEntry, level: u32) -> Section {
        self.asd_shared(e, level).section.clone()
    }

    /// The cached ASD of an entry at a placement level.
    ///
    /// The compute happens under the cache lock, so exactly one thread
    /// builds (and budget-charges) each descriptor even when the parallel
    /// optimal-search workers race on the same key — keeping charge and
    /// counter totals identical between `--jobs 1` and `--jobs N`.
    pub fn asd_shared(&self, e: &CommEntry, level: u32) -> Arc<Asd> {
        let mut cache = self.asd_cache.lock().unwrap();
        if let Some(hit) = cache.get(&(e.id, level)) {
            gcomm_obs::count("core.asd_cache_hits", 1);
            return Arc::clone(hit);
        }
        let stmt_level = self.prog.stmt(e.stmt).level;
        let mut acc: Option<Section> = None;
        for &r in &e.reads {
            let a = self.read_access(e.stmt, r);
            let s = widen_access_within(self.prog, a, stmt_level, level, &self.budget);
            acc = Some(match acc {
                None => s,
                Some(prev) => prev.union_bbox(&s, &self.sym).unwrap_or(prev),
            });
        }
        let asd = Arc::new(Asd::new(
            e.array,
            acc.unwrap_or_default(),
            e.mapping.clone(),
        ));
        cache.insert((e.id, level), Arc::clone(&asd));
        asd
    }

    /// ASD subsumption: true when `sub`'s communication at `level` is
    /// fully served by `sup`'s ([`Asd::subsumed_by_within`] over the
    /// cached descriptors).
    pub fn subsumed_within(&self, sub: &CommEntry, sup: &CommEntry, level: u32) -> bool {
        self.asd_shared(sub, level).subsumed_by_within(
            &self.asd_shared(sup, level),
            &self.sym,
            &self.budget,
        )
    }
}

/// Everything the placement phases need about one procedure: the section
/// context (reached through `Deref`, so `ctx.prog`, `ctx.budget`,
/// `ctx.asd_shared(..)` read as before) plus dominators and SSA.
#[derive(Debug)]
pub struct AnalysisCtx<'a> {
    /// Program, budget and ASD cache — the part lowering shares.
    pub sections: SectionCtx<'a>,
    /// Its SSA form.
    pub ssa: SsaForm,
    /// Dominator tree of the augmented CFG.
    pub dt: DomTree,
}

impl<'a> Deref for AnalysisCtx<'a> {
    type Target = SectionCtx<'a>;

    fn deref(&self) -> &SectionCtx<'a> {
        &self.sections
    }
}

impl<'a> AnalysisCtx<'a> {
    /// Builds the context (dominators + SSA) with an unlimited budget.
    pub fn new(prog: &'a IrProgram) -> Self {
        Self::with_budget(prog, Budget::unlimited())
    }

    /// Builds the context with an explicit resource budget that all
    /// subsequent analyses charge against.
    pub fn with_budget(prog: &'a IrProgram, budget: Budget) -> Self {
        let _s = gcomm_obs::span("core.analysis");
        let dt = DomTree::compute(&prog.cfg);
        let ssa = {
            let _t = gcomm_obs::time("ssa.build");
            SsaForm::build_with(prog, &dt)
        };
        AnalysisCtx {
            sections: SectionCtx::with_budget(prog, budget),
            ssa,
            dt,
        }
    }

    /// The dependence tester.
    pub fn dep(&self) -> DepTest<'a> {
        DepTest::new(self.prog)
    }

    /// The written access of a definition's statement (regular defs only).
    pub fn def_access(&self, d: DefId) -> Option<(&'a AccessRef, StmtId)> {
        match &self.ssa.def(d).kind {
            DefKind::Regular { stmt, .. } => {
                let acc = self.prog.stmt(*stmt).kind.def()?;
                Some((acc, *stmt))
            }
            _ => None,
        }
    }

    /// **Extended** `IsArrayDep(d, u, l)`: the paper's Fig. 8(d) test plus
    /// the loop-independent case — a definition inside the level-`l` loop
    /// that feeds the use in the same iteration also pins communication
    /// inside that loop (the "no *true dependence*" reading of the classic
    /// vectorization rule; Fig. 8's `v_l > 0` captures only carried
    /// dependences). One direction analysis answers both halves.
    pub fn ext_dep(
        &self,
        d_stmt: StmtId,
        d_acc: &AccessRef,
        u_stmt: StmtId,
        u_acc: &AccessRef,
        l: u32,
    ) -> bool {
        let res = self.dep().analyze(d_stmt, d_acc, u_stmt, u_acc);
        ext_dep_at(&res, d_stmt, u_stmt, l)
    }
}

/// The extended `IsArrayDep` at level `l`, read off one analysis of the
/// `(d_stmt, u_stmt)` pair: carried at `l`, or — for any common level, and
/// for `l == 0` — loop-independent flow (same iteration of all common
/// loops, definition textually before the use).
pub(crate) fn ext_dep_at(res: &DepResult, d_stmt: StmtId, u_stmt: StmtId, l: u32) -> bool {
    res.carried_at(l)
        || (l as usize <= res.allowed.len() && d_stmt < u_stmt && res.same_iteration())
}
