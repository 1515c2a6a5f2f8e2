//! Shared analysis context: program, SSA, dominators, and the per-compile
//! table of direction analyses — and, split out for the consumers that
//! need nothing else, the section context (program + ASD cache).

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use gcomm_dep::{widen::widen_access_within, DepResult, DepTest};
use gcomm_guard::Budget;
use gcomm_ir::{AccessRef, DomTree, IrProgram, StmtId};
use gcomm_sections::{Asd, Section, SymCtx};
use gcomm_ssa::{DefId, DefKind, DefWalk, SsaForm};

use crate::entry::CommEntry;

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
    /// each one exactly once (DESIGN.md §11). Dense: the slot of
    /// `(entry, level)` is `entry * asd_levels + level`, grown a row at a
    /// time as entries are first asked about.
    asd_cache: Mutex<Vec<Option<Arc<Asd>>>>,
    /// Slots per entry in `asd_cache`: one per loop level of the program,
    /// plus level 0.
    asd_levels: usize,
}

impl<'a> SectionCtx<'a> {
    /// An empty cache over `prog`; widenings charge against `budget`.
    pub fn with_budget(prog: &'a IrProgram, budget: Budget) -> Self {
        SectionCtx {
            prog,
            sym: SymCtx::default(),
            budget,
            asd_cache: Mutex::new(Vec::new()),
            asd_levels: prog
                .loops
                .iter()
                .map(|l| l.level as usize)
                .max()
                .unwrap_or(0)
                + 1,
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
        // No loop is deeper than the program's deepest, so every level
        // from there on widens nothing and shares one slot.
        let row = e.id.0 as usize * self.asd_levels;
        let slot = row + (level as usize).min(self.asd_levels - 1);
        let mut cache = self.asd_cache.lock().unwrap();
        if cache.len() <= slot {
            cache.resize(row + self.asd_levels, None);
        }
        if let Some(hit) = &cache[slot] {
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
        cache[slot] = Some(Arc::clone(&asd));
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
/// `ctx.asd_shared(..)` read as before) plus dominators, SSA, and what
/// `Latest` and `Earliest` share.
#[derive(Debug)]
pub struct AnalysisCtx<'a> {
    /// Program, budget and ASD cache — the part lowering shares.
    pub sections: SectionCtx<'a>,
    /// Its SSA form.
    pub ssa: SsaForm,
    /// Dominator tree of the augmented CFG.
    pub dt: DomTree,
    /// The direction analyses asked so far and the SSA walks' scratch.
    /// Behind a lock so the context stays `Sync` (the §6.1 search shares
    /// it across workers); each `Latest` / `Earliest` walk takes it once.
    deps: Mutex<DepState>,
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
            deps: Mutex::default(),
        }
    }

    /// The written access of a regular definition, with its statement
    /// (`None` for ENTRY and φ definitions). A regular definition without
    /// one is an SSA builder bug: counted as
    /// `core.defensive.def_without_access` (and a debug build stops)
    /// before the callers fall back.
    pub fn def_access(&self, d: DefId) -> Option<(&'a AccessRef, StmtId)> {
        let DefKind::Regular { stmt, .. } = &self.ssa.def(d).kind else {
            return None;
        };
        let acc = self.prog.stmt(*stmt).kind.def();
        if acc.is_none() {
            defensive("core.defensive.def_without_access");
        }
        Some((acc?, *stmt))
    }

    /// Locks the state `Latest` and `Earliest` share for one walk.
    pub(crate) fn dep_state(&self) -> MutexGuard<'_, DepState> {
        self.deps.lock().unwrap()
    }
}

/// What `Latest` and `Earliest` keep across one compile (DESIGN.md §5
/// item 12): the direction analysis of every `(definition, use)` pair
/// asked so far, and the scratch of their SSA walks.
#[derive(Debug, Default)]
pub(crate) struct DepState {
    /// The analyses, by pair.
    pub(crate) pairs: PairTable,
    /// Visited set of the walks (`Rcount`'s, and Latest's reaching-def
    /// search).
    pub(crate) walk: DefWalk,
    /// One read's reaching regular definitions (Latest).
    pub(crate) reaching: Vec<DefId>,
}

/// Direction analyses by `(definition, use)` pair, each made at most once
/// and only when first asked for: dense by use slot
/// ([`SsaForm::use_slot`]), each slot heading a chain through `pairs` of
/// the definitions analysed against that read.
#[derive(Debug, Default)]
pub(crate) struct PairTable {
    /// Per use slot, the newest of its pairs, or [`NO_PAIR`]; empty until
    /// the first ask.
    heads: Vec<u32>,
    pairs: Vec<Pair>,
}

#[derive(Debug)]
struct Pair {
    def: DefId,
    /// The use slot's next-older pair, or [`NO_PAIR`].
    next: u32,
    res: DepResult,
}

const NO_PAIR: u32 = u32::MAX;

impl PairTable {
    /// The direction analysis of regular definition `d` — which writes
    /// `d_acc` at `d_stmt` ([`AnalysisCtx::def_access`]) — against read
    /// `idx` of `u_stmt`: analysed (and counted in `dep.queries`) on the
    /// first ask, read back on every later one.
    pub(crate) fn get(
        &mut self,
        ctx: &AnalysisCtx<'_>,
        d: DefId,
        (d_acc, d_stmt): (&AccessRef, StmtId),
        u_stmt: StmtId,
        idx: usize,
    ) -> &DepResult {
        // invariant: callers pass the reads of the program's statements.
        let slot = ctx
            .ssa
            .use_slot(u_stmt, idx)
            .expect("a read of the program");
        if self.heads.is_empty() {
            // Most asked reads pair with one or two definitions.
            self.heads = vec![NO_PAIR; ctx.ssa.use_count()];
            self.pairs.reserve(ctx.ssa.use_count());
        }
        let mut at = self.heads[slot];
        while at != NO_PAIR && self.pairs[at as usize].def != d {
            at = self.pairs[at as usize].next;
        }
        if at == NO_PAIR {
            let u_acc = ctx.read_access(u_stmt, idx);
            let res = DepTest::new(ctx.prog).analyze(d_stmt, d_acc, u_stmt, u_acc);
            at = self.pairs.len() as u32;
            self.pairs.push(Pair {
                def: d,
                next: self.heads[slot],
                res,
            });
            self.heads[slot] = at;
        }
        &self.pairs[at as usize].res
    }
}

/// **Extended** `IsArrayDep(d, u, l)`: the paper's Fig. 8(d) test plus the
/// loop-independent case, read off one analysis of the `(d_stmt, u_stmt)`
/// pair — a definition inside the level-`l` loop that feeds the use in the
/// same iteration also pins communication inside that loop (the "no *true
/// dependence*" reading of the classic vectorization rule; Fig. 8's
/// `v_l > 0` captures only carried dependences). True when carried at `l`,
/// or — for any common level, and for `l == 0` — loop-independent flow
/// (same iteration of all common loops, definition textually before the
/// use).
pub(crate) fn ext_dep_at(res: &DepResult, d_stmt: StmtId, u_stmt: StmtId, l: u32) -> bool {
    res.carried_at(l)
        || (l as usize <= res.allowed.len() && d_stmt < u_stmt && res.same_iteration())
}

/// A defensive fallback was taken: an analysis bug that the legal but
/// pessimal fallback would otherwise hide. Counted under `counter` (zero
/// on every real input; `tests/placement_faithfulness.rs` holds it there),
/// and a debug build stops.
pub(crate) fn defensive(counter: &'static str) {
    gcomm_obs::count(counter, 1);
    debug_assert!(false, "defensive fallback taken: {counter}");
}
