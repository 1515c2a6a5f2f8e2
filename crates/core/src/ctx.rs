//! Shared analysis context: program, SSA, dominators, and the per-compile
//! table of direction analyses — and, split out for the consumers that
//! need nothing else, the section context (program + ASD cache).

use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, OnceLock};

use gcomm_dep::{widen::widen_access_within, DepResult, DepTest};
use gcomm_guard::Budget;
use gcomm_ir::{AccessRef, DomTree, IrProgram, StmtId};
use gcomm_sections::{Asd, Section, SymCtx};
use gcomm_ssa::{DefId, DefKind, DefWalk, SsaForm};

use crate::entry::CommEntry;

/// Memoized `(entry, level) → ASD`: the widened section of an entry at a
/// placement level is a pure function of the program, so the pair scans
/// (redundancy sweep, greedy grouping) and the cost model build each one
/// exactly once (DESIGN.md §11) — and a compile hands its table on to the
/// lowering of its schedule ([`crate::Compiled::asds`]). Dense, and sized
/// once from the program: the slot of `(entry, level)` is `entry * levels
/// + level`, for as many entries as `commgen` can make of the program.
///
/// The default table is empty: it holds nothing, and lowering a
/// [`crate::Compiled`] that carries one widens into a fresh table.
#[derive(Clone, Default)]
pub struct AsdTable {
    slots: Box<[OnceLock<Asd>]>,
    /// Slots per entry: one per loop level of the program, plus level 0.
    levels: usize,
}

impl AsdTable {
    /// An empty table with a slot for every `(entry, level)` of `prog`.
    fn for_program(prog: &IrProgram) -> Self {
        let levels = prog
            .loops
            .iter()
            .map(|l| l.level as usize)
            .max()
            .unwrap_or(0)
            + 1;
        let entries = crate::commgen::max_entries(prog);
        AsdTable {
            slots: (0..entries * levels).map(|_| OnceLock::new()).collect(),
            levels,
        }
    }

    /// True when the table has no slots (the default).
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of an entry at a placement level. No loop is deeper than
    /// the program's deepest, so every level from there on widens nothing
    /// and shares one slot.
    fn slot(&self, e: &CommEntry, level: u32) -> &OnceLock<Asd> {
        let at = e.id.0 as usize * self.levels + (level as usize).min(self.levels - 1);
        // invariant: the table is sized for every entry `commgen` makes of
        // the program it was built for.
        self.slots.get(at).expect("an entry of the table's program")
    }
}

impl fmt::Debug for AsdTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let built = self.slots.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("AsdTable")
            .field("slots", &self.slots.len())
            .field("built", &built)
            .finish()
    }
}

/// What widening an entry's section needs, and all that lowering a placed
/// schedule (`lower_to_sim`, the branch-and-bound cost model) needs of the
/// analysis: the program, the symbolic comparison context, the budget and
/// the `(entry, level) → ASD` table. No dominators, no SSA.
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
    /// The widened sections: this context's own, or a compile's that
    /// lowering reads and fills.
    asds: Cow<'a, AsdTable>,
}

impl<'a> SectionCtx<'a> {
    /// An empty table over `prog`; widenings charge against `budget`.
    pub fn with_budget(prog: &'a IrProgram, budget: Budget) -> Self {
        SectionCtx {
            prog,
            sym: SymCtx::default(),
            budget,
            asds: Cow::Owned(AsdTable::for_program(prog)),
        }
    }

    /// A context over `prog` that reads and fills the table a compile of
    /// `prog` left (an empty one is replaced by a fresh table); widenings
    /// are not budgeted.
    pub(crate) fn over(prog: &'a IrProgram, asds: &'a AsdTable) -> Self {
        if asds.is_empty() {
            return Self::with_budget(prog, Budget::unlimited());
        }
        SectionCtx {
            prog,
            sym: SymCtx::default(),
            budget: Budget::unlimited(),
            asds: Cow::Borrowed(asds),
        }
    }

    /// The table, for the compile to hand on with its schedule.
    pub(crate) fn into_asds(self) -> AsdTable {
        self.asds.into_owned()
    }

    /// The access of read `idx` of statement `s`.
    pub fn read_access(&self, s: StmtId, idx: usize) -> &'a AccessRef {
        &self.prog.stmt(s).kind.reads()[idx].access
    }

    /// The section an entry communicates when placed at nesting level
    /// `level`: the union (bounding box per dimension, stride-aware) of its
    /// reads' accesses widened over all loops deeper than `level`.
    ///
    /// Served from the table (the widening runs once per `(entry,
    /// level)`); callers that only need to *borrow* the section should
    /// prefer [`asd_shared`](Self::asd_shared) to skip the clone.
    pub fn section_at(&self, e: &CommEntry, level: u32) -> Section {
        self.asd_shared(e, level).section.clone()
    }

    /// The memoized ASD of an entry at a placement level.
    ///
    /// Exactly one thread builds (and budget-charges) each descriptor even
    /// when the parallel optimal-search workers race on the same slot —
    /// the others wait for it — keeping charge and counter totals
    /// identical between `--jobs 1` and `--jobs N`.
    pub fn asd_shared(&self, e: &CommEntry, level: u32) -> &Asd {
        let slot = self.asds.slot(e, level);
        if let Some(hit) = slot.get() {
            gcomm_obs::count("core.asd_cache_hits", 1);
            return hit;
        }
        let mut built = false;
        let asd = slot.get_or_init(|| {
            built = true;
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
            Asd::new(e.array, acc.unwrap_or_default(), e.mapping.clone())
        });
        if !built {
            // Another worker built it while this one waited.
            gcomm_obs::count("core.asd_cache_hits", 1);
        }
        asd
    }

    /// ASD subsumption: true when `sub`'s communication at `level` is
    /// fully served by `sup`'s ([`Asd::subsumed_by_within`] over the
    /// memoized descriptors).
    pub fn subsumed_within(&self, sub: &CommEntry, sup: &CommEntry, level: u32) -> bool {
        self.asd_shared(sub, level).subsumed_by_within(
            self.asd_shared(sup, level),
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
