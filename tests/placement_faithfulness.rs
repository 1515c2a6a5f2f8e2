//! `Latest` / `Earliest` / candidate windows read from the per-compile
//! table of direction analyses against the rule they replaced: one
//! uncached `DepTest::analyze` per ask, kept below as the reference (the
//! reaching-definition walk, `Test` / `Rcount` with a `HashSet` visit set
//! and the `BTreeSet` window as they stood in `crates/core/src`).
//!
//! Over the six paper kernels, the benchmark's 400 corpus programs and 500
//! seeded `proptest::hpf` programs, each under `orig`, `nored` and `comb`:
//!
//! * every entry's `latest`, `earliest_pos` and (under `comb`) `candidates`
//!   equal the reference's;
//! * `dep.queries` of the strategy's run equals the number of *distinct*
//!   `(definition, use)` pairs the reference asked for the same entries —
//!   each pair is analysed at most once per compile;
//! * the defensive fallbacks stay visible: `core.defensive.def_without_access`
//!   and `core.defensive.earliest_not_ancestor` read 0 everywhere, and
//!   `core.defensive.earliest_not_dominating` counts exactly the entries
//!   whose reference `Earliest` lies below their `Latest` — none in the
//!   kernels or the corpus.

use std::collections::{BTreeSet, HashSet};

use gcomm::core::candidates::candidates;
use gcomm::core::earliest::earliest_pos;
use gcomm::core::latest::latest;
use gcomm::core::{commgen, strategy, AnalysisCtx, CommEntry};
use gcomm::dep::{DepResult, DepTest};
use gcomm::ir::{Pos, StmtId};
use gcomm::ssa::{DefId, DefKind};
use gcomm::Strategy;
use proptest::hpf;

const STRATEGIES: [Strategy; 3] = [Strategy::Original, Strategy::EarliestRE, Strategy::Global];

/// The old rule, recording every `(definition, statement, read)` it asks.
struct Reference<'c, 'p> {
    ctx: &'c AnalysisCtx<'p>,
    asked: BTreeSet<(DefId, StmtId, usize)>,
}

impl Reference<'_, '_> {
    /// One uncached analysis per ask.
    fn analyze(&mut self, d: DefId, u_stmt: StmtId, idx: usize) -> (DepResult, StmtId) {
        let (d_acc, d_stmt) = self.ctx.def_access(d).expect("a regular definition");
        self.asked.insert((d, u_stmt, idx));
        let u_acc = self.ctx.read_access(u_stmt, idx);
        (
            DepTest::new(self.ctx.prog).analyze(d_stmt, d_acc, u_stmt, u_acc),
            d_stmt,
        )
    }

    /// `AnalysisCtx::ext_dep` as it was: carried at `l`, or loop-independent.
    fn ext_dep(&mut self, d: DefId, u_stmt: StmtId, idx: usize, l: u32) -> bool {
        let (res, d_stmt) = self.analyze(d, u_stmt, idx);
        res.carried_at(l)
            || (l as usize <= res.allowed.len() && d_stmt < u_stmt && res.same_iteration())
    }

    /// `SsaForm::reaching_regular_defs` as it was: a fresh `seen` vector,
    /// stack and output per read.
    fn reaching_regular_defs(&self, s: StmtId, idx: usize) -> Vec<DefId> {
        let ssa = &self.ctx.ssa;
        let Some(start) = ssa.use_def(s, idx) else {
            return Vec::new();
        };
        let mut seen = vec![false; ssa.def_count()];
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(d) = stack.pop() {
            if std::mem::replace(&mut seen[d.0 as usize], true) {
                continue;
            }
            match &ssa.def(d).kind {
                DefKind::Entry => {}
                DefKind::Regular { prev, .. } => {
                    out.push(d);
                    stack.push(*prev);
                }
                k => stack.extend(k.phi_args()),
            }
        }
        out.sort();
        out
    }

    fn comm_level(&mut self, e: &CommEntry) -> u32 {
        let mut level = 0u32;
        for &r in &e.reads {
            for d in self.reaching_regular_defs(e.stmt, r) {
                let (_, d_stmt) = self.ctx.def_access(d).expect("a regular definition");
                let cnl = self.ctx.prog.cnl(d_stmt, e.stmt);
                if cnl <= level {
                    continue;
                }
                let (res, _) = self.analyze(d, e.stmt, r);
                let dep = |l: u32| {
                    res.carried_at(l)
                        || (l as usize <= res.allowed.len()
                            && d_stmt < e.stmt
                            && res.same_iteration())
                };
                if let Some(l) = (level + 1..=cnl).rev().find(|&l| dep(l)) {
                    level = l;
                }
            }
        }
        level
    }

    fn latest(&mut self, e: &CommEntry) -> Pos {
        let prog = self.ctx.prog;
        if e.is_reduction() {
            return Pos::before(prog, e.stmt);
        }
        let cl = self.comm_level(e);
        if cl >= prog.stmt(e.stmt).level {
            Pos::before(prog, e.stmt)
        } else {
            let l = prog.enclosing_loop_at_level(e.stmt, cl + 1).unwrap();
            Pos::bottom(prog, prog.loop_info(l).preheader)
        }
    }

    fn test(&mut self, d: DefId, u: StmtId, idx: usize, visit: &mut HashSet<DefId>) -> bool {
        let info = self.ctx.ssa.def(d);
        match &info.kind {
            DefKind::Entry => true,
            DefKind::Regular { .. } => {
                let (_, d_stmt) = self.ctx.def_access(d).expect("a regular definition");
                let l = self.ctx.prog.cnl(d_stmt, u);
                self.ext_dep(d, u, idx, l)
            }
            k => {
                let l = self.ctx.prog.cnl_node_stmt(info.node, u);
                let mut positives = 0;
                for arg in k.phi_args() {
                    visit.clear();
                    visit.insert(d);
                    if self.rcount(arg, u, idx, l, visit) > 0 {
                        positives += 1;
                        if positives >= 2 {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    fn rcount(
        &mut self,
        d: DefId,
        u: StmtId,
        idx: usize,
        l: u32,
        visit: &mut HashSet<DefId>,
    ) -> u32 {
        if !visit.insert(d) {
            return 0;
        }
        match &self.ctx.ssa.def(d).kind {
            DefKind::Entry => 1,
            DefKind::Regular { prev, .. } => {
                let (_, d_stmt) = self.ctx.def_access(d).expect("a regular definition");
                let lvl = l.min(self.ctx.prog.cnl(d_stmt, u));
                if self.ext_dep(d, u, idx, lvl) {
                    1
                } else {
                    self.rcount(*prev, u, idx, l, visit)
                }
            }
            k => k
                .phi_args()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|a| self.rcount(a, u, idx, l, visit))
                .sum(),
        }
    }

    fn earliest_pos(&mut self, e: &CommEntry) -> Pos {
        let (ctx, mut best) = (self.ctx, None::<Pos>);
        for &r in &e.reads {
            let mut d = ctx.ssa.use_def(e.stmt, r).unwrap();
            let mut visit = HashSet::new();
            while !self.test(d, e.stmt, r, &mut visit) {
                match ctx.ssa.def(d).dom_prev {
                    Some(p) => d = p,
                    None => break,
                }
            }
            let p = ctx.ssa.def_pos(ctx.prog, d);
            best = Some(match best {
                Some(b) if !b.dominates(&p, &ctx.dt) => b,
                _ => p,
            });
        }
        best.unwrap_or(Pos::top(ctx.prog.cfg.entry))
    }

    /// The §4.4 window into a `BTreeSet`, as `candidates` built it.
    fn candidates(&self, e: &CommEntry, earliest: Pos, latest: Pos) -> Vec<Pos> {
        let (ctx, mut out) = (self.ctx, BTreeSet::new());
        let mut mark =
            |n, lo: usize, hi: usize| out.extend((lo..=hi).map(|slot| Pos { node: n, slot }));
        if e.is_reduction() || !earliest.dominates(&latest, &ctx.dt) {
            mark(latest.node, latest.slot, latest.slot);
        } else if earliest.node == latest.node {
            mark(latest.node, earliest.slot, latest.slot);
        } else {
            mark(latest.node, 0, latest.slot);
            let mut c = ctx.dt.parent(latest.node);
            while let Some(n) = c {
                let bottom = Pos::bottom(ctx.prog, n).slot;
                if n == earliest.node {
                    mark(n, earliest.slot, bottom);
                    break;
                }
                mark(n, 0, bottom);
                c = ctx.dt.parent(n);
            }
        }
        out.into_iter().collect()
    }
}

/// What one pool came to.
#[derive(Default)]
struct Tally {
    compiles: usize,
    entries: usize,
    queries: u64,
    asks: usize,
    inverted: u64,
}

/// Compiles `src` under each strategy through the pass-level functions and
/// checks it against the reference.
fn check(name: &str, src: &str, tally: &mut Tally) {
    let prog = gcomm::ir::lower(&gcomm::parse_program(src).unwrap()).unwrap();
    for s in STRATEGIES {
        let what = format!("{name} {}", s.name());
        let entries = commgen::number(commgen::generate(&prog));
        let ctx = AnalysisCtx::new(&prog);
        let reg = gcomm::obs::Registry::new();
        {
            let _scope = gcomm::obs::install(reg.clone());
            strategy::run(&ctx, entries.clone(), s);
        }
        let stats = reg.snapshot();

        // The same asks by the old rule.
        let mut r = Reference {
            ctx: &ctx,
            asked: BTreeSet::new(),
        };
        let mut inverted = 0;
        for e in &entries {
            let lp = r.latest(e);
            if s == Strategy::Original {
                continue;
            }
            if s == Strategy::EarliestRE && e.is_reduction() {
                continue;
            }
            let ep = r.earliest_pos(e);
            inverted += u64::from(!e.is_reduction() && !ep.dominates(&lp, &ctx.dt));
        }
        let asked = r.asked.len();
        assert_eq!(
            stats.counter("dep.queries"),
            asked as u64,
            "{what}: dep.queries is not the number of distinct pairs asked"
        );
        for counter in [
            "core.defensive.def_without_access",
            "core.defensive.earliest_not_ancestor",
        ] {
            assert_eq!(stats.counter(counter), 0, "{what}: {counter}");
        }
        let not_dominating = stats.counter("core.defensive.earliest_not_dominating");
        if s == Strategy::Global {
            assert_eq!(not_dominating, inverted, "{what}: inverted windows");
            tally.inverted += inverted;
        } else {
            assert_eq!(not_dominating, 0, "{what}: no window is built");
        }

        // Every entry, read off the warm table, equals the reference.
        for e in &entries {
            let (lp, ep) = (latest(&ctx, e), earliest_pos(&ctx, e));
            assert_eq!(lp, r.latest(e), "{what}: Latest of {}", e.label);
            assert_eq!(ep, r.earliest_pos(e), "{what}: Earliest of {}", e.label);
            if s == Strategy::Global {
                let want = r.candidates(e, ep, lp);
                assert_eq!(
                    candidates(&ctx, e, ep, lp),
                    want,
                    "{what}: window of {}",
                    e.label
                );
            }
        }
        tally.compiles += 1;
        tally.entries += entries.len();
        tally.queries += stats.counter("dep.queries");
        tally.asks += asked;
    }
}

#[test]
fn kernels_read_the_same_placement_off_the_shared_table() {
    let mut t = Tally::default();
    for (bench, routine, src) in gcomm::kernels::all_kernels() {
        check(&format!("{bench}:{routine}"), src, &mut t);
    }
    assert_eq!(t.compiles, 18);
    assert_eq!(t.inverted, 0, "a kernel's Earliest lies below its Latest");
    assert!(t.queries > 200, "only {} analyses", t.queries);
}

#[test]
fn corpus_reads_the_same_placement_off_the_shared_table() {
    let mut t = Tally::default();
    for i in 0..400u64 {
        check(
            &format!("corpus {i}"),
            &hpf::generate(0x6763_1996 + i),
            &mut t,
        );
    }
    assert_eq!(
        t.inverted, 0,
        "a corpus program's Earliest lies below its Latest"
    );
    assert!(t.entries > 6_000, "only {} entries", t.entries);
}

#[test]
fn generated_programs_read_the_same_placement_off_the_shared_table() {
    let mut t = Tally::default();
    for i in 0..500u64 {
        check(
            &format!("hpf seed {i}"),
            &hpf::generate(0x9c077 + i),
            &mut t,
        );
    }
    // Fig. 8's `Test` can block below the loop `DepLevel` hoists out of;
    // these seeds reach it, so the counter is shown to count.
    assert!(t.inverted >= 1, "no inverted window exercised");
    assert!(t.asks > 5_000, "only {} pairs asked", t.asks);
}
