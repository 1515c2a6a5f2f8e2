//! The compile ladder: the in-process op with a span around each public
//! call, the comb pipeline replayed stage by stage through the pass-level
//! functions (asserting the staged schedule equals `compile`'s), and the
//! exact counts the passes keep. This file is the reason the traced run
//! is a separate binary: it breaks when a pass changes shape.

use std::collections::BTreeMap;
use std::time::Instant;

use gcomm::core::candidates::candidates;
use gcomm::core::earliest::earliest_pos;
use gcomm::core::greedy::choose;
use gcomm::core::latest::latest;
use gcomm::core::subset::{subset_eliminate, CandidateTable};
use gcomm::core::{commgen, redundancy, strategy, AnalysisCtx, CombinePolicy, Schedule};
use gcomm::ir::DomTree;
use gcomm::machine::NetworkModel;
use gcomm::ssa::SsaForm;
use gcomm::{Budget, Strategy};
use gcomm_benchmark::inputs::{run_op, Program};
use gcomm_benchmark::rounds::{fastest_probe_ns, BestSteps, Laps, NoSpans, SpanSink};

use crate::tracer::{BestLaps, BestSpans, Tracer};

/// Spans of the staged replay that partition `core.compile`.
pub const COMPILE_PARTS: &[&str] = &[
    "lang.parse",
    "ir.lower",
    "core.commgen",
    "core.analysis",
    "core.candidates",
    "core.subset",
    "core.redundancy",
    "core.greedy",
    "core.place_orig",
    "core.place_nored",
];

/// Exact structural counts of one program, read off the staged replay.
#[derive(Debug, Default, Clone, Copy)]
struct Sizes {
    tokens: u64,
    stmts: u64,
    cfg_nodes: u64,
    ssa_defs: u64,
}

/// Replays `compile` stage by stage, a span around each public call, and
/// checks the staged schedule against `expect`.
fn staged(tr: &mut Tracer, p: &Program, expect: &Schedule) -> Result<Sizes, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", p.name);
    let tokens = tr
        .scope("lang.lex", || gcomm::lang::lexer::lex(&p.src))
        .map_err(|e| err(&e))?;
    let ast = tr
        .scope("lang.parse", || gcomm::parse_program(&p.src))
        .map_err(|e| err(&e))?;
    let prog = tr
        .scope("ir.lower", || gcomm::ir::lower(&ast))
        .map_err(|e| err(&e))?;
    // Dominators and SSA are built again inside `AnalysisCtx`; these two
    // spans price them on their own and are not parts of the ladder sum.
    let dt = tr.scope("ir.dom", || DomTree::compute(&prog.cfg));
    let ssa = tr.scope("ssa.build", || SsaForm::build_with(&prog, &dt));
    let entries = tr.scope("core.commgen", || commgen::number(commgen::generate(&prog)));
    let ctx = tr.scope("core.analysis", || {
        AnalysisCtx::with_budget(&prog, Budget::unlimited())
    });
    let schedule = match p.strategy {
        Strategy::Global => {
            let mut table = CandidateTable::default();
            tr.scope("core.candidates", || {
                for e in &entries {
                    let lp = latest(&ctx, e);
                    let ep = earliest_pos(&ctx, e);
                    table.cands.insert(e.id, candidates(&ctx, e, ep, lp));
                }
            });
            tr.scope("core.subset", || {
                subset_eliminate(&mut table, &ctx.dt, &ctx.budget)
            });
            let absorptions = tr.scope("core.redundancy", || {
                redundancy::eliminate(&ctx, &entries, &mut table)
            });
            let groups = tr.scope("core.greedy", || {
                choose(&ctx, &entries, &mut table, &CombinePolicy::default())
            });
            Schedule {
                strategy: Strategy::Global,
                entries,
                groups,
                absorptions,
                section_overrides: Vec::new(),
                search: None,
            }
        }
        Strategy::Original => tr.scope("core.place_orig", || {
            strategy::run(&ctx, entries, Strategy::Original)
        }),
        Strategy::EarliestRE => tr.scope("core.place_nored", || {
            strategy::run(&ctx, entries, Strategy::EarliestRE)
        }),
        other => return Err(format!("{}: no staged replay for {}", p.name, other.name())),
    };
    if &schedule != expect {
        return Err(format!(
            "{}: staged schedule differs from compile's",
            p.name
        ));
    }
    Ok(Sizes {
        tokens: tokens.len() as u64,
        stmts: prog.stmts.len() as u64,
        cfg_nodes: prog.cfg.len() as u64,
        ssa_defs: ssa.def_count() as u64,
    })
}

/// What the compile ladder measured over one op list.
#[derive(Debug)]
pub struct CompileLadder {
    /// Ops in the list.
    pub ops: usize,
    /// Spans of the op as the end-to-end path runs it.
    pub op_spans: BestSpans,
    /// Spans of the staged replay.
    pub staged_spans: BestSpans,
    /// Seconds of one untraced pass at its best.
    pub untraced_s: f64,
    /// Seconds of one traced pass at its best.
    pub traced_s: f64,
    /// Median wall seconds of an untraced pass.
    pub median_untraced_s: f64,
    /// Seconds of the best untraced pass as a whole, speed-free.
    pub best_pass_s: f64,
    /// Passes made of each kind.
    pub passes: usize,
    /// Exact counts over the op list, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Time of `compile_stats` over time of `compile`, best pass each.
    pub obs_on_over_off: f64,
    /// Mean microseconds per op inside `dep` queries (collection on).
    pub dep_query_us: f64,
    /// Replay disagreements (empty on a correct compiler).
    pub errors: Vec<String>,
}

impl CompileLadder {
    /// Mean microseconds per op of an op span.
    pub fn op_us(&self, name: &str) -> f64 {
        self.op_spans.sum_us(name) / self.ops.max(1) as f64
    }

    /// Mean microseconds per op of a staged span.
    pub fn staged_us(&self, name: &str) -> f64 {
        self.staged_spans.sum_us(name) / self.ops.max(1) as f64
    }

    /// `core.compile` minus the sum of its staged parts, over `core.compile`.
    pub fn residual_share(&self) -> f64 {
        let whole = self.op_us("core.compile");
        let parts: f64 = COMPILE_PARTS.iter().map(|n| self.staged_us(n)).sum();
        if whole > 0.0 {
            (whole - parts) / whole
        } else {
            0.0
        }
    }

    /// 1 - traced ops/s over untraced ops/s.
    pub fn overhead_share(&self) -> f64 {
        if self.traced_s > 0.0 {
            1.0 - self.untraced_s / self.traced_s
        } else {
            0.0
        }
    }
}

/// Runs the ladder over `order` (indices into `programs`) for about
/// `seconds`: four fifths on untraced, traced and staged passes in turn,
/// the rest on collection-on against collection-off passes.
pub fn run(programs: &[Program], order: &[usize], seconds: f64) -> CompileLadder {
    let net = NetworkModel::sp2();
    let mut errors = Vec::new();
    let expect: Vec<Option<Schedule>> = programs
        .iter()
        .map(|p| {
            gcomm::compile(&p.src, p.strategy)
                .map(|c| c.schedule)
                .map_err(|e| errors.push(format!("{}: {e}", p.name)))
                .ok()
        })
        .collect();

    let mut tr = Tracer::new();
    let mut op_spans = BestSpans::new(order.len());
    let mut staged_spans = BestSpans::new(order.len());
    let (mut untraced, mut traced) = (BestSteps::default(), BestSteps::default());
    let mut laps = Laps::default();
    let mut sizes = vec![Sizes::default(); programs.len()];
    let mut pass_s = Vec::new();
    let mut best_pass = f64::INFINITY;
    let started = Instant::now();
    let mut passes = 0;
    while passes < 3 || started.elapsed().as_secs_f64() < seconds * 0.8 {
        passes += 1;
        laps.clear();
        for &i in order {
            let _ = laps.op(|| run_op(&programs[i], &net, &mut NoSpans));
        }
        untraced.absorb(&laps.ops);
        pass_s.push(laps.ops.iter().map(|l| l.ns).sum::<u64>() as f64 / 1e9);
        best_pass = best_pass.min(laps.ops_over_probe());

        laps.clear();
        tr.begin_pass();
        for &i in order {
            let _ = laps.op(|| {
                tr.enter("op");
                let out = run_op(&programs[i], &net, &mut tr);
                tr.exit();
                out
            });
        }
        traced.absorb(&laps.ops);
        op_spans.absorb(&tr.spans, &laps.ops);

        laps.clear();
        tr.begin_pass();
        for &i in order {
            let replay = laps.op(|| {
                tr.enter("staged");
                let replay = expect[i]
                    .as_ref()
                    .map(|want| staged(&mut tr, &programs[i], want));
                tr.exit();
                replay
            });
            match replay {
                Some(Ok(s)) => sizes[i] = s,
                Some(Err(e)) if passes == 1 => errors.push(e),
                _ => {}
            }
        }
        staged_spans.absorb(&tr.spans, &laps.ops);
    }
    let pass_us = |b: &BestSteps| b.best_ns(fastest_probe_ns()).iter().sum::<u64>() as f64 / 1e3;

    // Exact counts: one collecting compile per distinct program, weighted
    // by how often the op list visits it.
    let mut visits = vec![0u64; programs.len()];
    order.iter().for_each(|&i| visits[i] += 1);
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut memo_hits = 0u64;
    for (i, p) in programs.iter().enumerate().filter(|(i, _)| visits[*i] > 0) {
        let mut add =
            |name: &'static str, v: u64| *counts.entry(name).or_default() += (v * visits[i]) as f64;
        add("lang.tokens", sizes[i].tokens);
        add("ir.stmts", sizes[i].stmts);
        add("ir.cfg_nodes", sizes[i].cfg_nodes);
        add("ssa.defs", sizes[i].ssa_defs);
        let Ok(c) = gcomm::compile_stats(&p.src, p.strategy) else {
            continue;
        };
        let s = &c.stats;
        for (metric, counter) in [
            ("dep.queries", "dep.queries"),
            ("sections.subsume_checks", "sections.subsume_checks"),
            ("sections.asd_built", "sections.asd_built"),
            ("sections.interned", "sections.interned"),
            ("core.entries", "core.entries.candidates"),
            ("core.entries_redundant", "core.entries.redundant"),
            ("core.entries_combined", "core.entries.combined_away"),
            ("core.candidate_positions", "core.candidate_positions"),
            ("core.redundancy_checks", "core.redundancy.checks"),
            ("core.subset_eliminated", "core.subset.eliminated"),
            ("core.greedy_rounds", "core.greedy.rounds"),
        ] {
            add(metric, s.counter(counter));
        }
        memo_hits += s.counter("sections.subsume_memo_hits") * visits[i];
        let budget = Budget::steps(u64::MAX);
        if gcomm::compile_budgeted(&p.src, p.strategy, budget.clone()).is_ok() {
            add("guard.steps", budget.steps_used());
        }
        if let Ok(out) = run_op(p, &net, &mut NoSpans) {
            add("machine.sim_messages", out.sim_messages);
        }
    }
    let checks = counts
        .get("sections.subsume_checks")
        .copied()
        .unwrap_or(0.0);
    counts.insert(
        "sections.subsume_memo_hit_ratio",
        if checks > 0.0 {
            memo_hits as f64 / checks
        } else {
            0.0
        },
    );

    // Collection on versus off on the same ops, per-op minima.
    let mut on = BestLaps::new(order.len());
    let mut off = BestLaps::new(order.len());
    let mut dep_ns = vec![u64::MAX; order.len()];
    let mut obs_passes = 0;
    while obs_passes < 3 || started.elapsed().as_secs_f64() < seconds {
        obs_passes += 1;
        for (k, &i) in order.iter().enumerate() {
            let p = &programs[i];
            off.time(k, 1, || gcomm::compile(&p.src, p.strategy));
            let mut ns = 0;
            on.time(k, 1, || {
                gcomm::compile_stats(&p.src, p.strategy).map(|c| {
                    ns = c.stats.counter("dep.query.wall_ns");
                })
            });
            dep_ns[k] = dep_ns[k].min(ns);
        }
    }
    let dep_ns: u64 = dep_ns.iter().filter(|&&b| b != u64::MAX).sum();
    let sum = |l: &BestLaps| l.us().iter().sum::<f64>();

    CompileLadder {
        ops: order.len(),
        untraced_s: pass_us(&untraced) / 1e6,
        traced_s: pass_us(&traced) / 1e6,
        median_untraced_s: gcomm_benchmark::util::median(&pass_s),
        best_pass_s: best_pass * fastest_probe_ns() as f64 / 1e9,
        obs_on_over_off: if sum(&off) > 0.0 {
            sum(&on) / sum(&off)
        } else {
            0.0
        },
        dep_query_us: dep_ns as f64 / 1e3 / order.len().max(1) as f64,
        op_spans,
        staged_spans,
        passes,
        counts,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_benchmark::inputs::{corpus_programs, kernel_programs};

    /// The staged replay is `compile`, stage by stage: on every kernel
    /// under every strategy and on 100 corpus programs.
    #[test]
    fn staged_schedule_equals_compile() {
        let mut programs = kernel_programs();
        programs.extend(corpus_programs().into_iter().take(100));
        let mut tr = Tracer::new();
        for p in &programs {
            let want = gcomm::compile(&p.src, p.strategy)
                .expect("pool compiles")
                .schedule;
            tr.begin_pass();
            let sizes = staged(&mut tr, p, &want).unwrap_or_else(|e| panic!("{e}"));
            assert!(sizes.tokens > 0 && sizes.cfg_nodes > 0);
            for part in ["lang.parse", "ir.lower", "core.commgen", "core.analysis"] {
                assert!(tr.spans.iter().any(|s| s.name == part), "{part} not traced");
            }
        }
    }

    /// Counts are exact: two ladders over the same ops agree on all.
    #[test]
    fn counts_repeat_exactly() {
        let programs = kernel_programs();
        let order: Vec<usize> = (0..programs.len()).collect();
        let (a, b) = (run(&programs, &order, 0.0), run(&programs, &order, 0.0));
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.counts, b.counts);
        assert!(a.counts["guard.steps"] > 0.0 && a.counts["core.entries"] > 0.0);
        assert!(a.residual_share().abs() < 1.0);
    }
}
