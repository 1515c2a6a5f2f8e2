//! The sparse redundancy sweep (DESIGN.md §3) against the dense
//! fixpoint it replaced. Root-level so tier-1 runs it.
//!
//! `core::redundancy::eliminate` used to restart from position 0 after
//! every absorption and judge every pair at every position; it is now one
//! forward sweep that resumes where it stood and compares only entries of
//! one subsumption class. `strategy::earliest_re` got the same class
//! filter. The old loops live on below, verbatim, as the reference:
//!
//! * with an unlimited budget, over the six paper kernels, the
//!   benchmark's 400 corpus programs and every routine of the 8 × 50
//!   `hpf::apply_edit` module states, the sweep returns the **same
//!   absorptions in the same order** and leaves the **same candidate
//!   table**, and `nored` keeps the same absorptions and survivors;
//! * under small step budgets the two charge differently (one step per
//!   *compared* pair now), so there only legality is asserted:
//!   `core::check_schedule` passes and `exec::verify_schedule` replays
//!   clean;
//! * a structural guard that needs no clock: `hydflo:flux` under `comb`
//!   makes at most 64 subsumption checks (17 512 with the dense scan).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use gcomm::core::candidates::candidates;
use gcomm::core::earliest::earliest_pos;
use gcomm::core::incr::split_routines;
use gcomm::core::latest::latest;
use gcomm::core::redundancy::{self, Absorption};
use gcomm::core::subset::{subset_eliminate, CandidateTable};
use gcomm::core::{
    check_schedule, commgen, strategy, AnalysisCtx, CommEntry, Compiled, EntryId, Schedule,
};
use gcomm::machine::ProcGrid;
use gcomm::{compile_budgeted, compile_stats, Budget, Strategy};
use gcomm_ir::Pos;
use proptest::hpf;

/// The benchmark's pinned pools (`benchmark/src/inputs.rs`).
const CORPUS_BASE: u64 = 0x6763_1996;
const MODULE_BASE: u64 = 0xed17_1996;

// ---------------------------------------------------------------------
// Reference: the dense restart-from-scratch fixpoint, as it stood in
// `crates/core/src/redundancy.rs` before the sweep.
// ---------------------------------------------------------------------

fn ref_eliminate(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
    table: &mut CandidateTable,
) -> Vec<Absorption> {
    let _s = gcomm_obs::span("core.redundancy");
    let mut absorptions: Vec<Absorption> = Vec::new();
    // Per surviving entry: the uses (and level caps) of everything it has
    // absorbed, directly or transitively.
    let mut obligations: std::collections::HashMap<EntryId, Vec<(Pos, u32)>> =
        std::collections::HashMap::new();
    // Pairs rejected because the winner could not keep a candidate
    // satisfying every inherited obligation.
    let mut banned: std::collections::HashSet<(EntryId, EntryId)> =
        std::collections::HashSet::new();
    loop {
        if ctx.budget.exhausted() {
            gcomm_obs::count("core.degraded.redundancy", 1);
            return absorptions;
        }
        gcomm_obs::count("core.redundancy.checks", 1);
        let Some((winner, loser, at)) = ref_find_pair(ctx, entries, table, &banned) else {
            if ctx.budget.exhausted() {
                // The budget ran out mid-scan, not at a true fixpoint.
                gcomm_obs::count("core.degraded.redundancy", 1);
            }
            return absorptions;
        };
        let loser_stmt = entries[loser.0 as usize].stmt;
        let level_at = at.level(ctx.prog);

        // The loser's own use, plus every obligation it had accumulated.
        let mut obs = obligations.get(&loser).cloned().unwrap_or_default();
        obs.push((Pos::before(ctx.prog, loser_stmt), level_at));

        let refined: Vec<Pos> = table
            .cands
            .get(winner)
            .map(|ps| {
                ps.iter()
                    .copied()
                    .filter(|p| {
                        obs.iter().all(|(before_use, cap)| {
                            p.dominates(before_use, &ctx.dt) && p.level(ctx.prog) <= *cap
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        if refined.is_empty() {
            // No placement of the winner can cover everything the loser
            // stands for: reject this absorption.
            banned.insert((winner, loser));
            continue;
        }

        table.cands.remove(loser);
        obligations.remove(&loser);
        table.cands.insert(winner, refined);
        obligations.entry(winner).or_default().extend(obs);
        absorptions.push(Absorption {
            absorbed: loser,
            by: winner,
        });
    }
}

/// Finds one (subsumer, subsumed, position) triple, or `None` at fixpoint.
fn ref_find_pair(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
    table: &CandidateTable,
    banned: &std::collections::HashSet<(EntryId, EntryId)>,
) -> Option<(EntryId, EntryId, Pos)> {
    let sets = comm_sets(table);
    for (&pos, set) in &sets {
        let level = pos.level(ctx.prog);
        let ids: Vec<EntryId> = set.iter().copied().collect();
        for (i, &c1) in ids.iter().enumerate() {
            for &c2 in &ids[i + 1..] {
                if !ctx.budget.charge(1) {
                    // Exhausted mid-scan: report fixpoint. The caller
                    // observes the exhaustion and stops with what it has.
                    return None;
                }
                let e1 = &entries[c1.0 as usize];
                let e2 = &entries[c2.0 as usize];
                if !banned.contains(&(c1, c2)) && ctx.subsumed_within(e2, e1, level) {
                    return Some((c1, c2, pos));
                }
                if !banned.contains(&(c2, c1)) && ctx.subsumed_within(e1, e2, level) {
                    return Some((c2, c1, pos));
                }
            }
        }
    }
    None
}

/// Inverts the table: entries per position (`CommSet`), as
/// `CandidateTable::comm_sets` did for the dense scan.
fn comm_sets(table: &CandidateTable) -> BTreeMap<Pos, BTreeSet<EntryId>> {
    let mut out: BTreeMap<Pos, BTreeSet<EntryId>> = BTreeMap::new();
    for (e, ps) in table.cands.iter() {
        for &p in ps {
            out.entry(p).or_default().insert(e);
        }
    }
    out
}

/// Reference: `strategy::earliest_re`'s placement and all-pairs scan as
/// they stood before the class filter. Returns the absorptions and the
/// surviving entries' `(position, id)` in entry order.
fn ref_earliest_re(
    ctx: &AnalysisCtx<'_>,
    entries: &[CommEntry],
) -> (Vec<Absorption>, Vec<(Pos, EntryId)>) {
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

    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| (ctx.dt.depth(pos[i].node), pos[i].slot, entries[i].id));
    let mut alive = vec![true; entries.len()];
    let mut absorber = vec![false; entries.len()];
    let mut absorptions = Vec::new();
    'outer: for (oi, &i2) in order.iter().enumerate() {
        for &i1 in &order[..oi] {
            if !ctx.budget.charge(1) {
                gcomm_obs::count("core.degraded.redundancy", 1);
                break 'outer;
            }
            if !alive[i1] || !alive[i2] {
                continue;
            }
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
    let survivors = entries
        .iter()
        .enumerate()
        .filter(|(i, _)| alive[*i])
        .map(|(i, e)| (pos[i], e.id))
        .collect();
    (absorptions, survivors)
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Every routine text of the three pools, deduplicated (an edit leaves 63
/// of a module's 64 routines byte-identical).
fn routine_texts() -> Vec<String> {
    let mut sources: Vec<String> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(_, _, src)| src.to_string())
        .collect();
    sources.extend((0..400).map(|i| hpf::generate(CORPUS_BASE + i)));
    let cfg = hpf::GenConfig {
        max_arrays: 2,
        max_block_stmts: 1,
        max_depth: 1,
    };
    for m in 0..8u64 {
        let mut state = hpf::generate_module_with(MODULE_BASE + m, 64, &cfg);
        for step in 1..=50u64 {
            let next = hpf::apply_edit(&state, (MODULE_BASE + m) * 1000 + step).0;
            sources.push(std::mem::replace(&mut state, next));
        }
        sources.push(state);
    }
    let mut seen = std::collections::HashSet::new();
    sources
        .iter()
        .flat_map(|src| split_routines(src))
        .filter(|chunk| seen.insert(chunk.fp))
        .map(|chunk| chunk.src.to_string())
        .collect()
}

/// The candidate table `strategy::global` hands to redundancy elimination.
fn candidate_table(ctx: &AnalysisCtx<'_>, entries: &[CommEntry]) -> CandidateTable {
    let mut table = CandidateTable::default();
    for e in entries {
        let lp = latest(ctx, e);
        let ep = earliest_pos(ctx, e);
        table.cands.insert(e.id, candidates(ctx, e, ep, lp));
    }
    subset_eliminate(&mut table, &ctx.dt, &ctx.budget);
    table
}

fn survivors(s: &Schedule) -> Vec<(Pos, EntryId)> {
    s.groups.iter().map(|g| (g.pos, g.entries[0])).collect()
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn sweep_and_class_filter_match_the_dense_scans_exactly() {
    let texts = routine_texts();
    assert!(texts.len() > 900, "only {} routines", texts.len());
    let (mut routines, mut comb_abs, mut nored_abs) = (0, 0, 0);
    for text in &texts {
        let Ok(ast) = gcomm::parse_program(text) else {
            continue;
        };
        let Ok(prog) = gcomm::ir::lower(&ast) else {
            continue;
        };
        routines += 1;
        let entries = commgen::number(commgen::generate(&prog));
        let ctx = AnalysisCtx::new(&prog);

        let start = candidate_table(&ctx, &entries);
        let (mut got_table, mut want_table) = (start.clone(), start);
        let got = redundancy::eliminate(&ctx, &entries, &mut got_table);
        let want = ref_eliminate(&ctx, &entries, &mut want_table);
        assert_eq!(got, want, "comb absorption sequence diverged:\n{text}");
        assert_eq!(
            got_table.cands, want_table.cands,
            "comb candidate table diverged:\n{text}"
        );
        comb_abs += got.len();

        let sched = strategy::run(&ctx, entries.clone(), Strategy::EarliestRE);
        let (want_abs, want_alive) = ref_earliest_re(&ctx, &entries);
        assert_eq!(
            sched.absorptions, want_abs,
            "nored absorptions diverged:\n{text}"
        );
        assert_eq!(
            survivors(&sched),
            want_alive,
            "nored survivors diverged:\n{text}"
        );
        nored_abs += want_abs.len();
    }
    // Not vacuous — though generated routines rarely repeat a read, so
    // the scrambled tables below carry most of the absorption paths.
    assert!(routines > 900, "only {routines} routines lowered");
    assert!(comb_abs >= 50, "only {comb_abs} comb absorptions compared");
    assert!(
        nored_abs >= 50,
        "only {nored_abs} nored absorptions compared"
    );
}

/// Deterministic splitmix-style generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Real candidate windows always contain a position that honours every
/// inherited obligation, so the pools above never ban a pair. Scrambled
/// tables — each entry at a few positions drawn from the whole routine's
/// pool, dominating its use or not — do, constantly: the sweep must take
/// the dense scan's exact path through bans, reverse retries and chains.
#[test]
fn scrambled_tables_with_banned_pairs_take_the_same_path() {
    let mut sources: Vec<String> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(_, _, src)| src.to_string())
        .collect();
    sources.extend((0..120).map(|i| hpf::generate(CORPUS_BASE + i)));
    let mut state = 0x5eed_u64;
    let (mut bans, mut absorbed) = (0u64, 0usize);
    for (i, text) in sources.iter().enumerate() {
        let prog = gcomm::ir::lower(&gcomm::parse_program(text).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        let ctx = AnalysisCtx::new(&prog);
        let pool: Vec<Pos> = entries
            .iter()
            .flat_map(|e| candidates(&ctx, e, earliest_pos(&ctx, e), latest(&ctx, e)))
            .collect::<BTreeSet<Pos>>()
            .into_iter()
            .collect();
        if pool.is_empty() {
            continue;
        }
        // The kernels carry most of the same-class entries.
        for _ in 0..if i < 6 { 64 } else { 8 } {
            let mut start = CandidateTable::default();
            for e in &entries {
                let n = 1 + next(&mut state) % 4;
                let ps = (0..n).map(|_| pool[(next(&mut state) % pool.len() as u64) as usize]);
                start.cands.insert(e.id, ps.collect());
            }
            let (mut got_table, mut want_table) = (start.clone(), start);
            let got = redundancy::eliminate(&ctx, &entries, &mut got_table);
            let reg = gcomm::obs::Registry::new();
            let want = {
                let _scope = gcomm::obs::install(reg.clone());
                ref_eliminate(&ctx, &entries, &mut want_table)
            };
            assert_eq!(got, want, "absorption sequence diverged:\n{text}");
            assert_eq!(got_table.cands, want_table.cands, "table diverged:\n{text}");
            // The dense scan counts one per attempt, plus the final miss.
            let attempts = reg.snapshot().counter("core.redundancy.checks") - 1;
            bans += attempts - want.len() as u64;
            absorbed += want.len();
        }
    }
    assert!(bans >= 50, "only {bans} banned pairs exercised");
    assert!(absorbed >= 500, "only {absorbed} absorptions compared");
}

fn verify(what: &str, c: &Compiled) {
    let rank = c.prog.grid_rank();
    let grid = ProcGrid::balanced(4, rank);
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = gcomm::exec::verify_schedule(c, &grid, &params)
        .unwrap_or_else(|e| panic!("{what}: degraded schedule failed to execute: {e}"));
    assert!(rep.ok(), "{what}: {:?}", rep.errors.first());
}

/// Where the budget runs out inside either scan, the result differs from
/// the dense scan's (fewer steps charged per position reached) but must
/// stay legal and deliver the right data.
#[test]
fn small_budgets_stay_legal_and_replay_clean() {
    let mut sources: Vec<(String, String)> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(b, r, src)| (format!("{b}:{r}"), src.to_string()))
        .collect();
    sources.extend((0..40).map(|i| (format!("corpus {i}"), hpf::generate(CORPUS_BASE + i))));
    // Fibonacci steps: dense where a kernel's candidates phase ends and
    // the pair scans begin, sparse beyond.
    let budgets: Vec<u64> = std::iter::successors(Some((1u64, 2u64)), |&(a, b)| Some((b, a + b)))
        .map(|(a, _)| a)
        .take_while(|&k| k <= 20_000)
        .collect();
    for (name, src) in &sources {
        for s in [
            Strategy::EarliestRE,
            Strategy::EarliestPartialRE,
            Strategy::Global,
        ] {
            for &k in &budgets {
                let what = format!("{name} {s:?} steps={k}");
                let c = compile_budgeted(src, s, Budget::steps(k))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let rep = check_schedule(&c);
                assert!(rep.ok(), "{what}:\n{rep}");
                verify(&what, &c);
            }
        }
    }
}

#[test]
fn flux_makes_a_few_dozen_subsumption_checks_not_thousands() {
    let (_, _, src) = gcomm::kernels::all_kernels()
        .into_iter()
        .find(|(b, r, _)| (*b, *r) == ("hydflo", "flux"))
        .expect("hydflo:flux is a paper kernel");
    let c = compile_stats(src, Strategy::Global).expect("paper kernels compile");
    assert_eq!(c.stats.counter("core.entries.redundant"), 22);
    let checks = c.stats.counter("sections.subsume_checks");
    assert!(checks <= 64, "{checks} subsumption checks on hydflo:flux");
}
