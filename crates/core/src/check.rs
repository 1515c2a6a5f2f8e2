//! Static legality checking of a placed schedule.
//!
//! The invariants here are the ones `tests/schedule_legality.rs` enforces
//! on every kernel; they are factored into the library so the fuzzing
//! harness (and any external driver) can validate arbitrary — including
//! budget-degraded — schedules without duplicating the logic:
//!
//! 1. every placed group dominates all the uses it serves,
//! 2. every (non-absorbed) member's placement lies inside its full,
//!    *unbudgeted* `Earliest..Latest` candidate window (global strategy
//!    only — the other strategies place outside the single-copy window by
//!    design),
//! 3. group members are pairwise mapping-compatible,
//! 4. absorbed entries are covered: the absorber's final placement
//!    dominates the absorbed use and its data (at the placement's nesting
//!    level) subsumes the absorbed entry's,
//! 5. every entry is placed or absorbed exactly once.
//!
//! The checker always rebuilds its own unlimited-budget [`AnalysisCtx`]:
//! a degraded compile must satisfy the invariants *of the full analysis*
//! (degradation may only shrink windows and drop optimizations, never
//! step outside them).

use gcomm_ir::Pos;

use crate::candidates::candidates;
use crate::ctx::AnalysisCtx;
use crate::earliest::earliest_pos;
use crate::latest::latest;
use crate::pipeline::Compiled;
use crate::strategy::Strategy;

/// Outcome of [`check_schedule`]: empty `errors` means legal.
#[derive(Debug, Clone, Default)]
pub struct LegalityReport {
    /// One human-readable message per violated invariant instance.
    pub errors: Vec<String>,
}

impl LegalityReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for LegalityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ok() {
            write!(f, "schedule legal")
        } else {
            writeln!(f, "{} legality violation(s):", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  {e}")?;
            }
            Ok(())
        }
    }
}

/// Checks every schedule-legality invariant applicable to the compiled
/// schedule's strategy. Never panics on malformed schedules — violations
/// are collected into the report.
pub fn check_schedule(c: &Compiled) -> LegalityReport {
    let mut rep = LegalityReport::default();
    let ctx = AnalysisCtx::new(&c.prog);
    let strategy = c.schedule.strategy;

    // 1. Groups dominate their uses.
    for g in &c.schedule.groups {
        for &eid in &g.entries {
            let e = c.schedule.entry(eid);
            let before_use = Pos::before(&c.prog, e.stmt);
            if !g.pos.dominates(&before_use, &ctx.dt) {
                rep.errors.push(format!(
                    "{strategy:?}: group at {:?} does not dominate use of {}",
                    g.pos,
                    e.label(&c.prog)
                ));
            }
        }
    }

    // 2. Placements lie inside the full candidate windows (Global only).
    if strategy == Strategy::Global {
        let absorbed: Vec<_> = c.schedule.absorptions.iter().map(|a| a.absorbed).collect();
        for g in &c.schedule.groups {
            for &eid in &g.entries {
                if absorbed.contains(&eid) {
                    continue;
                }
                let e = c.schedule.entry(eid);
                let ep = earliest_pos(&ctx, e);
                let lp = latest(&ctx, e);
                let cands = candidates(&ctx, e, ep, lp);
                if !cands.contains(&g.pos) {
                    rep.errors.push(format!(
                        "{}: placement {:?} outside candidate window [{ep:?} .. {lp:?}]",
                        e.label(&c.prog),
                        g.pos
                    ));
                }
            }
        }
    }

    // 3. Group members are pairwise mapping-compatible.
    for g in &c.schedule.groups {
        for &a in &g.entries {
            for &b in &g.entries {
                let (ea, eb) = (c.schedule.entry(a), c.schedule.entry(b));
                if !ea.mapping.compatible(&eb.mapping) {
                    rep.errors.push(format!(
                        "{} and {} share a group but are mapping-incompatible",
                        ea.label(&c.prog),
                        eb.label(&c.prog)
                    ));
                }
            }
        }
    }

    // 4. Absorbed entries are covered by their absorber's final placement.
    // Absorptions may chain (A absorbed by B, B absorbed by C — the global
    // algorithm inherits B's obligations into C), so resolve each record to
    // the entry that is actually placed before checking coverage.
    if matches!(
        strategy,
        Strategy::EarliestRE | Strategy::EarliestPartialRE | Strategy::Global
    ) {
        for a in &c.schedule.absorptions {
            let mut by = a.by;
            for _ in 0..c.schedule.absorptions.len() {
                match c.schedule.absorptions.iter().find(|n| n.absorbed == by) {
                    Some(next) => by = next.by,
                    None => break,
                }
            }
            let Some(group) = c.schedule.groups.iter().find(|g| g.entries.contains(&by)) else {
                rep.errors
                    .push(format!("absorber {by:?} is not placed anywhere"));
                continue;
            };
            let absorbed = c.schedule.entry(a.absorbed);
            let before_use = Pos::before(&c.prog, absorbed.stmt);
            if !group.pos.dominates(&before_use, &ctx.dt) {
                rep.errors.push(format!(
                    "{strategy:?}: absorber of {} placed after the absorbed use",
                    absorbed.label(&c.prog)
                ));
            }
            let lvl = group.pos.level(&c.prog);
            let cover = ctx.asd_shared(c.schedule.entry(by), lvl);
            let need = ctx.asd_shared(absorbed, lvl);
            if !need.subsumed_by(cover, &ctx.sym) {
                rep.errors.push(format!(
                    "{strategy:?}: data of {} not covered by {}",
                    absorbed.label(&c.prog),
                    c.schedule.entry(by).label(&c.prog)
                ));
            }
        }
    }

    // 5. Every entry is placed or absorbed exactly once.
    for e in &c.schedule.entries {
        let placed = c
            .schedule
            .groups
            .iter()
            .filter(|g| g.entries.contains(&e.id))
            .count();
        let absorbed = c
            .schedule
            .absorptions
            .iter()
            .filter(|a| a.absorbed == e.id)
            .count();
        if placed + absorbed != 1 {
            rep.errors.push(format!(
                "{strategy:?}: entry {} placed {placed}x, absorbed {absorbed}x",
                e.label(&c.prog)
            ));
        }
    }

    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile;
    use crate::schedule::PlacedGroup;

    const SRC: &str = "
program t
param n
real a(n,n), b(n,n), c(n,n) distribute (block,block)
b(2:n, 1:n) = a(1:n-1, 1:n)
c(2:n, 1:n) = a(1:n-1, 1:n)
end";

    #[test]
    fn clean_compiles_are_legal() {
        for s in [Strategy::Original, Strategy::EarliestRE, Strategy::Global] {
            let c = compile(SRC, s).unwrap();
            let rep = check_schedule(&c);
            assert!(rep.ok(), "{rep}");
        }
    }

    #[test]
    fn dropped_group_is_reported() {
        let mut c = compile(SRC, Strategy::Global).unwrap();
        c.schedule.groups.clear();
        let rep = check_schedule(&c);
        assert!(!rep.ok());
        assert!(rep.to_string().contains("legality violation"));
    }

    #[test]
    fn duplicated_group_is_reported() {
        let mut c = compile(SRC, Strategy::Original).unwrap();
        let extra: Vec<PlacedGroup> = c.schedule.groups.clone();
        c.schedule.groups.extend(extra);
        let rep = check_schedule(&c);
        assert!(!rep.ok());
    }
}
