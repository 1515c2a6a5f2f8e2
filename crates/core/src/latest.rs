//! `Latest(u)` — the latest, shallowest safe placement (§4.2).
//!
//! Classic message vectorization: communication for a use is placed just
//! before the outermost loop carrying no true dependence on it, or just
//! before the statement containing the use when every enclosing loop
//! carries one.

use gcomm_ir::Pos;

use crate::ctx::{ext_dep_at, AnalysisCtx, DepState};
use crate::entry::CommEntry;

/// `CommLevel(u)` (§4.2): `max_d DepLevel(d, u)` over the reaching regular
/// definitions of the entry's reads (ENTRY pseudo-defs excluded). One
/// direction analysis per `(definition, use)` pair answers every level,
/// and the context's pair table shares it with `Earliest`.
pub fn comm_level(ctx: &AnalysisCtx<'_>, e: &CommEntry) -> u32 {
    let u_stmt = e.stmt;
    let mut level = 0u32;
    let mut state = ctx.dep_state();
    let DepState {
        pairs,
        walk,
        reaching,
    } = &mut *state;
    for &r in &e.reads {
        ctx.ssa.reaching_regular_defs(u_stmt, r, walk, reaching);
        for &d in reaching.iter() {
            let Some(def) = ctx.def_access(d) else {
                continue;
            };
            let cnl = ctx.prog.cnl(def.1, u_stmt);
            if cnl <= level {
                continue; // this pair cannot raise the level
            }
            let res = pairs.get(ctx, d, def, u_stmt, r);
            if let Some(l) = (level + 1..=cnl)
                .rev()
                .find(|&l| ext_dep_at(res, def.1, u_stmt, l))
            {
                level = l;
            }
        }
    }
    level
}

/// `Latest(u)`: the placement position derived from [`comm_level`].
///
/// Reductions are pinned immediately before their statement (§6.2: the
/// prototype "does not do reduction candidate marking yet"; reduction
/// communication follows the partial computation).
pub fn latest(ctx: &AnalysisCtx<'_>, e: &CommEntry) -> Pos {
    let u = e.stmt;
    if e.is_reduction() {
        return Pos::before(ctx.prog, u);
    }
    let nl = ctx.prog.stmt(u).level;
    let cl = comm_level(ctx, e);
    debug_assert!(cl <= nl, "CommLevel cannot exceed NL(u)");
    if cl >= nl {
        Pos::before(ctx.prog, u)
    } else {
        // Preheader of the loop at level cl + 1 containing u.
        // invariant: cl < nl = NL(u) here, so u sits inside a loop at every
        // level 1..=nl; only a broken loop-nest table could make this fail.
        let l = ctx
            .prog
            .enclosing_loop_at_level(u, cl + 1)
            .expect("level cl+1 <= NL(u) has a loop");
        Pos::bottom(ctx.prog, ctx.prog.loop_info(l).preheader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commgen;
    use gcomm_ir::{IrProgram, NodeKind};

    fn setup(src: &str) -> (IrProgram, Vec<crate::CommEntry>) {
        let prog = gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap();
        let entries = commgen::number(commgen::generate(&prog));
        (prog, entries)
    }

    #[test]
    fn independent_comm_vectorizes_to_preheader() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n), c(n,n) distribute (block,block)
do i = 2, n
  c(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        assert_eq!(comm_level(&ctx, &entries[0]), 0);
        let p = latest(&ctx, &entries[0]);
        assert!(matches!(prog.cfg.node(p.node).kind, NodeKind::PreHeader(_)));
    }

    #[test]
    fn carried_dependence_pins_inside_loop() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        assert_eq!(comm_level(&ctx, &entries[0]), 1);
        let p = latest(&ctx, &entries[0]);
        assert_eq!(p, Pos::before(&prog, entries[0].stmt));
    }

    #[test]
    fn timestep_carried_hoists_out_of_inner_loop_only() {
        let (prog, entries) = setup(
            "
program t
param n, nx
real g(nx,n,n), h(nx,n,n) distribute (*,block,block)
do ts = 1, 10
  do i = 1, nx
    h(i, 2:n, 1:n) = g(i, 1:n-1, 1:n)
  enddo
  do i = 1, nx
    g(i, 1:n, 1:n) = h(i, 1:n, 1:n)
  enddo
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        // g is rewritten each timestep: the NNC for g must stay inside the
        // timestep loop but can vectorize out of the i loop.
        let e = &entries[0];
        assert_eq!(comm_level(&ctx, e), 1);
        let p = latest(&ctx, e);
        assert_eq!(p.level(&prog), 1);
        assert!(matches!(prog.cfg.node(p.node).kind, NodeKind::PreHeader(_)));
    }

    #[test]
    fn same_iteration_def_pins_before_statement() {
        // h is written earlier in the same iteration and then read shifted:
        // the loop-independent dependence pins the communication inside.
        let (prog, entries) = setup(
            "
program t
param n
real h(n,n), w(n,n) distribute (block,block)
do i = 1, n
  h(i, 1:n) = w(i, 1:n)
  w(i, 2:n) = h(i, 1:n-1)
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        // Entry for h read in statement 1 (shift along dim 2).
        let e = entries
            .iter()
            .find(|e| e.label(&prog).to_string().starts_with("h "))
            .unwrap();
        assert_eq!(comm_level(&ctx, e), 1);
        assert_eq!(latest(&ctx, e), Pos::before(&prog, e.stmt));
    }

    #[test]
    fn reductions_pin_before_statement() {
        let (prog, entries) = setup(
            "
program t
param n
real g(n,n) distribute (block,block)
real s
do i = 1, n
  s = sum(g(i, 1:n))
enddo
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        assert_eq!(
            latest(&ctx, &entries[0]),
            Pos::before(&prog, entries[0].stmt)
        );
    }

    #[test]
    fn straightline_latest_is_before_use() {
        let (prog, entries) = setup(
            "
program t
param n
real a(n), c(n) distribute (block)
a(1:n) = 1
c(2:n) = a(1:n-1)
end",
        );
        let ctx = AnalysisCtx::new(&prog);
        assert_eq!(
            latest(&ctx, &entries[0]),
            Pos::before(&prog, entries[0].stmt)
        );
    }
}
