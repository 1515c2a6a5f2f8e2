//! Access widening ("vectorization") with respect to a loop prefix.
//!
//! Given an access made inside a loop nest and a prefix of that nest to
//! *keep*, widening eliminates the variables of all other loops by expanding
//! subscripts over those loops' full iteration ranges. The result is the
//! array section touched by the access across all summarized iterations —
//! exactly the section a message communicates when the communication is
//! hoisted outside those loops.
//!
//! Widening is a superset approximation: strides are preserved for
//! single-variable unit-coefficient subscripts (so `b(i-1, j)` inside
//! `do j = 1, n, 2` widens to `b(i-1, 1:n:2)`), and bounds substitution
//! extends ranges monotonically otherwise.
//!
//! The kept prefix is named by its depth alone. A subscript mentions only
//! variables of loops enclosing its statement, and a loop bound only
//! variables of loops enclosing that loop, so every variable widening can
//! meet lies on the statement's own loop chain — where "in the first
//! `keep_level` loops" is `LoopInfo::level <= keep_level`. No chain is
//! built.

use gcomm_ir::{AccessRef, Affine, IrProgram, LoopId, SubscriptIr, Var};
use gcomm_sections::{DimSect, Section};

/// Widens `acc` so that only variables of the `keep_level` outermost loops
/// around its statement remain; all deeper loop variables are expanded
/// over their iteration ranges.
pub fn widen_access(prog: &IrProgram, acc: &AccessRef, keep_level: u32) -> Section {
    Section::new(
        acc.subs
            .iter()
            .map(|s| widen_sub(prog, s, keep_level))
            .collect(),
    )
}

/// Budgeted [`widen_access`] of an access made at nesting level
/// `stmt_level`: charges steps proportional to the work (one per
/// subscript per eliminated loop) and notes the transient memory of the
/// produced section, so widening-heavy programs exhaust a compile budget
/// like any other super-linear analysis. The *result* is never degraded —
/// widening is already a bounded superset approximation, and a wrong
/// section (unlike a skipped optimization) could be illegal — so
/// exhaustion here only makes the *passes* above degrade sooner.
pub fn widen_access_within(
    prog: &IrProgram,
    acc: &AccessRef,
    stmt_level: u32,
    keep_level: u32,
    budget: &gcomm_guard::Budget,
) -> Section {
    let eliminated = stmt_level.saturating_sub(keep_level).max(1);
    budget.charge(acc.subs.len() as u64 * u64::from(eliminated));
    let s = widen_access(prog, acc, keep_level);
    // Rough transient footprint: each dimension holds two affine bounds.
    budget.note_mem(s.rank() as u64 * 64);
    s
}

/// Widens one subscript (see [`widen_access`]).
fn widen_sub(prog: &IrProgram, sub: &SubscriptIr, keep_level: u32) -> DimSect {
    match sub {
        SubscriptIr::NonAffine => DimSect::Any,
        SubscriptIr::Elem(e) => widen_elem(prog, e, keep_level),
        SubscriptIr::Range { lo, hi, step } => widen_range(prog, lo, hi, *step, keep_level),
    }
}

/// [`widen_sub`] for a caller that can read the subscript itself: `None`
/// when no loop deeper than `keep_level` occurs in it, which widening
/// would return unchanged (a non-affine subscript stays as unknown as
/// `Any`), so nothing is copied.
pub(crate) fn widen_sub_if_needed(
    prog: &IrProgram,
    sub: &SubscriptIr,
    keep_level: u32,
) -> Option<DimSect> {
    let clean = match sub {
        SubscriptIr::NonAffine => true,
        SubscriptIr::Elem(e) => is_clean(prog, e, keep_level),
        SubscriptIr::Range { lo, hi, .. } => {
            is_clean(prog, lo, keep_level) && is_clean(prog, hi, keep_level)
        }
    };
    (!clean).then(|| widen_sub(prog, sub, keep_level))
}

/// Variables to eliminate: loop vars deeper than `keep_level`.
fn bad_vars<'a>(
    prog: &'a IrProgram,
    e: &'a Affine,
    keep_level: u32,
) -> impl Iterator<Item = (LoopId, i64)> + 'a {
    e.terms().iter().filter_map(move |&(v, c)| match v {
        Var::Loop(l) if prog.loop_info(l).level > keep_level => Some((l, c)),
        _ => None,
    })
}

fn is_clean(prog: &IrProgram, e: &Affine, keep_level: u32) -> bool {
    bad_vars(prog, e, keep_level).next().is_none()
}

/// Substitutes eliminated loop vars in a *bound* expression, choosing the
/// loop bound that pushes the expression toward `minimize` (down) or up.
fn saturate_bound(prog: &IrProgram, e: &Affine, keep_level: u32, minimize: bool) -> Option<Affine> {
    let mut cur = e.clone();
    for _ in 0..16 {
        let Some((l, c)) = bad_vars(prog, &cur, keep_level).next() else {
            return Some(cur);
        };
        let li = prog.loop_info(l);
        // Iteration range of the loop: between lo and hi regardless of step
        // sign (for negative steps the loop runs hi..lo conceptually; the set
        // of iterates is within [min(lo,hi), max(lo,hi)]).
        let (vmin, vmax) = if li.step > 0 {
            (&li.lo, &li.hi)
        } else {
            (&li.hi, &li.lo)
        };
        let pick = if (c > 0) == minimize { vmin } else { vmax };
        cur = cur.subst(Var::Loop(l), pick);
    }
    None
}

fn widen_elem(prog: &IrProgram, e: &Affine, keep_level: u32) -> DimSect {
    let mut bad = bad_vars(prog, e, keep_level);
    let Some((l, c)) = bad.next() else {
        return DimSect::Elem(e.clone());
    };
    // Stride preservation: single eliminated variable whose loop bounds are
    // already clean (no further eliminated vars).
    let li = prog.loop_info(l);
    if bad.next().is_none()
        && is_clean(prog, &li.lo, keep_level)
        && is_clean(prog, &li.hi, keep_level)
    {
        let (vmin, vmax) = if li.step > 0 {
            (&li.lo, &li.hi)
        } else {
            (&li.hi, &li.lo)
        };
        let (lo, hi) = if c > 0 {
            (e.subst(Var::Loop(l), vmin), e.subst(Var::Loop(l), vmax))
        } else {
            (e.subst(Var::Loop(l), vmax), e.subst(Var::Loop(l), vmin))
        };
        let stride = (c * li.step).unsigned_abs() as i64;
        return DimSect::Range {
            lo,
            hi,
            step: stride.max(1),
        };
    }
    // General case: saturate both directions, densify.
    match (
        saturate_bound(prog, e, keep_level, true),
        saturate_bound(prog, e, keep_level, false),
    ) {
        (Some(lo), Some(hi)) => DimSect::Range { lo, hi, step: 1 },
        _ => DimSect::Any,
    }
}

fn widen_range(prog: &IrProgram, lo: &Affine, hi: &Affine, step: i64, keep_level: u32) -> DimSect {
    if is_clean(prog, lo, keep_level) && is_clean(prog, hi, keep_level) {
        return DimSect::Range {
            lo: lo.clone(),
            hi: hi.clone(),
            step,
        };
    }
    match (
        saturate_bound(prog, lo, keep_level, true),
        saturate_bound(prog, hi, keep_level, false),
    ) {
        // A moving window loses stride alignment guarantees; keep the stride
        // only if the window moves by multiples of it (conservative: same
        // eliminated variable with coefficient divisible by step in both
        // bounds would be required — densify instead).
        (Some(l), Some(h)) => DimSect::Range {
            lo: l,
            hi: h,
            step: 1,
        },
        _ => DimSect::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_ir::{StmtId, StmtKind};
    use gcomm_sections::SymCtx;

    fn prog(src: &str) -> IrProgram {
        gcomm_ir::lower(&gcomm_lang::parse_program(src).unwrap()).unwrap()
    }

    fn read_acc(p: &IrProgram, s: StmtId, i: usize) -> AccessRef {
        match &p.stmt(s).kind {
            StmtKind::Assign { reads, .. } => reads[i].access.clone(),
            StmtKind::Cond { reads } => reads[i].access.clone(),
        }
    }

    #[test]
    fn widen_unit_stencil_over_loop() {
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 2, n
  a(i, 1:n) = a(i-1, 1:n)
enddo
end",
        );
        let acc = read_acc(&p, StmtId(0), 0);
        let s = widen_access(&p, &acc, 0);
        // a(i-1, ·) over i = 2..n widens to rows 1..n-1.
        match &s.dims[0] {
            DimSect::Range { lo, hi, step } => {
                assert_eq!(lo.as_const(), Some(1));
                assert_eq!(*step, 1);
                assert!(hi.to_string().contains("p0"));
                assert_eq!(hi.k, -1);
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn widen_preserves_kept_loop_vars() {
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do t1 = 1, 8
  do i = 2, n
    a(i, 1:n) = a(i-1, 1:n)
  enddo
enddo
end",
        );
        let acc = read_acc(&p, StmtId(0), 0);
        // Keep the timestep loop (level 1), widen the i loop only.
        let s = widen_access(&p, &acc, 1);
        match &s.dims[0] {
            DimSect::Range { lo, .. } => assert!(!lo.has_loop_vars()),
            other => panic!("{other:?}"),
        }
        // Keeping both loops leaves the element subscript intact.
        let s2 = widen_access(&p, &acc, 2);
        assert!(matches!(&s2.dims[0], DimSect::Elem(e) if e.has_loop_vars()));
    }

    #[test]
    fn widen_keeps_stride_of_strided_loop() {
        let p = prog(
            "
program t
param n
real b(n,n), c(n,n) distribute (block,block)
do i = 2, n
  do j = 1, n, 2
    c(i, j) = b(i - 1, j)
  enddo
enddo
end",
        );
        let acc = read_acc(&p, StmtId(0), 0);
        let s = widen_access(&p, &acc, 1); // widen j, keep i
        match &s.dims[1] {
            DimSect::Range { lo, hi, step } => {
                assert_eq!(lo.as_const(), Some(1));
                assert_eq!(*step, 2, "odd columns only");
                assert!(!hi.has_loop_vars());
            }
            other => panic!("expected strided range, got {other:?}"),
        }
        // And the strided widening is a subset of the dense one.
        let dense = DimSect::Range {
            lo: Affine::constant(1),
            hi: s.dims[1].hi().unwrap().clone(),
            step: 1,
        };
        assert!(s.dims[1].subset_of(&dense, &SymCtx::default()));
    }

    #[test]
    fn widen_negative_coefficient() {
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 1, n
  a(i, 1) = a(n - i + 1, 1)
enddo
end",
        );
        let acc = read_acc(&p, StmtId(0), 0);
        let s = widen_access(&p, &acc, 0);
        match &s.dims[0] {
            DimSect::Range { lo, hi, .. } => {
                // n - i + 1 over i = 1..n: range 1..n.
                assert_eq!(lo.as_const(), Some(1));
                assert_eq!(hi.k, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn widen_triangular_bounds_through_outer_var() {
        // Inner loop bound depends on the outer var; widening both must
        // saturate through the chain.
        let p = prog(
            "
program t
param n
real a(n,n) distribute (block,block)
do i = 1, n
  do j = 1, i
    a(i, j) = 0
  enddo
enddo
end",
        );
        let lhs = p.stmt(StmtId(0)).kind.def().unwrap().clone();
        let s = widen_access(&p, &lhs, 0);
        match &s.dims[1] {
            DimSect::Range { lo, hi, .. } => {
                assert_eq!(lo.as_const(), Some(1));
                // j ≤ i ≤ n.
                assert!(!hi.has_loop_vars());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn widen_nonaffine_is_any() {
        let p = prog(
            "
program t
param n
real a(n,n), q(n,n) distribute (block,block)
do i = 1, n
  do j = 1, n
    a(i, j) = q(i * j, j)
  enddo
enddo
end",
        );
        let acc = read_acc(&p, StmtId(0), 0);
        let s = widen_access(&p, &acc, 0);
        assert!(matches!(s.dims[0], DimSect::Any));
    }
}
