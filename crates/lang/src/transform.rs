//! Source-to-source transformations: scalarization and loop fusion.
//!
//! The paper's §2.3 discussion of *syntax sensitivity* revolves around two
//! front-end passes of the pHPF compiler:
//!
//! * the **scalarizer** turns F90 array-section assignments into explicit
//!   element loops ("the current IBM HPF scalarizer will translate the
//!   F90-style source to the scalarized form in the second column"), and
//! * **loop fusion** can merge adjacent compatible loops, re-unifying
//!   earliest placement points ("if loop fusion can be performed before
//!   this analysis, the problem can be avoided — but this is not always
//!   possible").
//!
//! Both passes are value-preserving (checked against the reference
//! interpreter in the workspace tests). Scalarization handles the aliasing
//! hazard of overlapping reads of the assigned array by choosing the loop
//! direction from the read offsets, exactly as classical scalarizers do;
//! statements it cannot prove safe are left in array form.

use std::sync::Arc;

use crate::ast::*;

/// Scalarizes every array-section assignment it can prove safe, leaving
/// the rest untouched. Returns the transformed program, whose arena is
/// `prog`'s plus the nodes the rewrite made.
pub fn scalarize(prog: &Program) -> Program {
    let mut counter = 0usize;
    let mut out = prog.clone();
    let arena = Arc::make_mut(&mut out.arena);
    out.body = scalarize_stmts(prog, arena, &prog.body, &mut counter);
    out
}

fn scalarize_stmts(
    prog: &Program,
    arena: &mut Arena,
    stmts: &[Stmt],
    counter: &mut usize,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign(a) => match scalarize_assign(prog, arena, a, counter) {
                Some(replacement) => out.push(replacement),
                None => out.push(s.clone()),
            },
            Stmt::Do(d) => {
                let mut d2 = d.clone();
                d2.body = scalarize_stmts(prog, arena, &d.body, counter);
                out.push(Stmt::Do(d2));
            }
            Stmt::If(i) => {
                let mut i2 = i.clone();
                i2.then_body = scalarize_stmts(prog, arena, &i.then_body, counter);
                i2.else_body = scalarize_stmts(prog, arena, &i.else_body, counter);
                out.push(Stmt::If(i2));
            }
        }
    }
    out
}

/// The resolved triplet of one range dimension.
#[derive(Clone, Copy)]
struct Triplet {
    lo: ExprId,
    hi: ExprId,
    step: i64,
}

fn decl(prog: &Program, array: NameId) -> Option<&ArrayDecl> {
    prog.arrays.iter().find(|d| d.name == array)
}

fn triplet_of(prog: &Program, array: NameId, dim: usize, s: Subscript) -> Option<Triplet> {
    match s {
        Subscript::Index(_) => None,
        Subscript::Range { lo, hi, step } => {
            let dd = decl(prog, array)?.dims.get(dim)?;
            Some(Triplet {
                lo: lo.unwrap_or(dd.lo),
                hi: hi.unwrap_or(dd.hi),
                step,
            })
        }
    }
}

/// The `(dimension, triplet)` of each range subscript of `r`.
fn triplets(prog: &Program, arena: &Arena, r: ArrayRef) -> Vec<(usize, Triplet)> {
    let subs = arena.subs(r).iter().enumerate();
    subs.filter_map(|(d, &s)| triplet_of(prog, r.array, d, s).map(|t| (d, t)))
        .collect()
}

/// Builds `base + (var - lo)` — the element index of a co-iterated range.
fn co_index(arena: &mut Arena, base: ExprId, var: NameId, lo: ExprId) -> ExprId {
    let var = arena.push_name_ref(var);
    let offset = arena.push(ExprNode::Bin(BinOp::Sub, var, lo));
    arena.push(ExprNode::Bin(BinOp::Add, base, offset))
}

fn scalarize_assign(
    prog: &Program,
    arena: &mut Arena,
    a: &Assign,
    counter: &mut usize,
) -> Option<Stmt> {
    // Collect the lhs triplets (the iteration space).
    let lhs = arena.aref(a.lhs);
    if arena.subs(lhs).is_empty() || decl(prog, lhs.array)?.rank() == 0 {
        return None;
    }
    let lhs_trips = triplets(prog, arena, lhs);
    if lhs_trips.is_empty() {
        return None; // already elementwise
    }

    // Every rhs reference must co-iterate: equal range count with equal
    // steps per position. Compute, per iteration dimension, the set of
    // same-array read offsets to choose a safe loop direction.
    let mut same_array_deltas: Vec<Vec<i64>> = vec![Vec::new(); lhs_trips.len()];
    let mut scalarizable = true;
    arena.for_each_ref(a.rhs, &mut |r, in_sum| {
        if in_sum || !scalarizable {
            return; // sum() arguments stay whole-section
        }
        if arena.subs(r).is_empty() {
            // Whole-array or scalar name: scalars are fine; whole arrays
            // would need rank checks — only allow rank 0 names here.
            if decl(prog, r.array).is_none_or(|d| d.rank() == 0) {
                return;
            }
            scalarizable = false;
            return;
        }
        let trips = triplets(prog, arena, r);
        if trips.len() != lhs_trips.len() {
            scalarizable = false;
            return;
        }
        for (k, ((_, rt), (_, lt))) in trips.iter().zip(lhs_trips.iter()).enumerate() {
            if rt.step != lt.step {
                scalarizable = false;
                return;
            }
            if r.array == lhs.array {
                // Offset between read and write positions, when constant.
                match const_diff(arena, rt.lo, lt.lo) {
                    Some(d) => same_array_deltas[k].push(d),
                    None => scalarizable = false,
                }
            }
        }
    });
    if !scalarizable {
        return None;
    }

    // Choose a direction per dimension: reads strictly below the write can
    // iterate upward... actually the safe direction writes elements whose
    // sources have already NOT been overwritten: with read offset d<0
    // (reading lower indices), iterate downward; d>0, iterate upward;
    // mixed signs are unsafe.
    let mut directions = Vec::with_capacity(lhs_trips.len());
    for deltas in &same_array_deltas {
        let has_neg = deltas.iter().any(|&d| d < 0);
        let has_pos = deltas.iter().any(|&d| d > 0);
        match (has_neg, has_pos) {
            (true, true) => return None, // needs a temporary
            (true, false) => directions.push(-1i64),
            _ => directions.push(1i64),
        }
    }

    // Fresh loop variables.
    let param = |name: &str| prog.params.iter().any(|&p| *arena.name(p) == name);
    let mut fresh = Vec::with_capacity(lhs_trips.len());
    for _ in 0..lhs_trips.len() {
        *counter += 1;
        let mut name = format!("sc{counter}");
        while prog.array(&name).is_some() || param(&name) {
            *counter += 1;
            name = format!("sc{counter}");
        }
        fresh.push(name);
    }
    let vars: Vec<NameId> = fresh.iter().map(|name| arena.intern(name)).collect();

    // Rewrite the statement body: each range becomes a co-iterated index.
    let rewrite_ref = |arena: &mut Arena, r: ArrayRef| -> RefId {
        let mut ki = 0usize;
        let subs: Vec<Subscript> = arena
            .subs(r)
            .to_vec()
            .into_iter()
            .enumerate()
            .map(|(d, s)| match triplet_of(prog, r.array, d, s) {
                Some(t) => {
                    let k = ki;
                    ki += 1;
                    let (_, lt) = &lhs_trips[k];
                    Subscript::Index(co_index(arena, t.lo, vars[k], lt.lo))
                }
                None => s,
            })
            .collect();
        arena.push_ref(r.array, &subs)
    };

    fn rewrite_expr(
        arena: &mut Arena,
        e: ExprId,
        f: &dyn Fn(&mut Arena, ArrayRef) -> RefId,
    ) -> ExprId {
        let node = match arena.expr(e) {
            // Leaves, and whole-section reductions, stay as they are.
            ExprNode::Int(_) | ExprNode::Num(_) | ExprNode::Sum(_) => return e,
            ExprNode::Neg(a) => ExprNode::Neg(rewrite_expr(arena, a, f)),
            ExprNode::Bin(op, a, b) => {
                ExprNode::Bin(op, rewrite_expr(arena, a, f), rewrite_expr(arena, b, f))
            }
            ExprNode::Ref(r) => {
                let r = arena.aref(r);
                if arena.subs(r).is_empty() {
                    return e;
                }
                ExprNode::Ref(f(arena, r))
            }
        };
        arena.push(node)
    }

    let new_lhs = rewrite_ref(arena, lhs);
    let new_rhs = rewrite_expr(arena, a.rhs, &rewrite_ref);

    // Build the loop nest, innermost = last range dimension.
    let mut nest = Stmt::Assign(Assign {
        lhs: new_lhs,
        rhs: new_rhs,
        line: a.line,
    });
    for k in (0..lhs_trips.len()).rev() {
        let (_, t) = lhs_trips[k];
        let (lo, hi, step) = if directions[k] >= 0 {
            (t.lo, t.hi, t.step)
        } else {
            (t.hi, t.lo, -t.step)
        };
        nest = Stmt::Do(DoLoop {
            var: vars[k],
            lo,
            hi,
            step,
            body: vec![nest],
        });
    }
    Some(nest)
}

/// Constant difference of two bound expressions, when syntactically
/// decidable (integer literals and matching names).
fn const_diff(arena: &Arena, a: ExprId, b: ExprId) -> Option<i64> {
    fn split(arena: &Arena, e: ExprId) -> Option<(Option<NameId>, i64)> {
        match arena.expr(e) {
            ExprNode::Int(v) => Some((None, v)),
            ExprNode::Ref(r) if arena.subs(arena.aref(r)).is_empty() => {
                Some((Some(arena.aref(r).array), 0))
            }
            ExprNode::Bin(BinOp::Add, x, y) => {
                let (nx, kx) = split(arena, x)?;
                let (ny, ky) = split(arena, y)?;
                match (nx, ny) {
                    (None, _) => Some((ny, kx + ky)),
                    (_, None) => Some((nx, kx + ky)),
                    _ => None,
                }
            }
            ExprNode::Bin(BinOp::Sub, x, y) => {
                let (nx, kx) = split(arena, x)?;
                let (ny, ky) = split(arena, y)?;
                ny.is_none().then_some((nx, kx - ky))
            }
            _ => None,
        }
    }
    let (na, ka) = split(arena, a)?;
    let (nb, kb) = split(arena, b)?;
    (na == nb).then_some(ka - kb)
}

/// Fuses adjacent loops with identical bounds and step whose bodies touch
/// disjoint arrays (the conservative, always-legal case). Applied
/// recursively; returns the transformed program.
pub fn fuse_loops(prog: &Program) -> Program {
    let mut out = prog.clone();
    let arena = Arc::make_mut(&mut out.arena);
    out.body = fuse_stmts(arena, &prog.body);
    out
}

fn fuse_stmts(arena: &mut Arena, stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for s in stmts {
        let s = match s {
            Stmt::Do(d) => {
                let mut d2 = d.clone();
                d2.body = fuse_stmts(arena, &d.body);
                Stmt::Do(d2)
            }
            Stmt::If(i) => {
                let mut i2 = i.clone();
                i2.then_body = fuse_stmts(arena, &i.then_body);
                i2.else_body = fuse_stmts(arena, &i.else_body);
                Stmt::If(i2)
            }
            other => other.clone(),
        };
        if let (Some(Stmt::Do(prev)), Stmt::Do(cur)) = (out.last(), &s) {
            let same = |x: &ExprId, y: &ExprId| In(arena, x) == In(arena, y);
            if same(&prev.lo, &cur.lo)
                && same(&prev.hi, &cur.hi)
                && prev.step == cur.step
                && arrays_disjoint(arena, prev, cur)
            {
                // Fuse: rename the second loop's variable to the first's.
                let (from, to) = (cur.var, prev.var);
                let renamed = rename_var(arena, &cur.body, from, to);
                if let Some(Stmt::Do(prev)) = out.last_mut() {
                    prev.body.extend(renamed);
                }
                continue;
            }
        }
        out.push(s);
    }
    out
}

fn touched_arrays(arena: &Arena, body: &[Stmt], acc: &mut Vec<NameId>) {
    for s in body {
        match s {
            Stmt::Assign(a) => {
                acc.push(arena.aref(a.lhs).array);
                arena.for_each_ref(a.rhs, &mut |r, _| acc.push(r.array));
            }
            Stmt::Do(d) => touched_arrays(arena, &d.body, acc),
            Stmt::If(i) => {
                arena.for_each_ref(i.cond, &mut |r, _| acc.push(r.array));
                touched_arrays(arena, &i.then_body, acc);
                touched_arrays(arena, &i.else_body, acc);
            }
        }
    }
}

fn arrays_disjoint(arena: &Arena, a: &DoLoop, b: &DoLoop) -> bool {
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    touched_arrays(arena, &a.body, &mut ta);
    touched_arrays(arena, &b.body, &mut tb);
    ta.iter().all(|x| !tb.contains(x))
}

/// `body` with every free occurrence of loop variable `from` renamed to
/// `to`, as new nodes.
fn rename_var(arena: &mut Arena, body: &[Stmt], from: NameId, to: NameId) -> Vec<Stmt> {
    fn rex(arena: &mut Arena, e: ExprId, from: NameId, to: NameId) -> ExprId {
        let node = match arena.expr(e) {
            ExprNode::Int(_) | ExprNode::Num(_) => return e,
            ExprNode::Neg(a) => ExprNode::Neg(rex(arena, a, from, to)),
            ExprNode::Bin(op, a, b) => {
                ExprNode::Bin(op, rex(arena, a, from, to), rex(arena, b, from, to))
            }
            ExprNode::Sum(r) => ExprNode::Sum(rref(arena, r, from, to)),
            ExprNode::Ref(r) => {
                let whole = arena.subs(arena.aref(r)).is_empty();
                if whole && arena.aref(r).array == from {
                    return arena.push_name_ref(to);
                }
                ExprNode::Ref(rref(arena, r, from, to))
            }
        };
        arena.push(node)
    }
    fn rref(arena: &mut Arena, r: RefId, from: NameId, to: NameId) -> RefId {
        let r = arena.aref(r);
        let subs = arena.subs(r).to_vec();
        let opt = |arena: &mut Arena, e: Option<ExprId>| e.map(|e| rex(arena, e, from, to));
        let subs: Vec<Subscript> = subs
            .into_iter()
            .map(|s| match s {
                Subscript::Index(e) => Subscript::Index(rex(arena, e, from, to)),
                Subscript::Range { lo, hi, step } => Subscript::Range {
                    lo: opt(arena, lo),
                    hi: opt(arena, hi),
                    step,
                },
            })
            .collect();
        arena.push_ref(r.array, &subs)
    }
    body.iter()
        .map(|s| match s {
            Stmt::Assign(a) => Stmt::Assign(Assign {
                lhs: rref(arena, a.lhs, from, to),
                rhs: rex(arena, a.rhs, from, to),
                line: a.line,
            }),
            Stmt::Do(d) if d.var != from => Stmt::Do(DoLoop {
                var: d.var,
                lo: rex(arena, d.lo, from, to),
                hi: rex(arena, d.hi, from, to),
                step: d.step,
                body: rename_var(arena, &d.body, from, to),
            }),
            Stmt::Do(d) => Stmt::Do(d.clone()), // inner shadowing: stop
            Stmt::If(i) => Stmt::If(IfStmt {
                cond: rex(arena, i.cond, from, to),
                then_body: rename_var(arena, &i.then_body, from, to),
                else_body: rename_var(arena, &i.else_body, from, to),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn scalarizes_simple_section() {
        let p = parse_program(
            "program t\nparam n\nreal a(n), b(n) distribute (block)\nb(2:n) = a(1:n-1)\nend",
        )
        .unwrap();
        let s = scalarize(&p);
        assert_eq!(s.body.len(), 1);
        match &s.body[0] {
            Stmt::Do(d) => {
                assert_eq!(d.step, 1);
                assert_eq!(d.body.len(), 1);
                match &d.body[0] {
                    Stmt::Assign(a) => {
                        let subs = s.arena.subs(s.arena.aref(a.lhs));
                        assert!(matches!(subs[0], Subscript::Index(_)));
                    }
                    _ => panic!("expected elementwise assign"),
                }
            }
            _ => panic!("expected loop"),
        }
        // The result re-validates.
        crate::validate::validate(&s).unwrap();
    }

    #[test]
    fn overlapping_self_read_iterates_safely() {
        // a(2:n) = a(1:n-1): reading below the write — downward loop.
        let p = parse_program(
            "program t\nparam n\nreal a(n) distribute (block)\na(2:n) = a(1:n-1)\nend",
        )
        .unwrap();
        let s = scalarize(&p);
        match &s.body[0] {
            Stmt::Do(d) => assert_eq!(d.step, -1, "must iterate downward"),
            _ => panic!("expected loop"),
        }
    }

    #[test]
    fn mixed_direction_self_read_left_alone() {
        // Reads both above and below the write: needs a temporary; the
        // statement stays in array form.
        let p = parse_program(
            "program t\nparam n\nreal a(n) distribute (block)\na(2:n-1) = a(1:n-2) + a(3:n)\nend",
        )
        .unwrap();
        let s = scalarize(&p);
        assert!(matches!(s.body[0], Stmt::Assign(_)));
    }

    #[test]
    fn strided_sections_scalarize_with_stride() {
        let p = parse_program(
            "program t\nparam n\nreal b(n,n) distribute (block,block)\nb(1:n, 1:n:2) = 1\nend",
        )
        .unwrap();
        let s = scalarize(&p);
        match &s.body[0] {
            Stmt::Do(outer) => match &outer.body[0] {
                Stmt::Do(inner) => assert_eq!(inner.step, 2),
                _ => panic!("expected inner loop"),
            },
            _ => panic!("expected loop nest"),
        }
    }

    #[test]
    fn fuses_independent_adjacent_loops() {
        let p = parse_program(
            "
program t
param n
real a(n), b(n) distribute (block)
do i = 1, n
  a(i) = 3
enddo
do j = 1, n
  b(j) = 4
enddo
end",
        )
        .unwrap();
        let f = fuse_loops(&p);
        assert_eq!(f.body.len(), 1, "loops must fuse");
        match &f.body[0] {
            Stmt::Do(d) => assert_eq!(d.body.len(), 2),
            _ => panic!("expected fused loop"),
        }
        crate::validate::validate(&f).unwrap();
    }

    #[test]
    fn dependent_loops_do_not_fuse() {
        let p = parse_program(
            "
program t
param n
real a(n), b(n) distribute (block)
do i = 1, n
  a(i) = 3
enddo
do j = 1, n
  b(j) = a(j)
enddo
end",
        )
        .unwrap();
        let f = fuse_loops(&p);
        assert_eq!(f.body.len(), 2, "shared array blocks fusion");
    }

    #[test]
    fn mismatched_bounds_do_not_fuse() {
        let p = parse_program(
            "
program t
param n
real a(n), b(n) distribute (block)
do i = 1, n
  a(i) = 3
enddo
do j = 2, n
  b(j) = 4
enddo
end",
        )
        .unwrap();
        assert_eq!(fuse_loops(&p).body.len(), 2);
    }
}
