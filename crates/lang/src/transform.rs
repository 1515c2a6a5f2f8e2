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

use crate::ast::*;

/// Scalarizes every array-section assignment it can prove safe, leaving
/// the rest untouched. Returns the transformed program.
pub fn scalarize(prog: &Program) -> Program {
    let mut counter = 0usize;
    let mut out = prog.clone();
    out.body = scalarize_stmts(prog, &prog.body, &mut counter);
    out
}

fn scalarize_stmts(prog: &Program, stmts: &[Stmt], counter: &mut usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign(a) => match scalarize_assign(prog, a, counter) {
                Some(replacement) => out.push(replacement),
                None => out.push(s.clone()),
            },
            Stmt::Do(d) => {
                let mut d2 = d.clone();
                d2.body = scalarize_stmts(prog, &d.body, counter);
                out.push(Stmt::Do(d2));
            }
            Stmt::If(i) => {
                let mut i2 = i.clone();
                i2.then_body = scalarize_stmts(prog, &i.then_body, counter);
                i2.else_body = scalarize_stmts(prog, &i.else_body, counter);
                out.push(Stmt::If(i2));
            }
        }
    }
    out
}

/// The resolved triplet of one range dimension.
#[derive(Clone)]
struct Triplet {
    lo: Expr,
    hi: Expr,
    step: i64,
}

fn decl_bounds(prog: &Program, array: &str, dim: usize) -> Option<(Expr, Expr)> {
    let d = prog.array(array)?;
    let dd = d.dims.get(dim)?;
    Some((dd.lo.clone(), dd.hi.clone()))
}

fn triplet_of(prog: &Program, array: &str, dim: usize, s: &Subscript) -> Option<Triplet> {
    match s {
        Subscript::Index(_) => None,
        Subscript::Range { lo, hi, step } => {
            let (dlo, dhi) = decl_bounds(prog, array, dim)?;
            Some(Triplet {
                lo: lo.clone().unwrap_or(dlo),
                hi: hi.clone().unwrap_or(dhi),
                step: *step,
            })
        }
    }
}

/// Builds `base + (var - lo)` — the element index of a co-iterated range.
fn co_index(base: &Expr, var: &str, lo: &Expr) -> Expr {
    Expr::Bin(
        BinOp::Add,
        Box::new(base.clone()),
        Box::new(Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::name(var)),
            Box::new(lo.clone()),
        )),
    )
}

fn scalarize_assign(prog: &Program, a: &Assign, counter: &mut usize) -> Option<Stmt> {
    // Collect the lhs triplets (the iteration space).
    let decl = prog.array(&a.lhs.array)?;
    if a.lhs.subs.is_empty() || decl.rank() == 0 {
        return None;
    }
    let lhs_trips: Vec<(usize, Triplet)> = a
        .lhs
        .subs
        .iter()
        .enumerate()
        .filter_map(|(d, s)| triplet_of(prog, &a.lhs.array, d, s).map(|t| (d, t)))
        .collect();
    if lhs_trips.is_empty() {
        return None; // already elementwise
    }

    // Every rhs reference must co-iterate: equal range count with equal
    // steps per position. Compute, per iteration dimension, the set of
    // same-array read offsets to choose a safe loop direction.
    let mut same_array_deltas: Vec<Vec<i64>> = vec![Vec::new(); lhs_trips.len()];
    let mut scalarizable = true;
    a.rhs.for_each_ref(&mut |r, in_sum| {
        if in_sum || !scalarizable {
            return; // sum() arguments stay whole-section
        }
        if r.subs.is_empty() {
            // Whole-array or scalar name: scalars are fine; whole arrays
            // would need rank checks — only allow rank 0 names here.
            if prog.array(&r.array).map(|d| d.rank()) == Some(0) || prog.array(&r.array).is_none() {
                return;
            }
            scalarizable = false;
            return;
        }
        let trips: Vec<(usize, Triplet)> = r
            .subs
            .iter()
            .enumerate()
            .filter_map(|(d, s)| triplet_of(prog, &r.array, d, s).map(|t| (d, t)))
            .collect();
        if trips.len() != lhs_trips.len() {
            scalarizable = false;
            return;
        }
        for (k, ((_, rt), (_, lt))) in trips.iter().zip(lhs_trips.iter()).enumerate() {
            if rt.step != lt.step {
                scalarizable = false;
                return;
            }
            if r.array == a.lhs.array {
                // Offset between read and write positions, when constant.
                match const_diff(&rt.lo, &lt.lo) {
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
    let vars: Vec<Name> = (0..lhs_trips.len())
        .map(|_| {
            *counter += 1;
            let mut name = format!("sc{counter}");
            while prog.array(&name).is_some() || prog.params.iter().any(|p| *p == name) {
                *counter += 1;
                name = format!("sc{counter}");
            }
            name.into()
        })
        .collect();

    // Rewrite the statement body: each range becomes a co-iterated index.
    let rewrite_ref = |r: &ArrayRef| -> ArrayRef {
        let mut ki = 0usize;
        let subs = r
            .subs
            .iter()
            .enumerate()
            .map(|(d, s)| match triplet_of(prog, &r.array, d, s) {
                Some(t) => {
                    let k = ki;
                    ki += 1;
                    let (_, lt) = &lhs_trips[k];
                    Subscript::Index(co_index(&t.lo, &vars[k], &lt.lo))
                }
                None => s.clone(),
            })
            .collect();
        ArrayRef {
            array: r.array.clone(),
            subs,
        }
    };

    fn rewrite_expr(e: &Expr, f: &dyn Fn(&ArrayRef) -> ArrayRef) -> Expr {
        match e {
            Expr::Int(_) | Expr::Num(_) => e.clone(),
            Expr::Neg(a) => Expr::Neg(Box::new(rewrite_expr(a, f))),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(rewrite_expr(a, f)),
                Box::new(rewrite_expr(b, f)),
            ),
            Expr::Sum(r) => Expr::Sum(r.clone()), // whole-section reduction
            Expr::Ref(r) => {
                if r.subs.is_empty() {
                    Expr::Ref(r.clone())
                } else {
                    Expr::Ref(f(r))
                }
            }
        }
    }

    let new_lhs = rewrite_ref(&a.lhs);
    let new_rhs = rewrite_expr(&a.rhs, &rewrite_ref);

    // Build the loop nest, innermost = last range dimension.
    let mut nest = Stmt::Assign(Assign {
        lhs: new_lhs,
        rhs: new_rhs.into(),
        line: a.line,
    });
    for k in (0..lhs_trips.len()).rev() {
        let (_, t) = &lhs_trips[k];
        let (lo, hi, step) = if directions[k] >= 0 {
            (t.lo.clone(), t.hi.clone(), t.step)
        } else {
            (t.hi.clone(), t.lo.clone(), -t.step)
        };
        nest = Stmt::Do(DoLoop {
            var: vars[k].clone(),
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
fn const_diff(a: &Expr, b: &Expr) -> Option<i64> {
    fn split(e: &Expr) -> Option<(Name, i64)> {
        match e {
            Expr::Int(v) => Some((Name::default(), *v)),
            Expr::Ref(r) if r.subs.is_empty() => Some((r.array.clone(), 0)),
            Expr::Bin(BinOp::Add, x, y) => {
                let (nx, kx) = split(x)?;
                let (ny, ky) = split(y)?;
                match (nx.is_empty(), ny.is_empty()) {
                    (true, _) => Some((ny, kx + ky)),
                    (_, true) => Some((nx, kx + ky)),
                    _ => None,
                }
            }
            Expr::Bin(BinOp::Sub, x, y) => {
                let (nx, kx) = split(x)?;
                let (ny, ky) = split(y)?;
                if ny.is_empty() {
                    Some((nx, kx - ky))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
    let (na, ka) = split(a)?;
    let (nb, kb) = split(b)?;
    (na == nb).then_some(ka - kb)
}

/// Fuses adjacent loops with identical bounds and step whose bodies touch
/// disjoint arrays (the conservative, always-legal case). Applied
/// recursively; returns the transformed program.
pub fn fuse_loops(prog: &Program) -> Program {
    let mut out = prog.clone();
    out.body = fuse_stmts(&prog.body);
    out
}

fn fuse_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for s in stmts {
        let s = match s {
            Stmt::Do(d) => {
                let mut d2 = d.clone();
                d2.body = fuse_stmts(&d.body);
                Stmt::Do(d2)
            }
            Stmt::If(i) => {
                let mut i2 = i.clone();
                i2.then_body = fuse_stmts(&i.then_body);
                i2.else_body = fuse_stmts(&i.else_body);
                Stmt::If(i2)
            }
            other => other.clone(),
        };
        if let (Some(Stmt::Do(prev)), Stmt::Do(cur)) = (out.last(), &s) {
            if prev.lo == cur.lo
                && prev.hi == cur.hi
                && prev.step == cur.step
                && arrays_disjoint(prev, cur)
            {
                // Fuse: rename the second loop's variable to the first's.
                let renamed = rename_var(&cur.body, &cur.var, &prev.var);
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

fn touched_arrays(body: &[Stmt], acc: &mut Vec<Name>) {
    for s in body {
        match s {
            Stmt::Assign(a) => {
                acc.push(a.lhs.array.clone());
                a.rhs.for_each_ref(&mut |r, _| acc.push(r.array.clone()));
            }
            Stmt::Do(d) => touched_arrays(&d.body, acc),
            Stmt::If(i) => {
                i.cond.for_each_ref(&mut |r, _| acc.push(r.array.clone()));
                touched_arrays(&i.then_body, acc);
                touched_arrays(&i.else_body, acc);
            }
        }
    }
}

fn arrays_disjoint(a: &DoLoop, b: &DoLoop) -> bool {
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    touched_arrays(&a.body, &mut ta);
    touched_arrays(&b.body, &mut tb);
    ta.iter().all(|x| !tb.contains(x))
}

fn rename_var(body: &[Stmt], from: &str, to: &str) -> Vec<Stmt> {
    fn rex(e: &Expr, from: &str, to: &str) -> Expr {
        match e {
            Expr::Int(_) | Expr::Num(_) => e.clone(),
            Expr::Neg(a) => Expr::Neg(Box::new(rex(a, from, to))),
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(rex(a, from, to)), Box::new(rex(b, from, to)))
            }
            Expr::Sum(r) => Expr::Sum(rref(r, from, to)),
            Expr::Ref(r) => {
                if r.subs.is_empty() && r.array == from {
                    Expr::name(to)
                } else {
                    Expr::Ref(rref(r, from, to))
                }
            }
        }
    }
    fn rsub(s: &Subscript, from: &str, to: &str) -> Subscript {
        match s {
            Subscript::Index(e) => Subscript::Index(rex(e, from, to)),
            Subscript::Range { lo, hi, step } => Subscript::Range {
                lo: lo.as_ref().map(|e| rex(e, from, to)),
                hi: hi.as_ref().map(|e| rex(e, from, to)),
                step: *step,
            },
        }
    }
    fn rref(r: &ArrayRef, from: &str, to: &str) -> ArrayRef {
        ArrayRef {
            array: r.array.clone(),
            subs: r.subs.iter().map(|s| rsub(s, from, to)).collect(),
        }
    }
    body.iter()
        .map(|s| match s {
            Stmt::Assign(a) => Stmt::Assign(Assign {
                lhs: rref(&a.lhs, from, to),
                rhs: rex(&a.rhs, from, to).into(),
                line: a.line,
            }),
            Stmt::Do(d) if d.var != from => Stmt::Do(DoLoop {
                var: d.var.clone(),
                lo: rex(&d.lo, from, to),
                hi: rex(&d.hi, from, to),
                step: d.step,
                body: rename_var(&d.body, from, to),
            }),
            Stmt::Do(d) => Stmt::Do(d.clone()), // inner shadowing: stop
            Stmt::If(i) => Stmt::If(IfStmt {
                cond: rex(&i.cond, from, to).into(),
                then_body: rename_var(&i.then_body, from, to),
                else_body: rename_var(&i.else_body, from, to),
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
                        assert!(matches!(a.lhs.subs[0], Subscript::Index(_)));
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
