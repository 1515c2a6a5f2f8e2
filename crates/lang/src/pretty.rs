//! Pretty printer: renders an AST back to parseable source text.
//!
//! The printer is exercised by round-trip tests (`parse(pretty(p)) == p`
//! modulo line numbers).

use std::fmt::Write as _;

use crate::ast::*;

/// Renders `prog` as source text that [`crate::parse_program`] accepts.
pub fn pretty(prog: &Program) -> String {
    let arena = &*prog.arena;
    let mut out = String::new();
    let _ = writeln!(out, "program {}", prog.name);
    if !prog.params.is_empty() {
        let params: Vec<&str> = prog
            .params
            .iter()
            .map(|&p| arena.name(p).as_str())
            .collect();
        let _ = writeln!(out, "param {}", params.join(", "));
    }
    for a in &prog.arrays {
        let mut line = format!("real {}", arena.name(a.name));
        if !a.dims.is_empty() {
            line.push('(');
            for (i, d) in a.dims.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                if arena.expr(d.lo) == ExprNode::Int(1) {
                    line.push_str(&expr(arena, d.hi));
                } else {
                    let _ = write!(line, "{}:{}", expr(arena, d.lo), expr(arena, d.hi));
                }
            }
            line.push(')');
        }
        if !a.dist.is_empty() {
            line.push_str(" distribute (");
            for (i, d) in a.dist.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                line.push_str(match d {
                    Dist::Block => "block",
                    Dist::Cyclic => "cyclic",
                    Dist::Collapsed => "*",
                });
            }
            line.push(')');
        }
        if !a.align.is_empty() && a.align.iter().any(|&o| o != 0) {
            line.push_str(" align (");
            for (i, o) in a.align.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{o}");
            }
            line.push(')');
        }
        let _ = writeln!(out, "{line}");
    }
    stmts(&mut out, arena, &prog.body, 0);
    out.push_str("end\n");
    out
}

fn stmts(out: &mut String, arena: &Arena, body: &[Stmt], indent: usize) {
    let pad = "  ".repeat(indent);
    for s in body {
        match s {
            Stmt::Assign(a) => {
                let _ = writeln!(out, "{pad}{} = {}", aref(arena, a.lhs), expr(arena, a.rhs));
            }
            Stmt::Do(d) => {
                let (var, lo, hi) = (arena.name(d.var), expr(arena, d.lo), expr(arena, d.hi));
                if d.step == 1 {
                    let _ = writeln!(out, "{pad}do {var} = {lo}, {hi}");
                } else {
                    let _ = writeln!(out, "{pad}do {var} = {lo}, {hi}, {}", d.step);
                }
                stmts(out, arena, &d.body, indent + 1);
                let _ = writeln!(out, "{pad}enddo");
            }
            Stmt::If(i) => {
                let _ = writeln!(out, "{pad}if ({}) then", expr(arena, i.cond));
                stmts(out, arena, &i.then_body, indent + 1);
                if !i.else_body.is_empty() {
                    let _ = writeln!(out, "{pad}else");
                    stmts(out, arena, &i.else_body, indent + 1);
                }
                let _ = writeln!(out, "{pad}endif");
            }
        }
    }
}

/// Renders array reference `r` of `arena`.
pub fn aref(arena: &Arena, r: RefId) -> String {
    let r = arena.aref(r);
    let name = arena.name(r.array);
    if arena.subs(r).is_empty() {
        return name.to_string();
    }
    let subs: Vec<String> = arena.subs(r).iter().map(|s| sub(arena, s)).collect();
    format!("{name}({})", subs.join(", "))
}

fn sub(arena: &Arena, s: &Subscript) -> String {
    match *s {
        Subscript::Index(e) => expr(arena, e),
        Subscript::Range { lo, hi, step } => {
            let mut t = String::new();
            if let Some(e) = lo {
                t.push_str(&expr(arena, e));
            }
            t.push(':');
            if let Some(e) = hi {
                t.push_str(&expr(arena, e));
            }
            if step != 1 {
                let _ = write!(t, ":{step}");
            }
            t
        }
    }
}

/// Renders expression `e` of `arena` with full parenthesization of nested
/// operations.
pub fn expr(arena: &Arena, e: ExprId) -> String {
    match arena.expr(e) {
        ExprNode::Int(v) => v.to_string(),
        ExprNode::Num(v) => {
            // Always keep a decimal point so the value re-lexes as a float.
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        ExprNode::Ref(r) => aref(arena, r),
        ExprNode::Sum(r) => format!("sum({})", aref(arena, r)),
        ExprNode::Neg(a) => format!("(-{})", expr(arena, a)),
        ExprNode::Bin(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Lt => "<",
                BinOp::Gt => ">",
                BinOp::Le => "<=",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
                BinOp::Ne => "/=",
            };
            format!("({} {} {})", expr(arena, a), o, expr(arena, b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    /// Strips line numbers so round-trip comparison is structural.
    fn strip_lines(p: &mut Program) {
        fn walk(stmts: &mut [Stmt]) {
            for s in stmts {
                match s {
                    Stmt::Assign(a) => a.line = 0,
                    Stmt::Do(d) => walk(&mut d.body),
                    Stmt::If(i) => {
                        walk(&mut i.then_body);
                        walk(&mut i.else_body);
                    }
                }
            }
        }
        walk(&mut p.body);
    }

    #[test]
    fn round_trip_structured_program() {
        let src = "
program rt
param n, m
real a(n,m), b(n,m) distribute (block, *)
real g(0:n+1, m) distribute (block, block)
real s
do i = 2, n
  if (s > 0) then
    a(i, 1:m) = b(i-1, 1:m) * 2.0
  else
    a(i, 1:m) = 0
  endif
  s = sum(g(i, :))
enddo
b(:, 1:m:2) = a(:, 1:m:2)
end
";
        let mut p1 = parse_program(src).unwrap();
        let text = pretty(&p1);
        let mut p2 = parse_program(&text).unwrap();
        strip_lines(&mut p1);
        strip_lines(&mut p2);
        assert_eq!(p1, p2, "pretty-printed text:\n{text}");
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        let mut arena = Arena::default();
        for (v, text) in [(3.0, "3.0"), (0.5, "0.5")] {
            let e = arena.push(ExprNode::Num(v));
            assert_eq!(expr(&arena, e), text);
        }
    }
}
