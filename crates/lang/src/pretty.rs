//! Pretty printer: renders an AST back to parseable source text.
//!
//! The printer is exercised by round-trip tests (`parse(pretty(p)) == p`
//! modulo line numbers).

use std::fmt::Write as _;

use crate::ast::*;

/// Renders `prog` as source text that [`crate::parse_program`] accepts.
pub fn pretty(prog: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", prog.name);
    if !prog.params.is_empty() {
        let _ = writeln!(out, "param {}", prog.params.join(", "));
    }
    for a in &prog.arrays {
        let mut line = format!("real {}", a.name);
        if !a.dims.is_empty() {
            line.push('(');
            for (i, d) in a.dims.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                if d.lo == Expr::Int(1) {
                    line.push_str(&expr(&d.hi));
                } else {
                    let _ = write!(line, "{}:{}", expr(&d.lo), expr(&d.hi));
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
    stmts(&mut out, &prog.body, 0);
    out.push_str("end\n");
    out
}

fn stmts(out: &mut String, body: &[Stmt], indent: usize) {
    let pad = "  ".repeat(indent);
    for s in body {
        match s {
            Stmt::Assign(a) => {
                let _ = writeln!(out, "{pad}{} = {}", aref(&a.lhs), expr(&a.rhs));
            }
            Stmt::Do(d) => {
                if d.step == 1 {
                    let _ = writeln!(out, "{pad}do {} = {}, {}", d.var, expr(&d.lo), expr(&d.hi));
                } else {
                    let _ = writeln!(
                        out,
                        "{pad}do {} = {}, {}, {}",
                        d.var,
                        expr(&d.lo),
                        expr(&d.hi),
                        d.step
                    );
                }
                stmts(out, &d.body, indent + 1);
                let _ = writeln!(out, "{pad}enddo");
            }
            Stmt::If(i) => {
                let _ = writeln!(out, "{pad}if ({}) then", expr(&i.cond));
                stmts(out, &i.then_body, indent + 1);
                if !i.else_body.is_empty() {
                    let _ = writeln!(out, "{pad}else");
                    stmts(out, &i.else_body, indent + 1);
                }
                let _ = writeln!(out, "{pad}endif");
            }
        }
    }
}

/// Renders an array reference.
pub fn aref(r: &ArrayRef) -> String {
    if r.subs.is_empty() {
        return r.array.to_string();
    }
    let subs: Vec<String> = r.subs.iter().map(sub).collect();
    format!("{}({})", r.array, subs.join(", "))
}

fn sub(s: &Subscript) -> String {
    match s {
        Subscript::Index(e) => expr(e),
        Subscript::Range { lo, hi, step } => {
            let mut t = String::new();
            if let Some(e) = lo {
                t.push_str(&expr(e));
            }
            t.push(':');
            if let Some(e) = hi {
                t.push_str(&expr(e));
            }
            if *step != 1 {
                let _ = write!(t, ":{step}");
            }
            t
        }
    }
}

/// Renders an expression with full parenthesization of nested operations.
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Num(v) => {
            // Always keep a decimal point so the value re-lexes as a float.
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Ref(r) => aref(r),
        Expr::Sum(r) => format!("sum({})", aref(r)),
        Expr::Neg(a) => format!("(-{})", expr(a)),
        Expr::Bin(op, a, b) => {
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
            format!("({} {} {})", expr(a), o, expr(b))
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
        assert_eq!(expr(&Expr::Num(3.0)), "3.0");
        assert_eq!(expr(&Expr::Num(0.5)), "0.5");
    }
}
