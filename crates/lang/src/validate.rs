//! Semantic validation of a parsed program.
//!
//! Checks performed:
//!
//! * every referenced name is declared (array, scalar, parameter, or an
//!   in-scope loop variable),
//! * subscripted references match the declared rank,
//! * assignment targets are arrays or scalars (not parameters or loop
//!   variables),
//! * no name is declared twice, and loop variables do not shadow arrays or
//!   parameters,
//! * `sum(...)` takes an array argument.

use std::collections::HashSet;

use crate::ast::*;
use crate::error::LangError;

/// Validates a program. See the module docs for the list of checks.
///
/// # Errors
///
/// Returns [`LangError`] describing the first violation found.
pub fn validate(prog: &Program) -> Result<(), LangError> {
    let mut v = Validator {
        prog,
        loop_vars: Vec::new(),
    };
    v.check_decls()?;
    v.check_stmts(&prog.body)
}

struct Validator<'a> {
    prog: &'a Program,
    loop_vars: Vec<Name>,
}

impl<'a> Validator<'a> {
    fn check_decls(&self) -> Result<(), LangError> {
        let mut seen = HashSet::new();
        for p in &self.prog.params {
            if !seen.insert(p.as_str()) {
                return Err(LangError::general(format!(
                    "duplicate declaration of `{p}`"
                )));
            }
        }
        for a in &self.prog.arrays {
            if !seen.insert(a.name.as_str()) {
                return Err(LangError::general(format!(
                    "duplicate declaration of `{}`",
                    a.name
                )));
            }
            if !a.dist.is_empty() && a.dist.len() != a.dims.len() {
                return Err(LangError::general(format!(
                    "array `{}`: distribute clause arity mismatch",
                    a.name
                )));
            }
            for d in &a.dims {
                self.check_size_expr(&d.lo)?;
                self.check_size_expr(&d.hi)?;
            }
        }
        Ok(())
    }

    /// Bound expressions in declarations may reference only parameters and
    /// integer literals.
    fn check_size_expr(&self, e: &Expr) -> Result<(), LangError> {
        match e {
            Expr::Int(_) => Ok(()),
            Expr::Num(_) => Err(LangError::general(
                "array bounds must be integer expressions",
            )),
            Expr::Ref(r) => {
                if r.subs.is_empty() && self.prog.params.contains(&r.array) {
                    Ok(())
                } else {
                    Err(LangError::general(format!(
                        "array bound references `{}`, which is not a parameter",
                        r.array
                    )))
                }
            }
            Expr::Bin(_, a, b) => {
                self.check_size_expr(a)?;
                self.check_size_expr(b)
            }
            Expr::Neg(a) => self.check_size_expr(a),
            Expr::Sum(_) => Err(LangError::general("array bounds cannot contain sum()")),
        }
    }

    fn check_stmts(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        for s in stmts {
            match s {
                Stmt::Assign(a) => self.check_assign(a)?,
                Stmt::Do(d) => {
                    if self.is_declared(&d.var) {
                        return Err(LangError::general(format!(
                            "loop variable `{}` shadows a declared name",
                            d.var
                        )));
                    }
                    self.check_expr(&d.lo, a_line(stmts))?;
                    self.check_expr(&d.hi, a_line(stmts))?;
                    self.loop_vars.push(d.var.clone());
                    self.check_stmts(&d.body)?;
                    self.loop_vars.pop();
                }
                Stmt::If(i) => {
                    self.check_expr(&i.cond, 0)?;
                    self.check_stmts(&i.then_body)?;
                    self.check_stmts(&i.else_body)?;
                }
            }
        }
        Ok(())
    }

    fn check_assign(&self, a: &Assign) -> Result<(), LangError> {
        // LHS must be an array or scalar.
        let decl = self.prog.array(&a.lhs.array).ok_or_else(|| {
            LangError::at(
                a.line,
                format!("assignment to undeclared name `{}`", a.lhs.array),
            )
        })?;
        self.check_ref_against(decl, &a.lhs, a.line)?;
        self.check_expr(&a.rhs, a.line)
    }

    fn check_ref_against(
        &self,
        decl: &ArrayDecl,
        r: &ArrayRef,
        line: u32,
    ) -> Result<(), LangError> {
        if !r.subs.is_empty() && r.subs.len() != decl.rank() {
            return Err(LangError::at(
                line,
                format!(
                    "`{}` has rank {} but is referenced with {} subscripts",
                    r.array,
                    decl.rank(),
                    r.subs.len()
                ),
            ));
        }
        for s in &r.subs {
            match s {
                Subscript::Index(e) => self.check_expr(e, line)?,
                Subscript::Range { lo, hi, .. } => {
                    if let Some(e) = lo {
                        self.check_expr(e, line)?;
                    }
                    if let Some(e) = hi {
                        self.check_expr(e, line)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn is_declared(&self, name: &str) -> bool {
        self.prog.params.iter().any(|p| p == name)
            || self.prog.array(name).is_some()
            || self.loop_vars.iter().any(|v| v == name)
    }

    fn check_expr(&self, e: &Expr, line: u32) -> Result<(), LangError> {
        match e {
            Expr::Int(_) | Expr::Num(_) => Ok(()),
            Expr::Neg(a) => self.check_expr(a, line),
            Expr::Bin(_, a, b) => {
                self.check_expr(a, line)?;
                self.check_expr(b, line)
            }
            Expr::Sum(r) => {
                let decl = self.prog.array(&r.array).ok_or_else(|| {
                    LangError::at(line, format!("sum() of undeclared array `{}`", r.array))
                })?;
                if decl.rank() == 0 {
                    return Err(LangError::at(
                        line,
                        format!("sum() argument `{}` is a scalar", r.array),
                    ));
                }
                self.check_ref_against(decl, r, line)
            }
            Expr::Ref(r) => {
                if r.subs.is_empty() {
                    if self.is_declared(&r.array) {
                        Ok(())
                    } else {
                        Err(LangError::at(
                            line,
                            format!("reference to undeclared name `{}`", r.array),
                        ))
                    }
                } else {
                    let decl = self.prog.array(&r.array).ok_or_else(|| {
                        LangError::at(line, format!("reference to undeclared array `{}`", r.array))
                    })?;
                    self.check_ref_against(decl, r, line)
                }
            }
        }
    }
}

/// Best-effort line number for loop-bound diagnostics.
fn a_line(stmts: &[Stmt]) -> u32 {
    stmts
        .iter()
        .find_map(|s| match s {
            Stmt::Assign(a) => Some(a.line),
            _ => None,
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use crate::parse_program;

    #[test]
    fn rejects_undeclared_reference() {
        let e = parse_program("program t\nparam n\nreal a(n) distribute (block)\na(1:n) = q\nend")
            .unwrap_err();
        assert!(e.message.contains("undeclared"));
    }

    #[test]
    fn rejects_rank_mismatch() {
        let e = parse_program(
            "program t\nparam n\nreal a(n,n) distribute (block,block)\na(1) = 0\nend",
        )
        .unwrap_err();
        assert!(e.message.contains("rank"));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let e = parse_program("program t\nparam n, n\nend").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn rejects_loop_var_shadowing() {
        let e = parse_program(
            "program t\nparam n\nreal i(n) distribute (block)\ndo i = 1, n\nenddo\nend",
        )
        .unwrap_err();
        assert!(e.message.contains("shadows"));
    }

    #[test]
    fn rejects_sum_of_scalar() {
        let e = parse_program("program t\nreal s, q\ns = sum(q)\nend").unwrap_err();
        assert!(e.message.contains("scalar"));
    }

    #[test]
    fn rejects_nonparam_array_bound() {
        let e = parse_program("program t\nreal s\nreal a(s)\nend").unwrap_err();
        assert!(e.message.contains("parameter"));
    }

    #[test]
    fn accepts_loop_vars_in_subscripts() {
        assert!(parse_program(
            "program t\nparam n\nreal a(n,n) distribute (block,block)\ndo i = 1, n\na(i, 1:n) = i\nenddo\nend",
        )
        .is_ok());
    }
}
