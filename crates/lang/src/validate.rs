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
//!
//! A reference is resolved by [`Name`] identity first: the parser hands out
//! one shared `Name` per identifier, so in a parsed tree a declared name is
//! found by comparing pointers, and only a name no pointer matches — an
//! undeclared one, or any name of a hand-built tree — is compared as text.

use std::collections::HashSet;

use crate::ast::*;
use crate::error::LangError;

/// Validates a program. See the module docs for the list of checks.
///
/// A violation in an assignment carries the assignment's line; one in a
/// loop bound or branch condition has no line to carry (`DoLoop` and
/// `IfStmt` record none), so it is reported without one — see
/// [`validate_at`].
///
/// # Errors
///
/// Returns [`LangError`] describing the first violation found.
pub fn validate(prog: &Program) -> Result<(), LangError> {
    validate_at(prog, &[])
}

/// [`validate`], with the source line of each `do` / `if` statement of
/// `prog` in pre-order ([`crate::Parser::block_lines`]): a violation in the
/// k-th one's bounds or condition is reported at `block_lines[k]`, or
/// without a line past the end of the table.
///
/// # Errors
///
/// Returns [`LangError`] describing the first violation found.
pub fn validate_at(prog: &Program, block_lines: &[u32]) -> Result<(), LangError> {
    let mut v = Validator {
        prog,
        loop_vars: Vec::new(),
        block_lines: block_lines.iter(),
    };
    v.check_decls()?;
    v.check_stmts(&prog.body)
}

struct Validator<'a> {
    prog: &'a Program,
    loop_vars: Vec<&'a Name>,
    /// Lines of the `do` / `if` statements not yet visited.
    block_lines: std::slice::Iter<'a, u32>,
}

/// Where `name` is among `names`: the very same allocation if there is
/// one, else the first with equal text.
fn find<'n>(names: impl Iterator<Item = &'n Name> + Clone, name: &Name) -> Option<usize> {
    names
        .clone()
        .position(|n| std::ptr::eq(n.as_str(), name.as_str()))
        .or_else(|| names.clone().position(|n| n == name))
}

impl<'a> Validator<'a> {
    fn check_decls(&self) -> Result<(), LangError> {
        let mut seen = HashSet::with_capacity(self.prog.params.len() + self.prog.arrays.len());
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
                if r.subs.is_empty() && find(self.prog.params.iter(), &r.array).is_some() {
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

    fn check_stmts(&mut self, stmts: &'a [Stmt]) -> Result<(), LangError> {
        for s in stmts {
            match s {
                Stmt::Assign(a) => self.check_assign(a)?,
                Stmt::Do(d) => {
                    let line = self.block_lines.next().copied().unwrap_or(0);
                    if self.is_declared(&d.var) {
                        return Err(LangError::general(format!(
                            "loop variable `{}` shadows a declared name",
                            d.var
                        )));
                    }
                    self.check_expr(&d.lo, line)?;
                    self.check_expr(&d.hi, line)?;
                    self.loop_vars.push(&d.var);
                    self.check_stmts(&d.body)?;
                    self.loop_vars.pop();
                }
                Stmt::If(i) => {
                    let line = self.block_lines.next().copied().unwrap_or(0);
                    self.check_expr(&i.cond, line)?;
                    self.check_stmts(&i.then_body)?;
                    self.check_stmts(&i.else_body)?;
                }
            }
        }
        Ok(())
    }

    fn check_assign(&self, a: &Assign) -> Result<(), LangError> {
        // LHS must be an array or scalar.
        let decl = self.array(&a.lhs.array).ok_or_else(|| {
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

    fn array(&self, name: &Name) -> Option<&'a ArrayDecl> {
        let arrays = &self.prog.arrays;
        find(arrays.iter().map(|a| &a.name), name).map(|i| &arrays[i])
    }

    fn is_declared(&self, name: &Name) -> bool {
        let loop_vars = self.loop_vars.iter().copied();
        let arrays = self.prog.arrays.iter().map(|a| &a.name);
        find(loop_vars.chain(&self.prog.params).chain(arrays), name).is_some()
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
                let decl = self.array(&r.array).ok_or_else(|| {
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
                    let decl = self.array(&r.array).ok_or_else(|| {
                        LangError::at(line, format!("reference to undeclared array `{}`", r.array))
                    })?;
                    self.check_ref_against(decl, r, line)
                }
            }
        }
    }
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

    /// A bad loop bound or branch condition is reported at the `do` / `if`
    /// itself — not at the enclosing block's first assignment, not without
    /// a line — from both entry points.
    #[test]
    fn loop_bounds_and_conditions_carry_their_own_line() {
        use crate::{parse_program_diagnostics, LangError};
        let bound = "program t\nparam n\nreal a(n) distribute (block)\na(1) = 0\n\n\
                     do i = 1, m\n  a(i) = 1\nenddo\nend\n";
        let cond = "program t\nparam n\nreal a(n) distribute (block)\na(1) = 0\n\
                    do i = 1, n\n  if (q > 0) then\n    a(i) = 1\n  endif\nenddo\nend\n";
        for (src, line, name) in [(bound, 6, "m"), (cond, 6, "q")] {
            let want = LangError::at(line, format!("reference to undeclared name `{name}`"));
            assert_eq!(parse_program(src), Err(want.clone()), "on:\n{src}");
            assert_eq!(
                parse_program_diagnostics(src),
                Err(vec![want]),
                "on:\n{src}"
            );
        }
    }

    /// A hand-built or transformed tree has no side table: the same
    /// violations are reported without a line, by the same validator.
    #[test]
    fn without_block_lines_a_bad_bound_has_no_line() {
        let src = "program t\nparam n\nreal a(n) distribute (block)\na(1) = 0\n\
                   do i = 1, m\n  a(i) = 1\nenddo\nend\n";
        let mut parser = crate::Parser::new(src).unwrap();
        let prog = parser.parse_program().unwrap();
        assert_eq!(parser.block_lines(), [5]);
        assert_eq!(super::validate(&prog).unwrap_err().line, 0);
        assert_eq!(
            super::validate_at(&prog, parser.block_lines())
                .unwrap_err()
                .line,
            5
        );
    }

    #[test]
    fn accepts_loop_vars_in_subscripts() {
        assert!(parse_program(
            "program t\nparam n\nreal a(n,n) distribute (block,block)\ndo i = 1, n\na(i, 1:n) = i\nenddo\nend",
        )
        .is_ok());
    }
}
