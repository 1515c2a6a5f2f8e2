//! Recursive-descent parser for the mini-HPF language.

use std::collections::BTreeSet;

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// A recursive-descent parser over the token stream of one source file.
///
/// Most users should call [`crate::parse_program`] instead, which also runs
/// semantic validation.
/// Maximum grammar nesting depth (parenthesized/unary expression nesting
/// and `do`/`if` block nesting combined). Recursive descent burns one call
/// stack frame per level, so unbounded input would overflow the stack;
/// past this limit the parser reports a spanned diagnostic instead.
pub const MAX_NESTING: usize = 256;

pub struct Parser<'s> {
    toks: Vec<Token<'s>>,
    pos: usize,
    depth: usize,
    /// Every identifier handed out so far: an occurrence of a name seen
    /// before clones the [`Name`] made for the first.
    names: BTreeSet<Name>,
}

impl<'s> Parser<'s> {
    /// Lexes `src` and prepares a parser borrowing token text from it.
    ///
    /// # Errors
    ///
    /// Returns [`LangError`] if lexing fails.
    pub fn new(src: &'s str) -> Result<Self, LangError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
            names: BTreeSet::new(),
        })
    }

    /// Number of tokens produced by the lexer (including the end marker).
    pub fn token_count(&self) -> usize {
        self.toks.len()
    }

    fn peek(&self) -> &TokenKind<'s> {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind<'s> {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    /// Steps past the current token (the end marker is never passed).
    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// [`bump`](Self::bump) for the few callers that consume the token's
    /// payload.
    fn take(&mut self) -> TokenKind<'s> {
        let k = self.peek().clone();
        self.bump();
        k
    }

    fn eat(&mut self, k: &TokenKind<'_>) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind<'_>) -> Result<(), LangError> {
        if self.peek() == &k {
            self.bump();
            Ok(())
        } else {
            Err(LangError::at(
                self.line(),
                format!("expected {k}, found {}", self.peek()),
            ))
        }
    }

    /// Consumes the current token, interning its text if it is an
    /// identifier. An error carries the line of the offending token, which
    /// is read before stepping past it (the token may end its line).
    fn expect_ident(&mut self) -> Result<Name, LangError> {
        let r = match &self.toks[self.pos].kind {
            TokenKind::Ident(text) => match self.names.get(&**text) {
                Some(name) => Ok(name.clone()),
                None => {
                    let name = Name::from(&**text);
                    self.names.insert(name.clone());
                    Ok(name)
                }
            },
            other => Err(LangError::at(
                self.line(),
                format!("expected identifier, found {other}"),
            )),
        };
        self.bump();
        r
    }

    fn skip_newlines(&mut self) {
        while self.eat(&TokenKind::Newline) {}
    }

    /// Enters one grammar nesting level; errors out (with the offending
    /// line) instead of risking a call-stack overflow past [`MAX_NESTING`].
    /// On success the caller owes one `self.depth -= 1` after the guarded
    /// production returns (error or not) — the recovering parser keeps
    /// parsing after errors, so a leaked level would poison subsequent
    /// statements. On failure the depth is left untouched.
    fn enter(&mut self, what: &str) -> Result<(), LangError> {
        if self.depth >= MAX_NESTING {
            return Err(LangError::at(
                self.line(),
                format!("{what} nesting exceeds the supported depth of {MAX_NESTING}"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn end_of_stmt(&mut self) -> Result<(), LangError> {
        if self.peek() == &TokenKind::Eof || self.eat(&TokenKind::Newline) {
            Ok(())
        } else {
            Err(LangError::at(
                self.line(),
                format!("expected end of statement, found {}", self.peek()),
            ))
        }
    }

    /// Parses a complete program, failing on the first syntax error:
    /// the first diagnostic of [`Self::parse_program_recovering`], which
    /// holds the only copy of the program-level grammar.
    ///
    /// # Errors
    ///
    /// Returns [`LangError`] on the first syntax error.
    pub fn parse_program(&mut self) -> Result<Program, LangError> {
        let (prog, errs) = self.parse_program_recovering();
        match errs.into_iter().next() {
            None => Ok(prog),
            Some(first) => Err(first),
        }
    }

    /// Parses a complete program while recovering from statement-level
    /// errors: after each failed declaration or statement the parser
    /// resynchronizes to the next newline and continues, so one pass
    /// collects every independent syntax error. Returns the (possibly
    /// partial) program and all diagnostics; an empty vector means a clean
    /// parse.
    ///
    /// Error recovery is best-effort: an error inside a `do`/`if` body
    /// abandons the enclosing construct, which may cascade into an
    /// "unmatched `enddo`" follow-up. Diagnostics are capped at
    /// [`Self::MAX_ERRORS`].
    pub fn parse_program_recovering(&mut self) -> (Program, Vec<LangError>) {
        let mut errs: Vec<LangError> = Vec::new();
        let mut prog = Program::default();

        self.skip_newlines();
        match (|p: &mut Self| -> Result<Name, LangError> {
            p.expect(TokenKind::Program)?;
            let name = p.expect_ident()?;
            p.end_of_stmt()?;
            Ok(name)
        })(self)
        {
            Ok(name) => prog.name = name,
            Err(e) => {
                errs.push(e);
                self.sync_to_newline();
            }
        }
        self.skip_newlines();

        loop {
            let before = self.pos;
            match self.peek() {
                TokenKind::Param => {
                    self.bump();
                    let params = &mut prog.params;
                    let r = (|p: &mut Self| -> Result<(), LangError> {
                        loop {
                            params.push(p.expect_ident()?);
                            if !p.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        p.end_of_stmt()
                    })(self);
                    if let Err(e) = r {
                        errs.push(e);
                        self.sync_to_newline();
                    }
                    self.skip_newlines();
                }
                TokenKind::Real => {
                    self.bump();
                    let r = (|p: &mut Self| -> Result<Vec<ArrayDecl>, LangError> {
                        let decls = p.array_decl_group()?;
                        p.end_of_stmt()?;
                        Ok(decls)
                    })(self);
                    match r {
                        Ok(decls) => prog.arrays.extend(decls),
                        Err(e) => {
                            errs.push(e);
                            self.sync_to_newline();
                        }
                    }
                    self.skip_newlines();
                }
                _ => break,
            }
            if self.pos == before && self.peek() == &TokenKind::Eof {
                break;
            }
            if errs.len() >= Self::MAX_ERRORS {
                return (prog, errs);
            }
        }

        loop {
            self.skip_newlines();
            let before = self.pos;
            let r = match self.peek() {
                TokenKind::End | TokenKind::Eof => break,
                TokenKind::EndDo | TokenKind::EndIf | TokenKind::Else => {
                    errs.push(LangError::at(
                        self.line(),
                        format!("unmatched {}", self.peek()),
                    ));
                    self.bump();
                    self.sync_to_newline();
                    if errs.len() >= Self::MAX_ERRORS {
                        return (prog, errs);
                    }
                    continue;
                }
                TokenKind::Do => self.do_loop(),
                TokenKind::If => self.if_stmt(),
                _ => self.assign(),
            };
            match r {
                Ok(s) => prog.body.push(s),
                Err(e) => {
                    errs.push(e);
                    self.sync_to_newline();
                    if errs.len() >= Self::MAX_ERRORS {
                        return (prog, errs);
                    }
                }
            }
            // Guarantee forward progress even on a zero-consumption error.
            if self.pos == before {
                if self.peek() == &TokenKind::Eof {
                    break;
                }
                self.bump();
            }
        }

        if let Err(e) = self.expect(TokenKind::End) {
            errs.push(e);
        } else {
            if let TokenKind::Ident(_) | TokenKind::Program = self.peek() {
                self.bump();
            }
            self.skip_newlines();
            if self.peek() != &TokenKind::Eof {
                errs.push(LangError::at(
                    self.line(),
                    format!("unexpected {} after `end`", self.peek()),
                ));
            }
        }
        (prog, errs)
    }

    /// Hard cap on diagnostics collected by
    /// [`Self::parse_program_recovering`].
    pub const MAX_ERRORS: usize = 20;

    /// Skips to just past the next newline (or stops at end of input).
    fn sync_to_newline(&mut self) {
        while !matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
            self.bump();
        }
        self.eat(&TokenKind::Newline);
    }

    /// `adecl ("," adecl)* ["distribute" "(" dist,... ")"]`
    fn array_decl_group(&mut self) -> Result<Vec<ArrayDecl>, LangError> {
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mut dims = Vec::new();
            if self.eat(&TokenKind::LParen) {
                loop {
                    dims.push(self.decl_dim()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            decls.push(ArrayDecl {
                name,
                dims,
                dist: Vec::new(),
                align: Vec::new(),
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        if self.eat(&TokenKind::Distribute) {
            self.expect(TokenKind::LParen)?;
            let mut dist = Vec::new();
            loop {
                dist.push(self.dist_format()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            for d in &mut decls {
                if d.dims.len() != dist.len() {
                    return Err(LangError::at(
                        self.line(),
                        format!(
                            "array `{}` has rank {} but distribute clause has {} entries",
                            d.name,
                            d.dims.len(),
                            dist.len()
                        ),
                    ));
                }
                d.dist = dist.clone();
            }
        }
        if self.eat(&TokenKind::Align) {
            self.expect(TokenKind::LParen)?;
            let mut align = Vec::new();
            loop {
                align.push(self.const_int()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            for d in &mut decls {
                if d.dims.len() != align.len() {
                    return Err(LangError::at(
                        self.line(),
                        format!(
                            "array `{}` has rank {} but align clause has {} entries",
                            d.name,
                            d.dims.len(),
                            align.len()
                        ),
                    ));
                }
                d.align = align.clone();
            }
        }
        Ok(decls)
    }

    fn decl_dim(&mut self) -> Result<DeclDim, LangError> {
        let first = self.expr()?;
        if self.eat(&TokenKind::Colon) {
            let hi = self.expr()?;
            Ok(DeclDim { lo: first, hi })
        } else {
            Ok(DeclDim::extent(first))
        }
    }

    fn dist_format(&mut self) -> Result<Dist, LangError> {
        let line = self.line();
        match self.take() {
            TokenKind::Star => Ok(Dist::Collapsed),
            TokenKind::Ident(s) if s == "block" => Ok(Dist::Block),
            TokenKind::Ident(s) if s == "cyclic" => Ok(Dist::Cyclic),
            other => Err(LangError::at(
                line,
                format!("expected `block`, `cyclic`, or `*`, found {other}"),
            )),
        }
    }

    /// Parses statements until a block terminator (`end`, `enddo`, `endif`,
    /// `else`, or end of input) is seen (the terminator is not consumed).
    fn stmts(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.enter("block")?;
        let r = self.stmts_tail();
        self.depth -= 1;
        r
    }

    fn stmts_tail(&mut self) -> Result<Vec<Stmt>, LangError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                TokenKind::End
                | TokenKind::EndDo
                | TokenKind::EndIf
                | TokenKind::Else
                | TokenKind::Eof => break,
                TokenKind::Do => out.push(self.do_loop()?),
                TokenKind::If => out.push(self.if_stmt()?),
                _ => out.push(self.assign()?),
            }
        }
        Ok(out)
    }

    fn do_loop(&mut self) -> Result<Stmt, LangError> {
        self.expect(TokenKind::Do)?;
        let var = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let lo = self.expr()?;
        self.expect(TokenKind::Comma)?;
        let hi = self.expr()?;
        let mut step = 1i64;
        if self.eat(&TokenKind::Comma) {
            step = self.const_int()?;
            if step == 0 {
                return Err(LangError::at(self.line(), "loop step must be non-zero"));
            }
        }
        self.end_of_stmt()?;
        let body = self.stmts()?;
        self.expect_end_of("do", TokenKind::EndDo, TokenKind::Do)?;
        self.end_of_stmt()?;
        Ok(Stmt::Do(DoLoop {
            var,
            lo,
            hi,
            step,
            body,
        }))
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Then)?;
        self.end_of_stmt()?;
        let then_body = self.stmts()?;
        let mut else_body = Vec::new();
        if self.eat(&TokenKind::Else) {
            self.end_of_stmt()?;
            else_body = self.stmts()?;
        }
        self.expect_end_of("if", TokenKind::EndIf, TokenKind::If)?;
        self.end_of_stmt()?;
        Ok(Stmt::If(IfStmt {
            cond: cond.into(),
            then_body,
            else_body,
        }))
    }

    /// Accepts either the fused terminator (`enddo`) or split (`end do`).
    fn expect_end_of(
        &mut self,
        what: &str,
        fused: TokenKind<'_>,
        split_second: TokenKind<'_>,
    ) -> Result<(), LangError> {
        if self.eat(&fused) {
            return Ok(());
        }
        if self.peek() == &TokenKind::End && self.peek2() == &split_second {
            self.bump();
            self.bump();
            return Ok(());
        }
        Err(LangError::at(
            self.line(),
            format!("expected `end {what}`, found {}", self.peek()),
        ))
    }

    fn assign(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        let lhs = self.array_ref()?;
        self.expect(TokenKind::Assign)?;
        let rhs = self.expr()?;
        self.end_of_stmt()?;
        Ok(Stmt::Assign(Assign {
            lhs,
            rhs: rhs.into(),
            line,
        }))
    }

    fn array_ref(&mut self) -> Result<ArrayRef, LangError> {
        let array = self.expect_ident()?;
        let mut subs = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                subs.push(self.subscript()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(ArrayRef { array, subs })
    }

    /// `sub := [expr] [":" [expr] [":" const]]`
    fn subscript(&mut self) -> Result<Subscript, LangError> {
        let lo = if matches!(self.peek(), TokenKind::Colon) {
            None
        } else {
            Some(self.expr()?)
        };
        if !self.eat(&TokenKind::Colon) {
            return match lo {
                Some(e) => Ok(Subscript::Index(e)),
                None => Err(LangError::at(self.line(), "expected subscript")),
            };
        }
        let hi = if matches!(
            self.peek(),
            TokenKind::Comma | TokenKind::RParen | TokenKind::Colon
        ) {
            None
        } else {
            Some(self.expr()?)
        };
        let mut step = 1i64;
        if self.eat(&TokenKind::Colon) {
            step = self.const_int()?;
            if step == 0 {
                return Err(LangError::at(
                    self.line(),
                    "section stride must be non-zero",
                ));
            }
        }
        Ok(Subscript::Range { lo, hi, step })
    }

    fn const_int(&mut self) -> Result<i64, LangError> {
        let neg = self.eat(&TokenKind::Minus);
        let line = self.line();
        match self.take() {
            TokenKind::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(LangError::at(
                line,
                format!("expected integer constant, found {other}"),
            )),
        }
    }

    /// Full expression (comparisons allowed; the validator restricts where).
    fn expr(&mut self) -> Result<Expr, LangError> {
        self.enter("expression")?;
        let r = self.expr_tail();
        self.depth -= 1;
        r
    }

    fn expr_tail(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        // A chain of unary minuses recurses without passing through
        // `expr`, so it needs its own depth guard.
        if self.eat(&TokenKind::Minus) {
            self.enter("expression")?;
            let r = self.unary_expr().map(|e| Expr::Neg(Box::new(e)));
            self.depth -= 1;
            return r;
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, LangError> {
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Num(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Sum => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let r = self.array_ref()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Sum(r))
            }
            TokenKind::Ident(_) => Ok(Expr::Ref(self.array_ref()?)),
            ref other => Err(LangError::at(
                self.line(),
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_minimal_program() {
        let p = parse_program("program t\nend").unwrap();
        assert_eq!(p.name, "t");
        assert!(p.body.is_empty());
    }

    #[test]
    fn deep_parenthesized_expression_is_a_diagnostic_not_a_stack_overflow() {
        // 10_000 nesting levels would overflow the parser's call stack
        // without the depth guard.
        let src = format!(
            "program t\nparam n\nreal s\ns = {}1{}\nend",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        let err = parse_program(&src).unwrap_err();
        assert_eq!(err.line, 4, "{err:?}");
        assert!(err.message.contains("nesting exceeds"), "{err:?}");
    }

    #[test]
    fn deep_unary_chain_is_a_diagnostic_not_a_stack_overflow() {
        let src = format!(
            "program t\nparam n\nreal s\ns = {}1\nend",
            "-".repeat(10_000)
        );
        let err = parse_program(&src).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{err:?}");
    }

    #[test]
    fn deep_block_nesting_is_a_diagnostic_not_a_stack_overflow() {
        let mut src = String::from("program t\nparam n\nreal s\n");
        for i in 0..10_000 {
            src.push_str(&format!("do i{i} = 1, n\n"));
        }
        src.push_str("s = 1\n");
        for _ in 0..10_000 {
            src.push_str("enddo\n");
        }
        src.push_str("end\n");
        let err = parse_program(&src).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{err:?}");
    }

    #[test]
    fn nesting_within_the_limit_still_parses() {
        let src = format!(
            "program t\nparam n\nreal s\ns = {}1{}\nend",
            "(".repeat(100),
            ")".repeat(100)
        );
        parse_program(&src).unwrap();
    }

    #[test]
    fn parses_declarations() {
        let p = parse_program(
            "program t\nparam n, m\nreal a(n,m), b(n,m) distribute (block, *)\nreal s\nend",
        )
        .unwrap();
        assert_eq!(p.params, vec!["n", "m"]);
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.arrays[0].dist, vec![Dist::Block, Dist::Collapsed]);
        assert_eq!(p.arrays[1].dist, vec![Dist::Block, Dist::Collapsed]);
        assert_eq!(p.arrays[2].rank(), 0);
    }

    #[test]
    fn parses_bounds_declaration() {
        let p =
            parse_program("program t\nparam n\nreal g(0:n+1, 1:n) distribute (block, block)\nend")
                .unwrap();
        let g = p.array("g").unwrap();
        assert_eq!(g.dims[0].lo, Expr::Int(0));
    }

    #[test]
    fn parses_sections() {
        let p = parse_program(
            "program t\nparam n\nreal a(n), c(n) distribute (block)\nc(2:n) = a(1:n-1)\nend",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => {
                assert!(matches!(a.lhs.subs[0], Subscript::Range { .. }));
            }
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn parses_full_and_strided_sections() {
        let p = parse_program(
            "program t\nparam n\nreal b(n,n) distribute (block,block)\nb(:, 1:n:2) = 1\nend",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => {
                assert_eq!(a.lhs.subs[0], Subscript::full());
                assert!(
                    matches!(a.lhs.subs[1], Subscript::Range { step: 2, .. }),
                    "expected stride-2 section"
                );
            }
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn parses_nested_loops_and_if() {
        let src = "
program t
param n
real a(n,n), d(n,n) distribute (block,block)
real cond
do i = 2, n
  if (cond > 0) then
    a(i, 1:n) = 3
  else
    a(i, 1:n) = d(i, 1:n)
  endif
end do
end
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn parses_sum_reduction() {
        let p = parse_program(
            "program t\nparam n\nreal g(n,n) distribute (block,block)\nreal s\ns = sum(g(1, :))\nend",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => assert!(matches!(*a.rhs, Expr::Sum(_))),
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn parses_negative_step_loop() {
        let p = parse_program("program t\nparam n\nreal a(n) distribute (block)\ndo i = n, 1, -1\na(i) = 0\nenddo\nend").unwrap();
        match &p.body[0] {
            Stmt::Do(d) => assert_eq!(d.step, -1),
            _ => panic!("expected do"),
        }
    }

    #[test]
    fn error_on_rank_mismatch_distribute() {
        let e = parse_program("program t\nparam n\nreal a(n) distribute (block, block)\nend")
            .unwrap_err();
        assert!(e.message.contains("rank"));
    }

    #[test]
    fn error_on_missing_enddo() {
        assert!(parse_program("program t\ndo i = 1, 4\nend").is_err());
    }

    #[test]
    fn error_on_garbage_after_end() {
        assert!(parse_program("program t\nend\nx = 1").is_err());
    }

    #[test]
    fn recovery_collects_multiple_errors() {
        // Two independent bad statements plus one good one.
        let src = "program t\nparam n\nreal a(n), c(n) distribute (block)\n\
                   c(2:n) = a(1:n-1\nc(1) = 0\na(1) = = 2\nend";
        let errs = crate::parse_program_diagnostics(src).unwrap_err();
        assert!(errs.len() >= 2, "got {errs:?}");
        assert!(errs.iter().all(|e| e.line > 0));
    }

    #[test]
    fn recovery_matches_clean_parse_on_valid_input() {
        let src = "program t\nparam n\nreal a(n), c(n) distribute (block)\nc(2:n) = a(1:n-1)\nend";
        let p = crate::parse_program_diagnostics(src).unwrap();
        let q = crate::parse_program(src).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn recovery_reports_unmatched_terminators() {
        let errs = crate::parse_program_diagnostics("program t\nenddo\nend").unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unmatched")));
    }

    #[test]
    fn recovery_surfaces_validation_errors() {
        let errs = crate::parse_program_diagnostics("program t\nq = 1\nend").unwrap_err();
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn recovery_caps_error_count() {
        let mut src = String::from("program t\n");
        for _ in 0..100 {
            src.push_str("x = = 1\n");
        }
        src.push_str("end");
        let errs = crate::parse_program_diagnostics(&src).unwrap_err();
        assert!(errs.len() <= Parser::MAX_ERRORS);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_program("program t\nreal s, q\ns = 1 + q * 2\nend").unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => match &*a.rhs {
                Expr::Bin(BinOp::Add, _, rhs) => {
                    assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected tree {other:?}"),
            },
            _ => panic!("expected assignment"),
        }
    }
}
