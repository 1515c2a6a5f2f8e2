//! Recursive-descent parser for the mini-HPF language. A production
//! pushes its nodes onto the program's [`Arena`] and returns an id.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::*;
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Maximum grammar nesting depth (parenthesized/unary expression nesting
/// and `do`/`if` block nesting combined). Recursive descent burns one call
/// stack frame per level, so unbounded input would overflow the stack;
/// past this limit the parser reports a spanned diagnostic instead.
pub const MAX_NESTING: usize = 256;

/// What a production returns: the error is boxed so that `Result<(), _>` is
/// one word and a production that cannot fail costs no out-pointer.
type Parse<T> = Result<T, Box<LangError>>;

/// The id of every identifier met so far, by text. A name of at most eight
/// bytes — every name of the paper's kernels — is keyed by those bytes
/// packed into one integer, so finding it again compares integers and no
/// strings; a longer one is found by its text. Both tiers are ordered
/// maps: a probe stays logarithmic in the number of distinct names however
/// a hostile source picks them, and needs no keyed hash per occurrence.
#[derive(Default)]
struct Names {
    short: BTreeMap<u64, NameId>,
    long: BTreeMap<Name, NameId>,
}

impl Names {
    fn intern(&mut self, arena: &mut Arena, text: &str) -> NameId {
        let bytes = text.as_bytes();
        if bytes.len() <= 8 {
            let key = bytes.iter().fold(0, |key, &b| key << 8 | u64::from(b));
            return *self
                .short
                .entry(key)
                .or_insert_with(|| arena.push_name(Name::from(text)));
        }
        match self.long.get(text) {
            Some(&id) => id,
            None => {
                let name = Name::from(text);
                let id = arena.push_name(name.clone());
                self.long.insert(name, id);
                id
            }
        }
    }
}

/// A recursive-descent parser over the token stream of one source file.
///
/// Most users should call [`crate::parse_program`] instead, which also runs
/// semantic validation.
pub struct Parser<'s> {
    src: &'s str,
    toks: Vec<Token>,
    pos: usize,
    depth: usize,
    /// An occurrence of a name seen before gets the id made for the first.
    names: Names,
    /// Where the nodes go.
    arena: Arena,
    /// The subscripts of the references being parsed, innermost last: a
    /// reference's run moves to the arena once all of it has parsed.
    subs: Vec<Subscript>,
    /// Source line of every `do` / `if` met so far, in the order met — the
    /// pre-order of the block statements of a tree parsed without errors.
    block_lines: Vec<u32>,
}

impl<'s> Parser<'s> {
    /// Lexes `src` and prepares a parser reading identifier text from it.
    ///
    /// # Errors
    ///
    /// Returns [`LangError`] if lexing fails.
    pub fn new(src: &'s str) -> Result<Self, LangError> {
        let toks = lex(src)?;
        Ok(Parser {
            src,
            arena: Arena::with_capacity(toks.len()),
            toks,
            pos: 0,
            depth: 0,
            names: Names::default(),
            subs: Vec::new(),
            block_lines: Vec::new(),
        })
    }

    /// Number of tokens produced by the lexer (including the end marker).
    pub fn token_count(&self) -> usize {
        self.toks.len()
    }

    /// Source line of each `do` / `if` statement of the parsed program, in
    /// pre-order: what [`crate::validate::validate_at`] reports a bad loop
    /// bound or branch condition at. Meaningful after an error-free parse.
    pub fn block_lines(&self) -> &[u32] {
        &self.block_lines
    }

    fn peek(&self) -> TokenKind {
        self.toks[self.pos].kind
    }

    fn peek2(&self) -> TokenKind {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        self.toks[i].kind
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

    fn eat(&mut self, k: TokenKind) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    /// "expected `wanted`, found <the current token>", at its line.
    #[cold]
    fn expected(&self, wanted: impl fmt::Display) -> Box<LangError> {
        let found = self.toks[self.pos].display(self.src);
        self.error(format!("expected {wanted}, found {found}"))
    }

    /// `message`, at the current token's line.
    #[cold]
    fn error(&self, message: impl Into<String>) -> Box<LangError> {
        Box::new(LangError::at(self.line(), message))
    }

    fn expect(&mut self, k: TokenKind) -> Parse<()> {
        if self.eat(k) {
            Ok(())
        } else {
            Err(self.expected(k))
        }
    }

    /// Consumes the current token, interning its text if it is an
    /// identifier. An error carries the line of the offending token, which
    /// is read before stepping past it (the token may end its line).
    fn expect_ident(&mut self) -> Parse<NameId> {
        let tok = self.toks[self.pos];
        let r = if tok.kind == TokenKind::Ident {
            Ok(self
                .names
                .intern(&mut self.arena, &tok.ident_text(self.src)))
        } else {
            Err(self.expected("identifier"))
        };
        self.bump();
        r
    }

    fn skip_newlines(&mut self) {
        while self.eat(TokenKind::Newline) {}
    }

    /// Enters one grammar nesting level; errors out (with the offending
    /// line) instead of risking a call-stack overflow past [`MAX_NESTING`].
    /// On success the caller owes one `self.depth -= 1` after the guarded
    /// production returns (error or not) — the recovering parser keeps
    /// parsing after errors, so a leaked level would poison subsequent
    /// statements. On failure the depth is left untouched.
    fn enter(&mut self, what: &str) -> Parse<()> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!(
                "{what} nesting exceeds the supported depth of {MAX_NESTING}"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn end_of_stmt(&mut self) -> Parse<()> {
        if self.peek() == TokenKind::Eof || self.eat(TokenKind::Newline) {
            Ok(())
        } else {
            Err(self.expected("end of statement"))
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
        let (mut name, mut params, mut arrays, mut body) =
            (Name::default(), Vec::new(), Vec::new(), Vec::new());
        'parse: {
            self.skip_newlines();
            match (|p: &mut Self| -> Parse<NameId> {
                p.expect(TokenKind::Program)?;
                let name = p.expect_ident()?;
                p.end_of_stmt()?;
                Ok(name)
            })(self)
            {
                Ok(id) => name = self.arena.name(id).clone(),
                Err(e) => {
                    errs.push(*e);
                    self.sync_to_newline();
                }
            }
            self.skip_newlines();

            loop {
                let before = self.pos;
                let r = match self.peek() {
                    TokenKind::Param => {
                        self.bump();
                        self.comma_list(&mut params, Self::expect_ident)
                            .and_then(|()| self.end_of_stmt())
                    }
                    TokenKind::Real => {
                        self.bump();
                        // A group that fails leaves no declaration behind.
                        let group = arrays.len();
                        let r = self
                            .array_decl_group(&mut arrays)
                            .and_then(|()| self.end_of_stmt());
                        if r.is_err() {
                            arrays.truncate(group);
                        }
                        r
                    }
                    _ => break,
                };
                if let Err(e) = r {
                    errs.push(*e);
                    self.sync_to_newline();
                }
                self.skip_newlines();
                if self.pos == before && self.peek() == TokenKind::Eof {
                    break;
                }
                if errs.len() >= Self::MAX_ERRORS {
                    break 'parse;
                }
            }

            loop {
                self.skip_newlines();
                let before = self.pos;
                let r = match self.peek() {
                    TokenKind::End | TokenKind::Eof => break,
                    k @ (TokenKind::EndDo | TokenKind::EndIf | TokenKind::Else) => {
                        errs.push(LangError::at(self.line(), format!("unmatched {k}")));
                        self.bump();
                        self.sync_to_newline();
                        if errs.len() >= Self::MAX_ERRORS {
                            break 'parse;
                        }
                        continue;
                    }
                    _ => self.stmt().map(|s| body.push(s)),
                };
                if let Err(e) = r {
                    errs.push(*e);
                    self.sync_to_newline();
                    if errs.len() >= Self::MAX_ERRORS {
                        break 'parse;
                    }
                }
                // Guarantee forward progress even on a zero-consumption error.
                if self.pos == before {
                    if self.peek() == TokenKind::Eof {
                        break;
                    }
                    self.bump();
                }
            }

            if let Err(e) = self.expect(TokenKind::End) {
                errs.push(*e);
            } else {
                if let TokenKind::Ident | TokenKind::Program = self.peek() {
                    self.bump();
                }
                self.skip_newlines();
                if self.peek() != TokenKind::Eof {
                    let found = self.toks[self.pos].display(self.src);
                    errs.push(LangError::at(
                        self.line(),
                        format!("unexpected {found} after `end`"),
                    ));
                }
            }
        }
        let mut arena = std::mem::take(&mut self.arena);
        arena.shrink_to_fit();
        let prog = Program {
            name,
            params,
            arrays,
            body,
            arena: Arc::new(arena),
        };
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
        self.eat(TokenKind::Newline);
    }

    /// `adecl ("," adecl)* ["distribute" "(" dist,... ")"]`, pushed onto
    /// `arrays` (a `Vec` of its own per `real` line measured 1.4 % of a
    /// parse).
    fn array_decl_group(&mut self, arrays: &mut Vec<ArrayDecl>) -> Parse<()> {
        let group = arrays.len();
        loop {
            let name = self.expect_ident()?;
            let mut dims = Vec::new();
            if self.eat(TokenKind::LParen) {
                self.comma_list(&mut dims, Self::decl_dim)?;
                self.expect(TokenKind::RParen)?;
            }
            arrays.push(ArrayDecl {
                name,
                dims,
                dist: Vec::new(),
                align: Vec::new(),
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        if self.eat(TokenKind::Distribute) {
            let dist = self.clause(&arrays[group..], "distribute", Self::dist_format)?;
            arrays[group..]
                .iter_mut()
                .for_each(|d| d.dist = dist.clone());
        }
        if self.eat(TokenKind::Align) {
            let align = self.clause(&arrays[group..], "align", Self::const_int)?;
            arrays[group..]
                .iter_mut()
                .for_each(|d| d.align = align.clone());
        }
        Ok(())
    }

    /// `"(" item ("," item)* ")"`: a `what` clause, which must have one
    /// entry per dimension of every array of `group`.
    fn clause<T>(
        &mut self,
        group: &[ArrayDecl],
        what: &str,
        item: impl FnMut(&mut Self) -> Parse<T>,
    ) -> Parse<Vec<T>> {
        self.expect(TokenKind::LParen)?;
        let mut entries = Vec::new();
        self.comma_list(&mut entries, item)?;
        self.expect(TokenKind::RParen)?;
        match group.iter().find(|d| d.rank() != entries.len()) {
            Some(d) => Err(self.error(format!(
                "array `{}` has rank {} but {what} clause has {} entries",
                self.arena.name(d.name),
                d.rank(),
                entries.len()
            ))),
            None => Ok(entries),
        }
    }

    /// `item ("," item)*`, pushed onto `out`.
    fn comma_list<T>(
        &mut self,
        out: &mut Vec<T>,
        mut item: impl FnMut(&mut Self) -> Parse<T>,
    ) -> Parse<()> {
        loop {
            out.push(item(self)?);
            if !self.eat(TokenKind::Comma) {
                return Ok(());
            }
        }
    }

    fn decl_dim(&mut self) -> Parse<DeclDim> {
        let first = self.expr()?;
        if self.eat(TokenKind::Colon) {
            let hi = self.expr()?;
            Ok(DeclDim { lo: first, hi })
        } else {
            let lo = self.arena.push(ExprNode::Int(1));
            Ok(DeclDim { lo, hi: first })
        }
    }

    fn dist_format(&mut self) -> Parse<Dist> {
        let tok = self.toks[self.pos];
        let r = match tok.kind {
            TokenKind::Star => Ok(Dist::Collapsed),
            TokenKind::Ident if tok.ident_text(self.src) == "block" => Ok(Dist::Block),
            TokenKind::Ident if tok.ident_text(self.src) == "cyclic" => Ok(Dist::Cyclic),
            _ => Err(self.expected("`block`, `cyclic`, or `*`")),
        };
        self.bump();
        r
    }

    /// Parses statements onto `out` until a block terminator (`end`,
    /// `enddo`, `endif`, `else`, or end of input) is seen (the terminator
    /// is not consumed).
    fn block(&mut self, out: &mut Vec<Stmt>) -> Parse<()> {
        self.enter("block")?;
        let r = loop {
            self.skip_newlines();
            if let TokenKind::End
            | TokenKind::EndDo
            | TokenKind::EndIf
            | TokenKind::Else
            | TokenKind::Eof = self.peek()
            {
                break Ok(());
            }
            match self.stmt() {
                Ok(s) => out.push(s),
                Err(e) => break Err(e),
            }
        };
        self.depth -= 1;
        r
    }

    /// One statement, pushed onto `out` once all of it has parsed.
    fn stmt(&mut self) -> Parse<Stmt> {
        match self.peek() {
            TokenKind::Do => self.do_loop(),
            TokenKind::If => self.if_stmt(),
            _ => self.assign(),
        }
    }

    fn do_loop(&mut self) -> Parse<Stmt> {
        self.block_lines.push(self.line());
        self.expect(TokenKind::Do)?;
        let var = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let lo = self.expr()?;
        self.expect(TokenKind::Comma)?;
        let hi = self.expr()?;
        let mut step = 1i64;
        if self.eat(TokenKind::Comma) {
            step = self.const_int()?;
            if step == 0 {
                return Err(self.error("loop step must be non-zero"));
            }
        }
        self.end_of_stmt()?;
        let mut body = Vec::new();
        self.block(&mut body)?;
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

    fn if_stmt(&mut self) -> Parse<Stmt> {
        self.block_lines.push(self.line());
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Then)?;
        self.end_of_stmt()?;
        let mut then_body = Vec::new();
        self.block(&mut then_body)?;
        let mut else_body = Vec::new();
        if self.eat(TokenKind::Else) {
            self.end_of_stmt()?;
            self.block(&mut else_body)?;
        }
        self.expect_end_of("if", TokenKind::EndIf, TokenKind::If)?;
        self.end_of_stmt()?;
        Ok(Stmt::If(IfStmt {
            cond,
            then_body,
            else_body,
        }))
    }

    /// Accepts either the fused terminator (`enddo`) or split (`end do`).
    fn expect_end_of(
        &mut self,
        what: &str,
        fused: TokenKind,
        split_second: TokenKind,
    ) -> Parse<()> {
        if self.eat(fused) {
            return Ok(());
        }
        if self.peek() == TokenKind::End && self.peek2() == split_second {
            self.bump();
            self.bump();
            return Ok(());
        }
        Err(self.expected(format_args!("`end {what}`")))
    }

    fn assign(&mut self) -> Parse<Stmt> {
        let line = self.line();
        let lhs = self.array_ref()?;
        self.expect(TokenKind::Assign)?;
        let rhs = self.expr()?;
        self.end_of_stmt()?;
        Ok(Stmt::Assign(Assign { lhs, rhs, line }))
    }

    /// `name ["(" sub ("," sub)* ")"]`
    fn array_ref(&mut self) -> Parse<RefId> {
        let array = self.expect_ident()?;
        let mark = self.subs.len();
        let r = self.subscripts();
        let r = r.map(|()| self.arena.push_ref(array, &self.subs[mark..]));
        self.subs.truncate(mark);
        r
    }

    /// `["(" sub ("," sub)* ")"]`, pushed onto `self.subs`.
    fn subscripts(&mut self) -> Parse<()> {
        if self.eat(TokenKind::LParen) {
            loop {
                let s = self.subscript()?;
                self.subs.push(s);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(())
    }

    /// `sub := [expr] [":" [expr] [":" const]]`.
    fn subscript(&mut self) -> Parse<Subscript> {
        let mut lo = None;
        if self.peek() != TokenKind::Colon {
            let e = self.expr()?;
            if self.peek() != TokenKind::Colon {
                return Ok(Subscript::Index(e));
            }
            lo = Some(e);
        }
        self.bump();
        let hi = if matches!(
            self.peek(),
            TokenKind::Comma | TokenKind::RParen | TokenKind::Colon
        ) {
            None
        } else {
            Some(self.expr()?)
        };
        let mut step = 1i64;
        if self.eat(TokenKind::Colon) {
            step = self.const_int()?;
            if step == 0 {
                return Err(self.error("section stride must be non-zero"));
            }
        }
        Ok(Subscript::Range { lo, hi, step })
    }

    fn const_int(&mut self) -> Parse<i64> {
        let neg = self.eat(TokenKind::Minus);
        let tok = self.toks[self.pos];
        let r = match tok.kind {
            TokenKind::Int if neg => Ok(-tok.int_value()),
            TokenKind::Int => Ok(tok.int_value()),
            _ => Err(self.expected("integer constant")),
        };
        self.bump();
        r
    }

    /// Full expression (comparisons allowed; the validator restricts where).
    fn expr(&mut self) -> Parse<ExprId> {
        self.enter("expression")?;
        let r = self.expr_bp(0);
        self.depth -= 1;
        r
    }

    /// Precedence climbing: an operand, then every binary operator binding
    /// at least as tightly as `min_prec`, each with the tighter-binding run
    /// to its right as its right operand — so `+ -` and `* /` associate to
    /// the left. A comparison (the loosest level) ends the expression: it
    /// takes one sum on each side and does not chain.
    fn expr_bp(&mut self, min_prec: u8) -> Parse<ExprId> {
        const COMPARE: u8 = 1;
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Lt => (BinOp::Lt, COMPARE),
                TokenKind::Gt => (BinOp::Gt, COMPARE),
                TokenKind::Le => (BinOp::Le, COMPARE),
                TokenKind::Ge => (BinOp::Ge, COMPARE),
                TokenKind::EqEq => (BinOp::Eq, COMPARE),
                TokenKind::Ne => (BinOp::Ne, COMPARE),
                TokenKind::Plus => (BinOp::Add, 2),
                TokenKind::Minus => (BinOp::Sub, 2),
                TokenKind::Star => (BinOp::Mul, 3),
                TokenKind::Slash => (BinOp::Div, 3),
                _ => return Ok(lhs),
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.expr_bp(prec + 1)?;
            lhs = self.arena.push(ExprNode::Bin(op, lhs, rhs));
            if prec == COMPARE {
                return Ok(lhs);
            }
        }
    }

    /// Unary minus binds tighter than any binary operator.
    fn unary_expr(&mut self) -> Parse<ExprId> {
        // A chain of unary minuses recurses without passing through
        // `expr`, so it needs its own depth guard.
        if self.eat(TokenKind::Minus) {
            self.enter("expression")?;
            let r = self.unary_expr().map(|e| self.arena.push(ExprNode::Neg(e)));
            self.depth -= 1;
            return r;
        }
        self.atom()
    }

    fn atom(&mut self) -> Parse<ExprId> {
        let tok = self.toks[self.pos];
        let node = match tok.kind {
            TokenKind::Int => {
                self.bump();
                ExprNode::Int(tok.int_value())
            }
            TokenKind::Float => {
                self.bump();
                ExprNode::Num(tok.float_value())
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            TokenKind::Sum => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let r = self.array_ref()?;
                self.expect(TokenKind::RParen)?;
                ExprNode::Sum(r)
            }
            TokenKind::Ident => ExprNode::Ref(self.array_ref()?),
            _ => return Err(self.expected("expression")),
        };
        Ok(self.arena.push(node))
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
        let params: Vec<&str> = p.params.iter().map(|&n| p.arena.name(n).as_str()).collect();
        assert_eq!(params, ["n", "m"]);
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
        assert_eq!(p.arena.expr(g.dims[0].lo), ExprNode::Int(0));
    }

    #[test]
    fn parses_sections() {
        let p = parse_program(
            "program t\nparam n\nreal a(n), c(n) distribute (block)\nc(2:n) = a(1:n-1)\nend",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => {
                let subs = p.arena.subs(p.arena.aref(a.lhs));
                assert!(matches!(subs[0], Subscript::Range { .. }));
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
                let subs = p.arena.subs(p.arena.aref(a.lhs));
                assert_eq!(subs[0], Subscript::full());
                assert!(
                    matches!(subs[1], Subscript::Range { step: 2, .. }),
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
            Stmt::Assign(a) => assert!(matches!(p.arena.expr(a.rhs), ExprNode::Sum(_))),
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

    /// The trees the precedence-climbing loop builds: `* /` over `+ -`,
    /// both left-associative, unary minus tightest, one comparison loosest.
    #[test]
    fn expression_trees_by_precedence_and_associativity() {
        for (src, tree) in [
            ("a - b - c", "Bin(Sub, Bin(Sub, a, b), c)"),
            ("a - b * c / d", "Bin(Sub, a, Bin(Div, Bin(Mul, b, c), d))"),
            ("-a * b", "Bin(Mul, Neg(a), b)"),
            ("a * -b", "Bin(Mul, a, Neg(b))"),
            ("- -a - b", "Bin(Sub, Neg(Neg(a)), b)"),
            ("a + b < c * d", "Bin(Lt, Bin(Add, a, b), Bin(Mul, c, d))"),
            ("a * (b + c)", "Bin(Mul, a, Bin(Add, b, c))"),
            ("(a < b) + c", "Bin(Add, Bin(Lt, a, b), c)"),
        ] {
            fn show(arena: &Arena, e: ExprId) -> String {
                match arena.expr(e) {
                    ExprNode::Ref(r) => arena.name(arena.aref(r).array).to_string(),
                    ExprNode::Neg(a) => format!("Neg({})", show(arena, a)),
                    ExprNode::Bin(op, a, b) => {
                        format!("Bin({op:?}, {}, {})", show(arena, a), show(arena, b))
                    }
                    other => format!("{other:?}"),
                }
            }
            let p =
                parse_program(&format!("program t\nreal s, a, b, c, d\ns = {src}\nend")).unwrap();
            match &p.body[0] {
                Stmt::Assign(a) => assert_eq!(show(&p.arena, a.rhs), tree, "{src}"),
                _ => panic!("expected assignment"),
            }
        }
        // A comparison does not chain: the second operator is left over.
        let e = parse_program("program t\nreal s, a, b, c\ns = a < b < c\nend").unwrap_err();
        assert_eq!(e.message, "expected end of statement, found `<`");
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_program("program t\nreal s, q\ns = 1 + q * 2\nend").unwrap();
        match &p.body[0] {
            Stmt::Assign(a) => match p.arena.expr(a.rhs) {
                ExprNode::Bin(BinOp::Add, _, rhs) => {
                    assert!(matches!(p.arena.expr(rhs), ExprNode::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected tree {other:?}"),
            },
            _ => panic!("expected assignment"),
        }
    }
}
