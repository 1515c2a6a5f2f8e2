//! Token kinds produced by the lexer.

use std::borrow::Cow;
use std::fmt;

/// A lexical token: its kind, its 1-based source line and one word of
/// payload — an integer's value, a float's bits, or where in the source an
/// identifier's text sits. `Copy` and 16 bytes, so the parser reads kinds
/// and steps past tokens without clones or drop glue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
    payload: u64,
}

/// Set in an identifier's payload when its source text has an uppercase
/// letter, so only those pay for lowercasing.
const UPPER: u64 = 1 << 63;

impl Token {
    /// A token without payload (keywords, punctuation, line and input ends).
    pub(crate) fn plain(kind: TokenKind, line: u32) -> Self {
        Token {
            kind,
            line,
            payload: 0,
        }
    }

    /// An integer literal.
    pub(crate) fn int(value: i64, line: u32) -> Self {
        Token {
            kind: TokenKind::Int,
            line,
            payload: value as u64,
        }
    }

    /// A floating-point literal.
    pub(crate) fn float(value: f64, line: u32) -> Self {
        Token {
            kind: TokenKind::Float,
            line,
            payload: value.to_bits(),
        }
    }

    /// An identifier spelled by `len` bytes of the source at `start`; the
    /// lexer has checked that the source is shorter than 4 GiB.
    pub(crate) fn ident(start: usize, len: usize, upper: bool, line: u32) -> Self {
        let upper = if upper { UPPER } else { 0 };
        Token {
            kind: TokenKind::Ident,
            line,
            payload: start as u64 | (len as u64) << 32 | upper,
        }
    }

    /// Value of a [`TokenKind::Int`] token.
    pub fn int_value(&self) -> i64 {
        self.payload as i64
    }

    /// Value of a [`TokenKind::Float`] token.
    pub fn float_value(&self) -> f64 {
        f64::from_bits(self.payload)
    }

    /// Text of a [`TokenKind::Ident`] token, lowercased (the rest of the
    /// pipeline is case-insensitive, matching Fortran convention). `src` is
    /// the source the token was lexed from; an identifier that is already
    /// lowercase there — the common case — is a borrowed slice of it.
    pub fn ident_text<'s>(&self, src: &'s str) -> Cow<'s, str> {
        let start = self.payload as u32 as usize;
        let len = (self.payload & !UPPER) as usize >> 32;
        let raw = &src[start..start + len];
        if self.payload & UPPER == 0 {
            Cow::Borrowed(raw)
        } else {
            Cow::Owned(raw.to_ascii_lowercase())
        }
    }

    /// The token as diagnostics quote it: the kind, and the payload of the
    /// kinds that have one.
    pub fn display<'a>(&'a self, src: &'a str) -> impl fmt::Display + 'a {
        Shown { tok: self, src }
    }
}

struct Shown<'a> {
    tok: &'a Token,
    src: &'a str,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tok.kind {
            TokenKind::Ident => write!(f, "identifier `{}`", self.tok.ident_text(self.src)),
            TokenKind::Int => write!(f, "integer `{}`", self.tok.int_value()),
            TokenKind::Float => write!(f, "float `{}`", self.tok.float_value()),
            kind => kind.fmt(f),
        }
    }
}

/// The kind of a lexical token.
///
/// Keywords are case-insensitive in the source (`DO`, `do`, and `Do` all lex
/// to [`TokenKind::Do`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier.
    Ident,
    /// Integer literal.
    Int,
    /// Floating point literal.
    Float,

    // Keywords.
    /// `program`
    Program,
    /// `end`
    End,
    /// `real`
    Real,
    /// `param`
    Param,
    /// `distribute`
    Distribute,
    /// `do`
    Do,
    /// `enddo`
    EndDo,
    /// `if`
    If,
    /// `then`
    Then,
    /// `else`
    Else,
    /// `endif`
    EndIf,
    /// `sum`
    Sum,
    /// `align`
    Align,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `/=` (Fortran inequality)
    Ne,
    /// End of statement (newline or `;`).
    Newline,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident => write!(f, "identifier"),
            TokenKind::Int => write!(f, "integer"),
            TokenKind::Float => write!(f, "float"),
            TokenKind::Program => write!(f, "`program`"),
            TokenKind::End => write!(f, "`end`"),
            TokenKind::Real => write!(f, "`real`"),
            TokenKind::Param => write!(f, "`param`"),
            TokenKind::Distribute => write!(f, "`distribute`"),
            TokenKind::Do => write!(f, "`do`"),
            TokenKind::EndDo => write!(f, "`enddo`"),
            TokenKind::If => write!(f, "`if`"),
            TokenKind::Then => write!(f, "`then`"),
            TokenKind::Else => write!(f, "`else`"),
            TokenKind::EndIf => write!(f, "`endif`"),
            TokenKind::Sum => write!(f, "`sum`"),
            TokenKind::Align => write!(f, "`align`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Assign => write!(f, "`=`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Ne => write!(f, "`/=`"),
            TokenKind::Newline => write!(f, "end of line"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Maps an identifier's source text, in any case, to a keyword kind if it
/// spells one.
pub(crate) fn keyword(ident: &str) -> Option<TokenKind> {
    use TokenKind::*;
    // By length first: most identifiers are shorter than any keyword.
    let candidates: &[(&str, TokenKind)] = match ident.len() {
        2 => &[("do", Do), ("if", If)],
        3 => &[("end", End), ("sum", Sum)],
        4 => &[("real", Real), ("then", Then), ("else", Else)],
        5 => &[
            ("param", Param),
            ("enddo", EndDo),
            ("endif", EndIf),
            ("align", Align),
        ],
        7 => &[("program", Program)],
        10 => &[("distribute", Distribute)],
        _ => return None,
    };
    candidates
        .iter()
        .find(|(word, _)| word.eq_ignore_ascii_case(ident))
        .map(|&(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(keyword("do"), Some(TokenKind::Do));
        assert_eq!(keyword("sum"), Some(TokenKind::Sum));
        assert_eq!(keyword("EndDo"), Some(TokenKind::EndDo));
        assert_eq!(keyword("shallow"), None);
    }

    #[test]
    fn display_is_nonempty() {
        let src = "x";
        for t in [
            Token::ident(0, 1, false, 1),
            Token::int(3, 1),
            Token::plain(TokenKind::Do, 1),
            Token::plain(TokenKind::Newline, 1),
            Token::plain(TokenKind::Eof, 1),
        ] {
            assert!(!t.display(src).to_string().is_empty());
        }
    }

    #[test]
    fn tokens_are_small_and_carry_their_payload() {
        assert_eq!(std::mem::size_of::<Token>(), 16);
        assert_eq!(Token::int(-7, 1).int_value(), -7);
        assert_eq!(Token::float(2.5, 1).float_value(), 2.5);
        assert_eq!(
            Token::ident(2, 2, true, 1).ident_text("a XY").as_ref(),
            "xy"
        );
        assert_eq!(
            Token::ident(2, 2, true, 1).display("a XY").to_string(),
            "identifier `xy`"
        );
    }
}
