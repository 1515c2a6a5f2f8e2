//! Hand-written lexer for the mini-HPF language.
//!
//! Newlines are significant (they terminate statements), `!` starts a comment
//! running to end of line, and `&` at end of line continues the statement on
//! the next line, as in free-form Fortran.
//!
//! The scanner walks byte indices over the source and tokens borrow their
//! text from it: an identifier that is already lowercase (the common case)
//! is a zero-copy slice, so lexing allocates nothing beyond the token
//! vector itself.

use std::borrow::Cow;

use crate::error::LangError;
use crate::token::{keyword, Token, TokenKind};

/// Lexes `src` into a token stream terminated by [`TokenKind::Eof`].
///
/// Consecutive newlines are collapsed into a single [`TokenKind::Newline`].
///
/// # Errors
///
/// Returns [`LangError`] on an unrecognized character or malformed number.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LangError> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
    out: Vec<Token<'s>>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            // Sized once: dense sources run about one token per two bytes.
            out: Vec::with_capacity(src.len() / 2 + 8),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn push(&mut self, kind: TokenKind<'s>) {
        self.out.push(Token {
            kind,
            line: self.line,
        });
    }

    fn push_newline(&mut self) {
        // Collapse consecutive newlines; never emit a leading newline.
        if matches!(
            self.out.last(),
            None | Some(Token {
                kind: TokenKind::Newline,
                ..
            })
        ) {
            return;
        }
        self.push(TokenKind::Newline);
    }

    fn run(mut self) -> Result<Vec<Token<'s>>, LangError> {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.pos += 1;
                    self.push_newline();
                    self.line += 1;
                }
                b'!' => {
                    // Comment to end of line.
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                b'&' => {
                    // Line continuation: swallow '&', the rest of the line,
                    // and the newline itself.
                    self.pos += 1;
                    while let Some(c2) = self.peek() {
                        self.pos += 1;
                        if c2 == b'\n' {
                            self.line += 1;
                            break;
                        }
                    }
                }
                b';' => {
                    self.pos += 1;
                    self.push_newline();
                }
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b',' => self.single(TokenKind::Comma),
                b':' => self.single(TokenKind::Colon),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.two(b'=', TokenKind::Ne, TokenKind::Slash),
                b'=' => self.two(b'=', TokenKind::EqEq, TokenKind::Assign),
                b'<' => self.two(b'=', TokenKind::Le, TokenKind::Lt),
                b'>' => self.two(b'=', TokenKind::Ge, TokenKind::Gt),
                c if c.is_ascii_digit() || c == b'.' => self.number()?,
                c if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                _ => {
                    // Only ASCII is ever consumed above, so `pos` sits on a
                    // char boundary and the offending char decodes cleanly.
                    let other = self.src[self.pos..].chars().next().unwrap_or('\u{fffd}');
                    return Err(LangError::at(
                        self.line,
                        format!("unrecognized character `{other}`"),
                    ));
                }
            }
        }
        self.push_newline();
        self.push(TokenKind::Eof);
        Ok(self.out)
    }

    fn single(&mut self, kind: TokenKind<'s>) {
        self.pos += 1;
        self.push(kind);
    }

    /// Consumes one char, then `follow` if present: `long` on the pair,
    /// `short` otherwise.
    fn two(&mut self, follow: u8, long: TokenKind<'s>, short: TokenKind<'s>) {
        self.pos += 1;
        if self.peek() == Some(follow) {
            self.pos += 1;
            self.push(long);
        } else {
            self.push(short);
        }
    }

    fn number(&mut self) -> Result<(), LangError> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let mut is_float = false;
        loop {
            match bytes.get(self.pos) {
                Some(c) if c.is_ascii_digit() => self.pos += 1,
                Some(b'.') if !is_float => {
                    // Lookahead: `1.5` is a float; but `2:` after `1.` is not
                    // possible in this grammar, so a bare dot always means
                    // float.
                    is_float = true;
                    self.pos += 1;
                }
                Some(b'e' | b'E') if self.pos > start => {
                    // Exponent part; `e` not followed by digits (or a signed
                    // digit) is an identifier boundary instead.
                    match bytes.get(self.pos + 1) {
                        Some(d) if d.is_ascii_digit() || matches!(d, b'+' | b'-') => {
                            is_float = true;
                            self.pos += 1;
                            if matches!(bytes.get(self.pos), Some(b'+' | b'-')) {
                                self.pos += 1;
                            }
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if text == "." {
            return Err(LangError::at(self.line, "malformed number `.`"));
        }
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| LangError::at(self.line, format!("malformed float `{text}`")))?;
            self.push(TokenKind::Float(v));
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| LangError::at(self.line, format!("malformed integer `{text}`")))?;
            self.push(TokenKind::Int(v));
        }
        Ok(())
    }

    fn ident(&mut self) {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.pos), Some(c) if c.is_ascii_alphanumeric() || *c == b'_') {
            self.pos += 1;
        }
        let raw = &self.src[start..self.pos];
        // Zero-copy when the source is already lowercase (the common case).
        let text: Cow<'s, str> = if raw.bytes().any(|c| c.is_ascii_uppercase()) {
            Cow::Owned(raw.to_ascii_lowercase())
        } else {
            Cow::Borrowed(raw)
        };
        match keyword(&text) {
            Some(k) => self.push(k),
            None => self.push(TokenKind::Ident(text)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            kinds("a(i) = b(i-1) + 2.5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::LParen,
                TokenKind::Ident("i".into()),
                TokenKind::RParen,
                TokenKind::Assign,
                TokenKind::Ident("b".into()),
                TokenKind::LParen,
                TokenKind::Ident("i".into()),
                TokenKind::Minus,
                TokenKind::Int(1),
                TokenKind::RParen,
                TokenKind::Plus,
                TokenKind::Float(2.5),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("DO I = 1, N"),
            vec![
                TokenKind::Do,
                TokenKind::Ident("i".into()),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Ident("n".into()),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_blank_lines_collapse() {
        let k = kinds("a = 1 ! set a\n\n\nb = 2");
        let newlines = k.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn continuation_joins_lines() {
        let k = kinds("a = 1 + &\n 2");
        assert!(!k[..k.len() - 2].contains(&TokenKind::Newline));
    }

    #[test]
    fn semicolon_separates_statements() {
        let k = kinds("a = 1; b = 2");
        assert_eq!(k.iter().filter(|k| **k == TokenKind::Newline).count(), 2);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a <= b >= c == d /= e < f > g")[..13]
                .iter()
                .filter(|k| matches!(
                    k,
                    TokenKind::Le
                        | TokenKind::Ge
                        | TokenKind::EqEq
                        | TokenKind::Ne
                        | TokenKind::Lt
                        | TokenKind::Gt
                ))
                .count(),
            6
        );
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex("a = #").is_err());
    }

    #[test]
    fn exponent_floats() {
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::Float(0.025));
        // `e` not followed by digits is an identifier boundary, not exponent.
        assert_eq!(
            kinds("2e")[..2],
            [TokenKind::Int(2), TokenKind::Ident("e".into())]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a = 1\nb = 2").unwrap();
        let b = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 2);
    }
}
