//! Hand-written lexer for the mini-HPF language.
//!
//! Newlines are significant (they terminate statements), `!` starts a comment
//! running to end of line, and `&` at end of line continues the statement on
//! the next line, as in free-form Fortran.
//!
//! The scanner walks byte indices over the source and an identifier token
//! records where its text sits in it, so lexing allocates nothing beyond
//! the token vector itself.

use crate::error::LangError;
use crate::token::{keyword, Token, TokenKind};

/// Lexes `src` into a token stream terminated by [`TokenKind::Eof`].
///
/// Consecutive newlines are collapsed into a single [`TokenKind::Newline`].
///
/// # Errors
///
/// Returns [`LangError`] on an unrecognized character or malformed number,
/// or a source too long for a token to address (4 GiB).
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    if u32::try_from(src.len()).is_err() {
        return Err(LangError::general("source is longer than 4 GiB"));
    }
    let bytes = src.as_bytes();
    // Sized once: dense sources run about one token per two bytes.
    let mut out: Vec<Token> = Vec::with_capacity(bytes.len() / 2 + 8);
    let mut line = 1u32;
    let mut pos = 0;
    while let Some(&c) = bytes.get(pos) {
        // `long` if an `=` follows, `short` otherwise.
        let with_eq = |long, short| match bytes.get(pos + 1) {
            Some(b'=') => (long, 2),
            _ => (short, 1),
        };
        // A blank or a word is what most bytes start: tested ahead of the
        // jump table the `match` becomes.
        if c == b' ' {
            pos += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let (token, end) = word(src, pos, line);
            out.push(token);
            pos = end;
            continue;
        }
        let (kind, len) = match c {
            b'\t' | b'\r' => {
                pos += 1;
                continue;
            }
            b'\n' => {
                pos += 1;
                push_newline(&mut out, line);
                line += 1;
                continue;
            }
            b'!' => {
                // Comment to end of line.
                while !matches!(bytes.get(pos), None | Some(b'\n')) {
                    pos += 1;
                }
                continue;
            }
            b'&' => {
                // Line continuation: swallow '&', the rest of the line,
                // and the newline itself.
                pos += 1;
                while let Some(&c2) = bytes.get(pos) {
                    pos += 1;
                    if c2 == b'\n' {
                        line += 1;
                        break;
                    }
                }
                continue;
            }
            b';' => {
                pos += 1;
                push_newline(&mut out, line);
                continue;
            }
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b',' => (TokenKind::Comma, 1),
            b':' => (TokenKind::Colon, 1),
            b'+' => (TokenKind::Plus, 1),
            b'-' => (TokenKind::Minus, 1),
            b'*' => (TokenKind::Star, 1),
            b'/' => with_eq(TokenKind::Ne, TokenKind::Slash),
            b'=' => with_eq(TokenKind::EqEq, TokenKind::Assign),
            b'<' => with_eq(TokenKind::Le, TokenKind::Lt),
            b'>' => with_eq(TokenKind::Ge, TokenKind::Gt),
            c if c.is_ascii_digit() || c == b'.' => {
                let (token, end) = number(src, pos, line)?;
                out.push(token);
                pos = end;
                continue;
            }
            _ => {
                // Only ASCII is ever consumed above, so `pos` sits on a
                // char boundary and the offending char decodes cleanly.
                let other = src[pos..].chars().next().unwrap_or('\u{fffd}');
                return Err(LangError::at(
                    line,
                    format!("unrecognized character `{other}`"),
                ));
            }
        };
        out.push(Token::plain(kind, line));
        pos += len;
    }
    push_newline(&mut out, line);
    out.push(Token::plain(TokenKind::Eof, line));
    Ok(out)
}

/// Ends a statement: consecutive newlines collapse into one, and a source
/// never starts with one.
fn push_newline(out: &mut Vec<Token>, line: u32) {
    if matches!(out.last(), Some(t) if t.kind != TokenKind::Newline) {
        out.push(Token::plain(TokenKind::Newline, line));
    }
}

/// The number starting at `start`, and where it ends.
fn number(src: &str, start: usize, line: u32) -> Result<(Token, usize), LangError> {
    let bytes = src.as_bytes();
    let mut pos = start;
    let mut is_float = false;
    // The digits so far as an integer, `None` once they overflow one.
    let mut int = Some(0i64);
    loop {
        match bytes.get(pos) {
            Some(c) if c.is_ascii_digit() => {
                int = int.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(c - b'0')));
                pos += 1;
            }
            Some(b'.') if !is_float => {
                // Lookahead: `1.5` is a float; but `2:` after `1.` is not
                // possible in this grammar, so a bare dot always means
                // float.
                is_float = true;
                pos += 1;
            }
            Some(b'e' | b'E') if pos > start => {
                // Exponent part; `e` not followed by digits (or a signed
                // digit) is an identifier boundary instead.
                match bytes.get(pos + 1) {
                    Some(d) if d.is_ascii_digit() || matches!(d, b'+' | b'-') => {
                        is_float = true;
                        pos += 1;
                        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                            pos += 1;
                        }
                    }
                    _ => break,
                }
            }
            _ => break,
        }
    }
    let text = &src[start..pos];
    if text == "." {
        return Err(LangError::at(line, "malformed number `.`"));
    }
    let token = if is_float {
        let v: f64 = text
            .parse()
            .map_err(|_| LangError::at(line, format!("malformed float `{text}`")))?;
        Token::float(v, line)
    } else {
        let v = int.ok_or_else(|| LangError::at(line, format!("malformed integer `{text}`")))?;
        Token::int(v, line)
    };
    Ok((token, pos))
}

/// The keyword or identifier starting at `start`, and where it ends.
fn word(src: &str, start: usize, line: u32) -> (Token, usize) {
    let bytes = src.as_bytes();
    let mut pos = start;
    let mut upper = false;
    while let Some(c) = bytes.get(pos) {
        if !(c.is_ascii_alphanumeric() || *c == b'_') {
            break;
        }
        upper |= c.is_ascii_uppercase();
        pos += 1;
    }
    let token = match keyword(&src[start..pos]) {
        Some(k) => Token::plain(k, line),
        None => Token::ident(start, pos - start, upper, line),
    };
    (token, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// Every token as a diagnostic would quote it, payload included.
    fn shown(src: &str) -> Vec<String> {
        let toks = lex(src).unwrap();
        toks.iter().map(|t| t.display(src).to_string()).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            shown("a(i) = b(i-1) + 2.5"),
            [
                "identifier `a`",
                "`(`",
                "identifier `i`",
                "`)`",
                "`=`",
                "identifier `b`",
                "`(`",
                "identifier `i`",
                "`-`",
                "integer `1`",
                "`)`",
                "`+`",
                "float `2.5`",
                "end of line",
                "end of input",
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            shown("DO I = 1, N"),
            [
                "`do`",
                "identifier `i`",
                "`=`",
                "integer `1`",
                "`,`",
                "identifier `n`",
                "end of line",
                "end of input",
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
        assert_eq!(shown("1e3")[0], "float `1000`");
        assert_eq!(shown("2.5e-2")[0], "float `0.025`");
        // `e` not followed by digits is an identifier boundary, not exponent.
        assert_eq!(shown("2e")[..2], ["integer `2`", "identifier `e`"]);
    }

    #[test]
    fn integers_are_read_up_to_the_largest_and_no_further() {
        assert_eq!(
            shown("9223372036854775807")[0],
            "integer `9223372036854775807`"
        );
        assert_eq!(shown("007")[0], "integer `7`");
        let e = lex("a = 1\nb = 9223372036854775808").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "malformed integer `9223372036854775808`")
        );
        // Digits that would overflow an integer are fine in a float.
        assert_eq!(
            shown("92233720368547758080.0")[0],
            "float `92233720368547760000`"
        );
    }

    #[test]
    fn line_numbers_advance() {
        let src = "a = 1\nb = 2";
        let toks = lex(src).unwrap();
        let b = toks
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.ident_text(src) == "b")
            .unwrap();
        assert_eq!(b.line, 2);
    }
}
