//! Minimal hand-rolled JSON: a parsed [`Json`] value, a recursive-descent
//! parser, and a canonical emitter. The build environment has no
//! serialization crates (workspace zero-dependency policy), and the rest
//! of the workspace only *emits* JSON; the compile service is the first
//! component that must also *parse* untrusted JSON, so the parser is
//! defensive: depth-limited, allocation-bounded by the input length, and
//! it never panics on any byte sequence (a fuzz test in this module holds
//! it to that).

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts; deeper input is rejected
/// (protects the stack against `[[[[...` bombs on untrusted frames).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object member order is preserved (the protocol
/// never relies on it, but it keeps emitted round-trips stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; protocol ids stay exact below
    /// 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value, requiring it to span the whole input
    /// (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a one-line message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives, and values above 2^53 where `f64` loses exactness).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The numeric payload as an integer (rejects fractions and values
    /// outside ±2^53).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Emits the value as compact JSON (member order preserved, `f64` via
    /// Rust's shortest-roundtrip `Display`, integers without a fraction).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string as a JSON string literal.
pub use gcomm_obs::json_str as escape;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Length of the raw run at the head of `bytes`: everything before the
/// first quote, backslash or control byte. Eight bytes a step: a byte of
/// `x` is zero exactly where `(x - 0x01…) & !x` has its high bit set —
/// borrows can flag bytes *above* a real match, never below it, so the
/// lowest flagged byte is always a real one.
fn run_len(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        let hits = zero_bytes(w ^ (ONES * u64::from(b'"')))
            | zero_bytes(w ^ (ONES * u64::from(b'\\')))
            | (w.wrapping_sub(ONES * 0x20) & !w);
        if hits & HIGH != 0 {
            return at + (hits & HIGH).trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = words.remainder();
    let ends_run = |&b: &u8| b == b'"' || b == b'\\' || b < 0x20;
    at + tail.iter().position(ends_run).unwrap_or(tail.len())
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte 0x{b:02x} at offset {}", self.pos)),
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at offset {start}"));
        }
        Ok(Json::Num(n))
    }

    /// One string literal. Everything the scan stops at — the quote, the
    /// backslash, a control byte — is ASCII, so every run between two
    /// stops is a slice of the (already valid) input text at char
    /// boundaries and is copied as one piece.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = &self.bytes[self.pos..];
            let len = run_len(run);
            let stop = run.get(len).copied();
            if stop == Some(b'\\') && out.capacity() == 0 {
                // First escape: no raw string ends before the next quote
                // byte, so that distance is a lower bound on what is still
                // to come — for a source text (no quotes inside) all of it.
                let rest = &self.text[self.pos + len + 1..];
                out.reserve(len + rest.find('"').unwrap_or(0));
            }
            let chunk = self.text.get(self.pos..self.pos + len);
            out.push_str(chunk.ok_or_else(|| "invalid UTF-8 in string".to_string())?);
            self.pos += len + 1;
            match stop {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                // A source text's line breaks inline; the rest in `escape`.
                Some(b'\\') if self.peek() == Some(b'n') => {
                    self.pos += 1;
                    out.push('\n');
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(b) => {
                    return Err(format!(
                        "raw control byte 0x{b:02x} in string at offset {}",
                        self.pos - 1
                    ));
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, String> {
        let Some(esc) = self.peek() else {
            return Err("unterminated escape".into());
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                let c = if (0xd800..0xdc00).contains(&cp) {
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err("bad low surrogate".into());
                        }
                        let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                c.ok_or_else(|| "bad \\u escape".to_string())?
            }
            _ => return Err(format!("bad escape '\\{}'", esc as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err("truncated \\u escape".into());
            };
            self.pos += 1;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| "bad hex digit in \\u escape".to_string())?;
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(Json::parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_structures_and_roundtrips() {
        let text = r#"{"op":"compile","id":7,"nested":{"a":[1,2,3],"b":null},"ok":true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn parses_escapes() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{e9}"));
        // Surrogate pair.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        for s in [
            "",
            "plain",
            "q\"q",
            "b\\b",
            "n\nn",
            "tab\tx",
            "\u{1}",
            "é€😀",
        ] {
            let lit = escape(s);
            assert_eq!(Json::parse(&lit).unwrap().as_str(), Some(s), "{lit}");
        }
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "01x",
            "\"unterminated",
            "{\"a\":1,}",
            "[1 2]",
            "--1",
            "1.2.3",
            "\u{0}",
            "{\"k\":\"\u{7}\"}",
            "NaN",
            "Infinity",
            "\"\\u12\"",
            "\"\\q\"",
            "\"\\ud800x\"",
            "[1]]",
            "5 5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn fuzzes_random_bytes_without_panicking() {
        // Splitmix-style deterministic byte soup; the parser must reject or
        // accept, never panic.
        let mut state = 0x5eed_cafe_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let _ = Json::parse(&text);
        }
        // Structured soup from protocol-ish fragments.
        let frags = [
            "{", "}", "[", "]", ",", ":", "\"op\"", "1", "null", "\\", "\"",
        ];
        for _ in 0..2000 {
            let n = (next() % 12) as usize;
            let text: String = (0..n)
                .map(|_| frags[(next() % frags.len() as u64) as usize])
                .collect();
            let _ = Json::parse(&text);
        }
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }
}
