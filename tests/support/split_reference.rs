//! The two-pass `split_routines` this repository shipped until the
//! one-pass splitter replaced it (`crates/core/src/incr.rs`), verbatim: a
//! `split_inclusive('\n')` walk that `trim_start`s every line, then a
//! second `lines()` walk per chunk for its name, a `String` per name. Kept
//! as the oracle of `tests/split_differential.rs` (`#[path]`-included).

use gcomm::query::fingerprint;

/// One routine-granular source chunk, borrowing the module text (the
/// chunker is on the warm-edit fast path — it runs on every request the
/// payload cache misses, so it slices rather than copies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutineChunk<'a> {
    /// Routine name: the word after `program`, lowercased (the same
    /// normalization the lexer applies), or `routine<idx>` when the
    /// chunk has no `program` line.
    pub name: String,
    /// The chunk's exact source text. Concatenating all chunks yields
    /// the original input byte for byte.
    pub src: &'a str,
    /// Fingerprint of [`Self::src`].
    pub fp: u64,
    /// Number of source lines before this chunk (add to chunk-relative
    /// diagnostic lines to get module-level lines).
    pub line_offset: u32,
}

/// Splits off a line's first word (alphanumerics and `_`, after leading
/// blanks) from the rest of the line.
fn leading_word(line: &str) -> (&str, &str) {
    let trimmed = line.trim_start();
    let is_word = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    trimmed.split_at(trimmed.bytes().take_while(is_word).count())
}

/// True for a line whose first word is `end` — the terminator of one
/// routine. `enddo`/`endif` are distinct words and do not match.
fn is_end_line(line: &str) -> bool {
    leading_word(line).0.eq_ignore_ascii_case("end")
}

/// The word following `program` on the first `program` line, lowercased.
fn program_name(chunk: &str) -> Option<String> {
    chunk
        .lines()
        .map(leading_word)
        .filter(|(word, _)| word.eq_ignore_ascii_case("program"))
        .map(|(_, rest)| leading_word(rest).0)
        .find(|name| !name.is_empty())
        .map(str::to_ascii_lowercase)
}

/// Splits source text into routine chunks at `end` lines. A source with
/// a single routine (or none at all) comes back as exactly one chunk
/// whose `src` is the input unchanged; trailing text after the last
/// `end` (blank lines, comments) is folded into the last chunk so the
/// chunks always reassemble the input exactly.
pub fn split_routines(src: &str) -> Vec<RoutineChunk<'_>> {
    // Byte spans `(start, end, line_offset)`; chunks are contiguous, so
    // folding trailing text into the last chunk just widens its span.
    let mut spans: Vec<(usize, usize, u32)> = Vec::new();
    let mut start = 0usize;
    let mut start_line = 0u32;
    let mut pos = 0usize;
    let mut line_no = 0u32;
    for line in src.split_inclusive('\n') {
        pos += line.len();
        line_no += 1;
        if is_end_line(line) {
            spans.push((start, pos, start_line));
            start = pos;
            start_line = line_no;
        }
    }
    if start < src.len() {
        match spans.last_mut() {
            Some(last) => last.1 = src.len(),
            None => spans.push((0, src.len(), 0)),
        }
    }
    if spans.is_empty() {
        spans.push((0, 0, 0));
    }
    spans
        .into_iter()
        .enumerate()
        .map(|(idx, (a, b, line_offset))| {
            let text = &src[a..b];
            RoutineChunk {
                name: program_name(text).unwrap_or_else(|| format!("routine{idx}")),
                fp: fingerprint(text.as_bytes()),
                src: text,
                line_offset,
            }
        })
        .collect()
}
