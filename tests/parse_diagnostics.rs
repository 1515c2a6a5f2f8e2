//! Every diagnostic the frontend prints, pinned: for the six paper kernels
//! and the first 40 corpus programs, eight seeded token-level mutants each
//! (delete, duplicate, swap with the next, replace by a `token_soup` word,
//! rename an identifier occurrence to an undeclared name, uppercase an
//! identifier), the outcome of both entry points equals the committed
//! `results/parse_diagnostics.txt` — `parse_program`'s `line: message` or
//! the `ast_fp` of the tree it accepts, and `parse_program_diagnostics`'
//! full list.
//!
//! The file was generated before the parser's productions, tokens and
//! interner were rewritten (DESIGN.md §5.15) and passing unedited is the
//! proof that the rewrite moved no message, no line and no recovery point.
//! `GCOMM_BLESS=1 cargo test --test parse_diagnostics` rewrites it; a diff
//! there is a user-visible change to `gcommc`'s error output.

use std::fmt::Write as _;
use std::path::PathBuf;

use gcomm::lang::{parse_program, parse_program_diagnostics};
use gcomm::query::Fingerprinter;
use proptest::test_runner::TestRng;

#[path = "support/pinned_sources.rs"]
mod pinned_sources;
use pinned_sources::pinned_sources;

/// The words of `crates/lang/tests/parser_fuzz.rs`'s `token_soup`.
const SOUP: &[&str] = &[
    "program",
    "end",
    "enddo",
    "endif",
    "do",
    "if",
    "then",
    "else",
    "param",
    "real",
    "distribute",
    "align",
    "block",
    "cyclic",
    "sum",
    "n",
    "a",
    "x1",
    "(",
    ")",
    ",",
    ":",
    "=",
    "+",
    "-",
    "*",
    "/",
    "<",
    ">",
    "<=",
    ">=",
    "==",
    "!=",
    "1",
    "42",
    "-3",
    "2.5",
    "\n",
    "  ",
    "!",
    "@",
];

const KEYWORDS: &[&str] = &[
    "program",
    "end",
    "real",
    "param",
    "distribute",
    "do",
    "enddo",
    "if",
    "then",
    "else",
    "endif",
    "sum",
    "align",
];

/// Mixed with the program and mutant index into each mutant's seed.
const SEED: u64 = 0x6763_1996;

const KINDS: [&str; 6] = ["delete", "duplicate", "swap", "soup", "rename", "upper"];

/// Byte spans of the source's tokens: words (identifiers, keywords,
/// numbers), two-character operators, single punctuation characters and
/// newlines. Blanks and `!` comments are between tokens.
fn token_spans(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'!' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            c if word(c) => {
                while i < b.len() && word(b[i]) {
                    i += 1;
                }
            }
            b'/' | b'=' | b'<' | b'>' if b.get(i + 1) == Some(&b'=') => i += 2,
            _ => i += 1,
        }
        out.push((start, i));
    }
    out
}

/// Mutant `k` of `src`: its kind, the index of the token it touched, and
/// the mutated text.
fn mutant(src: &str, rng: &mut TestRng, k: usize) -> (&'static str, usize, String) {
    let spans = token_spans(src);
    let text = |i: usize| &src[spans[i].0..spans[i].1];
    let kind = KINDS[k % KINDS.len()];
    let pick = |rng: &mut TestRng, among: &[usize]| among[rng.below(among.len() as u64) as usize];
    let all: Vec<usize> = (0..spans.len()).collect();
    let idents: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| {
            let t = text(i);
            t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && !KEYWORDS.contains(&t.to_ascii_lowercase().as_str())
        })
        .collect();
    let i = match kind {
        "swap" => pick(rng, &all[..all.len() - 1]),
        "rename" | "upper" => pick(rng, &idents),
        _ => pick(rng, &all),
    };
    let (s, e) = spans[i];
    let splice = |with: &str| format!("{}{with}{}", &src[..s], &src[e..]);
    let out = match kind {
        "delete" => splice(""),
        "duplicate" => splice(&format!("{0} {0}", text(i))),
        "swap" => {
            let (s2, e2) = spans[i + 1];
            format!(
                "{}{}{}{}{}",
                &src[..s],
                text(i + 1),
                &src[e..s2],
                text(i),
                &src[e2..]
            )
        }
        "soup" => splice(SOUP[rng.below(SOUP.len() as u64) as usize]),
        "rename" => splice("zz9"),
        "upper" => splice(&text(i).to_ascii_uppercase()),
        _ => unreachable!("six kinds"),
    };
    (kind, i, out)
}

#[test]
fn mutant_diagnostics_match_golden() {
    let mut table = String::new();
    for (p, (label, src)) in pinned_sources().iter().enumerate() {
        for k in 0..8 {
            let mut rng = TestRng::new(SEED ^ ((p as u64) << 8 | k as u64));
            let (kind, at, text) = mutant(src, &mut rng, k);
            let _ = writeln!(table, "{label} #{k} {kind} @{at}");
            match parse_program(&text) {
                Ok(ast) => {
                    let _ = writeln!(table, "  first: ast_fp={:016x}", Fingerprinter::of(&ast));
                }
                Err(e) => {
                    let _ = writeln!(table, "  first: {}: {}", e.line, e.message);
                }
            }
            match parse_program_diagnostics(&text) {
                Ok(ast) => {
                    let _ = writeln!(table, "  all: ast_fp={:016x}", Fingerprinter::of(&ast));
                }
                Err(errs) => {
                    for e in errs {
                        let _ = writeln!(table, "  all: {}: {}", e.line, e.message);
                    }
                }
            }
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/parse_diagnostics.txt");
    if std::env::var_os("GCOMM_BLESS").is_some() {
        std::fs::write(&path, &table).expect("write blessed golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists (GCOMM_BLESS=1 creates it)");
    if golden != table {
        let moved: Vec<String> = golden
            .lines()
            .zip(table.lines())
            .filter(|(g, t)| g != t)
            .take(10)
            .map(|(g, t)| format!("- {g}\n+ {t}"))
            .collect();
        panic!(
            "frontend diagnostics moved; first differing lines:\n{}",
            moved.join("\n")
        );
    }
}
