//! Fuzz-style property tests: the frontend must never panic, whatever
//! bytes it is fed — it returns diagnostics instead. Covers raw random
//! bytes, random token soup (keyword-dense input that gets much deeper
//! into the parser), and mutated valid programs. The fail-fast entry
//! point must also report exactly the recovering one's first diagnostic.

use proptest::prelude::*;

use gcomm_lang::{parse_program, parse_program_diagnostics, LangError};

fn token_soup() -> BoxedStrategy<String> {
    let word = prop::sample::select(vec![
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
    ]);
    prop::collection::vec(word, 0..60)
        .prop_map(|ws| {
            ws.iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .boxed()
}

const SEED_PROGRAM: &str = "program t
param n
real a(n,n), b(n,n) distribute (block, block)
do i = 2, n
  b(i, 1:n) = a(i-1, 1:n)
enddo
end";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse_program(&src);
        let _ = parse_program_diagnostics(&src);
    }

    #[test]
    fn parser_never_panics_on_token_soup(src in token_soup()) {
        let _ = parse_program(&src);
        let _ = parse_program_diagnostics(&src);
    }

    #[test]
    fn parser_never_panics_on_mutated_programs(
        cut_at in 0usize..SEED_PROGRAM.len(),
        insert_at in 0usize..SEED_PROGRAM.len(),
        junk_bytes in prop::collection::vec(32u8..127, 0..10),
    ) {
        // Truncations and random splices of a valid program.
        let truncated = &SEED_PROGRAM[..cut_at];
        let _ = parse_program(truncated);
        let _ = parse_program_diagnostics(truncated);

        let junk = String::from_utf8_lossy(&junk_bytes).into_owned();
        let mut spliced = String::with_capacity(SEED_PROGRAM.len() + junk.len());
        spliced.push_str(&SEED_PROGRAM[..insert_at]);
        spliced.push_str(&junk);
        spliced.push_str(&SEED_PROGRAM[insert_at..]);
        let _ = parse_program(&spliced);
        let _ = parse_program_diagnostics(&spliced);
    }

    #[test]
    fn diagnostics_agree_with_plain_parse_on_success(src in token_soup()) {
        // Whenever the strict parser accepts, the recovering parser must
        // accept with no diagnostics and produce the same program.
        if let Ok(p) = parse_program(&src) {
            match parse_program_diagnostics(&src) {
                Ok(q) => prop_assert_eq!(p, q),
                Err(errs) => prop_assert!(
                    false,
                    "recovering parser rejected input the strict parser accepts: {errs:?}"
                ),
            }
        }
    }
}

/// `parse_program` must fail with exactly the first diagnostic of
/// `parse_program_diagnostics` (text and line), and accept the same AST.
fn assert_first_diagnostic_agrees(src: &str) {
    match (parse_program(src), parse_program_diagnostics(src)) {
        (Ok(p), Ok(q)) => assert_eq!(p, q, "ASTs differ on:\n{src}"),
        (Err(e), Err(errs)) => assert_eq!(Some(&e), errs.first(), "first error differs on:\n{src}"),
        (a, b) => panic!("accept/reject differs ({a:?} vs {b:?}) on:\n{src}"),
    }
}

/// Line- and byte-level mutations of generated programs: dropping or
/// doubling a line strands block terminators at top level and unbalances
/// constructs; byte edits break tokens mid-statement.
#[test]
fn fail_fast_error_is_the_first_recovered_diagnostic() {
    for seed in 0..60u64 {
        let src = proptest::hpf::generate(0x9c077 + seed);
        let lines: Vec<&str> = src.lines().collect();
        for i in 0..lines.len() {
            let mut dropped = lines.clone();
            dropped.remove(i);
            assert_first_diagnostic_agrees(&dropped.join("\n"));
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            assert_first_diagnostic_agrees(&doubled.join("\n"));
        }
        for at in (0..src.len()).step_by(5) {
            if !src.is_char_boundary(at) || !src.is_char_boundary(at + 1) {
                continue;
            }
            for junk in ["", "(", "=", "@"] {
                assert_first_diagnostic_agrees(&format!("{}{junk}{}", &src[..at], &src[at + 1..]));
            }
        }
    }
}

/// One wording for a block terminator with no block to close, and the
/// token quoted once.
#[test]
fn stray_terminators_read_unmatched_from_both_entry_points() {
    for word in ["enddo", "endif", "else"] {
        let src = format!("program t\n{word}\nend");
        let want = LangError::at(2, format!("unmatched `{word}`"));
        assert_eq!(parse_program(&src), Err(want.clone()));
        assert_eq!(parse_program_diagnostics(&src), Err(vec![want]));
    }
}

/// A diagnostic about a token carries that token's line even when the
/// token is the end of its line (the parser reads the line before it steps
/// past the token, not after).
#[test]
fn a_missing_token_at_end_of_line_is_reported_on_that_line() {
    for (src, line, message) in [
        (
            "program t\nparam\nreal a(4)\nend\n",
            2,
            "expected identifier, found end of line",
        ),
        (
            "program t\ndo\nx = 1\nenddo\nend\n",
            2,
            "expected identifier, found end of line",
        ),
        (
            "program t\nreal a(4) distribute (\nreal b(4)\nend\n",
            2,
            "expected `block`, `cyclic`, or `*`, found end of line",
        ),
        (
            "program t\nparam n\ndo i = 1, n, \nenddo\nend\n",
            3,
            "expected integer constant, found end of line",
        ),
    ] {
        let want = LangError::at(line, message);
        assert_eq!(parse_program(src), Err(want.clone()), "on:\n{src}");
        let errs = parse_program_diagnostics(src).expect_err("rejected");
        assert_eq!(errs.first(), Some(&want), "on:\n{src}");
    }
}

/// Interning stays sub-linear per identifier in the number of distinct
/// names: a source that declares 40 000 different identifiers parses
/// within 20× the time of one with 40 000 occurrences of eight (a
/// linear-scan interner reads ~1000×). Both tiers of the interner are
/// driven: names of at most eight bytes and longer ones.
#[test]
fn forty_thousand_distinct_identifiers_parse_in_near_linear_time() {
    fn best_of_three(src: &str) -> std::time::Duration {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                parse_program(src).expect("valid source");
                t.elapsed()
            })
            .min()
            .expect("three runs")
    }
    let distinct = |name: &dyn Fn(usize) -> String| {
        let mut src = String::from("program t\n");
        for line in 0..400 {
            let names: Vec<String> = (0..100).map(|k| name(line * 100 + k)).collect();
            src.push_str(&format!("real {}\n", names.join(", ")));
        }
        src + "end\n"
    };
    let mut repeated = String::from("program t\nreal a, b, c, d, e, f, g, h\n");
    for _ in 0..5_000 {
        repeated.push_str("a = b\nc = d\ne = f\ng = h\n");
    }
    repeated.push_str("end\n");
    let base = best_of_three(&repeated);
    for (tier, src) in [
        ("short", distinct(&|i| format!("x{i}"))),
        ("long", distinct(&|i| format!("identifier_{i}"))),
    ] {
        let took = best_of_three(&src);
        assert!(
            took <= base * 20,
            "{tier} names: 40 000 distinct identifiers took {took:?}, 40 000 occurrences of eight {base:?}"
        );
    }
}

/// Lexing finishes before parsing starts: a lexical error anywhere — here
/// on the last line — is the one diagnostic reported, ahead of a syntax
/// error that sits before it in the source, from both entry points.
#[test]
fn a_lexical_error_on_the_last_line_beats_an_earlier_syntax_error() {
    let src = "program t\nx = = 1\nreal a(4)\na(1) = 2 @\nend";
    let want = LangError::at(4, "unrecognized character `@`");
    assert_eq!(parse_program(src), Err(want.clone()));
    assert_eq!(parse_program_diagnostics(src), Err(vec![want]));
    // Without the stray character the syntax error is what is left.
    let errs = parse_program_diagnostics(&src.replace(" @", "")).expect_err("rejected");
    assert_eq!(errs[0].line, 2, "{errs:?}");
}
