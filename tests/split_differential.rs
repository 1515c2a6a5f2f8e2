//! The one-pass `split_routines` against the two-pass splitter it replaced
//! (kept verbatim in `tests/support/split_reference.rs`): identical chunks
//! — name, text, fingerprint, line offset — over the benchmark's `edit`
//! module states, its corpus programs, and hand-written line shapes.
//!
//! The split points are load-bearing beyond this repository's tests: the
//! routine fingerprints key the query engine's routine memo, so a chunk
//! boundary that moved would silently change what an edit reuses.

use gcomm::core::incr::split_routines;
use proptest::hpf;

#[path = "support/edit_pool.rs"]
mod edit_pool;
#[path = "support/split_reference.rs"]
mod split_reference;

/// Panics unless both splitters agree on `src`; returns the chunk count.
fn assert_same(src: &str) -> usize {
    let want = split_reference::split_routines(src);
    let got = split_routines(src);
    assert_eq!(got.len(), want.len(), "chunk counts differ on {src:?}");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            (&*g.name, g.src, g.fp, g.line_offset),
            (w.name.as_str(), w.src, w.fp, w.line_offset),
            "chunks differ on {src:?}"
        );
    }
    let joined: String = got.iter().map(|c| c.src).collect();
    assert_eq!(joined, src, "chunks must reassemble the input");
    got.len()
}

#[test]
fn edit_module_states_split_identically() {
    let states: Vec<String> = (0..8).flat_map(edit_pool::edit_chain).collect();
    assert_eq!(states.len(), 8 * 51);
    let chunks: usize = states.iter().map(|s| assert_same(s)).sum();
    assert!(chunks > 8 * 51 * 40, "modules must stay multi-routine");
}

#[test]
fn corpus_programs_split_identically() {
    for i in 0..400u64 {
        assert_eq!(assert_same(&hpf::generate(0x6763_1996 + i)), 1);
    }
}

#[test]
fn hand_written_line_shapes_split_identically() {
    const A: &str = "program a\nparam n\nreal q(n) distribute (block)\nq(1:n) = 1\n";
    let cases: Vec<String> = vec![
        String::new(),
        "\n".into(),
        "\n\n\n".into(),
        "! only a comment\n! and another\n".into(),
        "end".into(),
        "end\n".into(),
        "end\nend\nend".into(),
        // CRLF, tabs, form feeds and vertical tabs before the keyword.
        format!("{}end\r\nprogram b\r\nend\r\n", A.replace('\n', "\r\n")),
        format!("{A}\tend\n\t \tprogram\tb\n\x0bend\n\x0c end\n"),
        "program a\rend\n".into(),
        // Blanks only `trim_start` knows: no-break space, ideographic
        // space, next-line, em space — before `end`, `program` and a name.
        format!("{A}\u{a0}end\nprogram b\n\u{3000}end\n"),
        format!("{A} \u{a0} end\n\u{2003}program\u{a0}\u{3000}b\n\u{85}end\n"),
        format!("{A}\u{a0}\nend\n\u{3000}\n\u{a0}enddo\n\u{a0}end_\nend\n"),
        "\u{a0}".into(),
        "\u{a0}\u{3000}end".into(),
        // Non-blank non-ASCII first: never a keyword.
        format!("{A}éend\nend\nprogram é\nend\n"),
        // A non-ASCII routine name stops at its first non-word byte.
        "program café\nend\nprogram ünï\nend\nprogram x_1é\nend\n".into(),
        // Case, trailing comments, words that only start like `end`.
        format!("{A}END\nprogram B\nEnd ! c\nProgram MiXed_9\neNd!x\n"),
        format!("{A}endx\nend_\nend1\nenddo\nendif\nendprogram\nend\n"),
        format!("{A}end(\nprogram b\nend=1\nprogram c\nend\u{a0}\n"),
        // `program` with no name, then one with: the first *named* line wins.
        "program\nprogram \nprogram ! none\nprogram (x)\nprogram late\nprogram later\nend\n".into(),
        "program\nend\nprogram\nend\n".into(),
        "programx y\nprogram_ z\nprogram\u{a0}w\nend\n".into(),
        "program a b c\nend\n".into(),
        "program a".into(),
        "program".into(),
        // The name on the next line does not count.
        "program\nname\nend\n".into(),
        "program \u{a0}\nname\nend\n".into(),
        // No trailing newline, trailing text, names found in trailing text.
        format!("{A}end"),
        format!("{A}end\n\n! trailing\n"),
        format!("{A}end\n   "),
        "x = 1\nend\nprogram tail\n".into(),
        "program head\nend\nprogram tail\n".into(),
        "x = 1\nend\ny = 2\nend\nprogram tail".into(),
        // Blank lines between routines shift line offsets.
        format!("\n\n{A}end\n\n\n{A}end\n\n"),
        // Lines of every length around the eight-byte scan step.
        (0..40)
            .map(|n| format!("{}\n", "x".repeat(n)))
            .chain(["end\n".to_string()])
            .chain((0..40).map(|n| format!("{}end\n", " ".repeat(n))))
            .collect(),
    ];
    for case in &cases {
        assert_same(case);
    }
    // Every case again behind a prefix of each length 0..8, so each line
    // start meets each alignment of the scan.
    for case in &cases {
        for pad in 1..8 {
            assert_same(&format!("{}\n{case}", "c".repeat(pad - 1)));
        }
    }
}

#[test]
fn seeded_line_soup_splits_identically() {
    // Lines drawn from the shapes that matter, in random order.
    const LINES: [&str; 16] = [
        "end\n",
        "  end\n",
        "END ! x\n",
        "enddo\n",
        "\u{a0}end\n",
        "\u{3000}program wide\n",
        "program p1\n",
        "Program P2\n",
        "program\n",
        "a(1:n) = b(1:n)\n",
        "\n",
        "\r\n",
        "   \n",
        "é\n",
        "end",
        "\tprogram\tq",
    ];
    let mut rng = proptest::test_runner::TestRng::new(0x5b11_7e57);
    for _ in 0..3000 {
        let n = rng.below(12) as usize;
        let text: String = (0..n)
            .map(|_| LINES[rng.below(LINES.len() as u64) as usize])
            .collect();
        assert_same(&text);
    }
}
