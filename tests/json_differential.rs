//! `Json::parse` against the parser it replaced (kept verbatim in
//! `tests/support/json_reference.rs`): the identical `Result<Json, String>`
//! — value, error text, offsets — for every input, and no panic on any
//! byte sequence that reaches it through the frame layer's lossy decode.

use gcomm::serve::frame::into_text;
use gcomm::serve::json::{escape, Json};
use gcomm::serve::{compile_request, SimSpec};
use gcomm::{BudgetSpec, Strategy};
use proptest::hpf;
use proptest::test_runner::TestRng;

#[path = "support/edit_pool.rs"]
mod edit_pool;
#[path = "support/json_reference.rs"]
mod json_reference;

fn assert_same(text: &str) {
    assert_eq!(
        Json::parse(text),
        json_reference::parse(text),
        "parsers disagree on {text:?}"
    );
}

/// Every request shape the benchmark sends, over its own inputs.
#[test]
fn benchmark_request_shapes_parse_identically() {
    let sim = SimSpec::flat("sp2", 64);
    for i in 0..400u64 {
        let src = hpf::generate(0x6763_1996 + i);
        let req = compile_request(i + 1, &src, Strategy::Global, None, Some(&sim));
        assert_same(&req);
        assert!(Json::parse(&req).is_ok());
    }
    for m in 0..8 {
        for state in edit_pool::edit_chain(m) {
            let req = compile_request(900_000 + m, &state, Strategy::Global, None, None);
            assert_same(&req);
            let parsed = Json::parse(&req).expect("a compile request parses");
            assert_eq!(
                parsed.get("source").and_then(Json::as_str),
                Some(&*state),
                "the source must survive the round trip"
            );
        }
    }
    let mut torus = SimSpec::flat("now", 16);
    torus.machine = "torus:5x5".into();
    torus.coll = "auto".into();
    let budget = BudgetSpec::parse("steps=500").expect("a budget spec");
    for text in [
        compile_request(
            7,
            "program p\nend",
            Strategy::EarliestRE,
            Some(&budget),
            Some(&torus),
        ),
        r#"{"op":"stats","id":0,"stable":true}"#.to_string(),
        r#"{"op":"ping","id":1}"#.to_string(),
        r#"{"op":"sleep","id":1,"ms":0}"#.to_string(),
        r#"{"op":"version"}"#.to_string(),
        r#"{"op":"shutdown","id":null}"#.to_string(),
    ] {
        assert_same(&text);
    }
}

/// The escape table: every escape and every way to get one wrong, alone
/// and between runs of each length around the scanner's eight-byte step.
#[test]
fn escape_table_parses_identically() {
    let mut bodies: Vec<String> = [
        // The one-byte escapes and the escapes of `escape()`'s output.
        r#"\"\\\/\b\f\n\r\t"#,
        r#"\u0041\u00e9\u20ac\uffff\uFFFF\u0020"#,
        // Surrogates: a pair, pairs back to back, lone halves, a high
        // followed by something else, a low first.
        r#"\ud83d\ude00"#,
        r#"\ud83d\ude00\ud83d\ude00"#,
        r#"\ud83d"#,
        r#"\ude00"#,
        r#"\ud83dx"#,
        r#"\ud83d\n"#,
        r#"\ud83d\u0041"#,
        r#"\ud83d\ud83d"#,
        r#"\ud83d\x"#,
        r#"\ud83d\"#,
        r#"\ude00\ud83d"#,
        r#"\udbff\udfff"#,
        r#"\ud800\udc00"#,
        // Truncated and malformed `\u`.
        r#"\u"#,
        r#"\u1"#,
        r#"\u12"#,
        r#"\u123"#,
        r#"\u12g4"#,
        r#"\u+123"#,
        r#"\u 123"#,
        r#"\uéé"#,
        // Unknown escapes, including a non-ASCII byte after the backslash.
        r#"\q"#,
        r#"\N"#,
        r#"\0"#,
        r#"\é"#,
        r#"\😀"#,
        r#"\"#,
        // Multi-byte UTF-8 against each delimiter.
        "é",
        "é\\n",
        "\\né",
        "😀\\\\😀",
        "€\\\"€",
        "\u{a0}\\t\u{3000}",
        "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
        "",
    ]
    .map(String::from)
    .to_vec();
    // Every control byte, raw and escaped; DEL is not a control byte here.
    for b in 0u8..0x20 {
        bodies.push(char::from(b).to_string());
        bodies.push(format!("ab{}cd", char::from(b)));
        bodies.push(format!("\\u{b:04x}"));
    }
    bodies.push("\u{7f}".into());

    for body in &bodies {
        assert_same(&format!("\"{body}\""));
        assert_same(&format!("\"{body}")); // unterminated
        assert_same(&format!("{{\"k{body}\":\"{body}\"}}"));
        assert_same(&format!("[\"{body}\",\"{body}\"]"));
        for pad in 0..18 {
            let run = "x".repeat(pad);
            assert_same(&format!("\"{run}{body}\""));
            assert_same(&format!("\"{body}{run}\""));
            assert_same(&format!("\"{run}{body}{run}é{body}\""));
            assert_same(&format!("{}\"{run}{body}\"", " ".repeat(pad % 8)));
        }
    }
    // What the emitter writes comes back, through either parser.
    for body in &bodies {
        let lit = escape(body);
        assert_same(&lit);
        assert_eq!(
            Json::parse(&lit).ok().as_ref().and_then(Json::as_str),
            Some(&**body)
        );
    }
}

/// The module's own fuzz generator (`json::tests`), differentially: byte
/// soup through the lossy decode, then protocol-ish fragment soup — plus a
/// soup of string-literal pieces, the part of the parser that was rewritten.
#[test]
fn fuzzed_inputs_parse_identically_and_never_panic() {
    let mut rng = TestRng::new(0x5eed_cafe);
    for _ in 0..20_000 {
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        assert_same(&into_text(bytes));
    }
    // The same soup inside a string literal, where most bytes are legal.
    for _ in 0..20_000 {
        let len = rng.below(48) as usize;
        let mut bytes = vec![b'"'];
        bytes.extend((0..len).map(|_| match rng.below(8) {
            0 => b'\\',
            1 => b'"',
            2 => rng.below(0x20) as u8,
            3 => 0x80 + rng.below(0x80) as u8,
            _ => 0x20 + rng.below(0x5f) as u8,
        }));
        bytes.push(b'"');
        assert_same(&into_text(bytes));
    }
    let frags = [
        "{", "}", "[", "]", ",", ":", "\"op\"", "1", "null", "\\", "\"",
    ];
    for _ in 0..20_000 {
        let n = rng.below(12) as usize;
        let text: String = (0..n)
            .map(|_| frags[rng.below(frags.len() as u64) as usize])
            .collect();
        assert_same(&text);
    }
    let pieces = [
        "\"", "\\", "\\n", "\\\"", "\\\\", "\\u", "\\ud83d", "\\ude00", "0041", "d83d", "n", "u",
        "é", "😀", "\u{1}", "\n", "abcdefgh", "xyz", " ", ":", ",", "[", "]",
    ];
    for _ in 0..40_000 {
        let n = rng.below(10) as usize;
        let text: String = (0..n)
            .map(|_| pieces[rng.below(pieces.len() as u64) as usize])
            .collect();
        assert_same(&format!("\"{text}"));
    }
}

#[test]
fn lossy_frames_decode_like_from_utf8_lossy() {
    let mut rng = TestRng::new(0xf4a3e);
    for _ in 0..5_000 {
        let len = rng.below(40) as usize;
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.below(4) {
                0 => rng.below(256) as u8,
                _ => 0x20 + rng.below(0x5f) as u8,
            })
            .collect();
        assert_eq!(
            into_text(bytes.clone()),
            String::from_utf8_lossy(&bytes).into_owned()
        );
    }
    let euro = "a€b".as_bytes().to_vec();
    assert_eq!(into_text(euro), "a€b");
}
