//! The one hasher (`gcomm_query::Fingerprinter`) and the structural
//! fingerprints built on it (DESIGN.md §14). Root-level so tier-1 runs it.
//!
//! `core::incr` used to fingerprint an AST or IR by hashing its `Debug`
//! rendering; it now hashes the value through `Hash`. The `Debug` text
//! lives on here as the reference: over the benchmark's 400 corpus
//! programs, the six paper kernels and every routine of the 8 × 50
//! `hpf::apply_edit` module states, two artifacts have the same
//! structural fingerprint **iff** they have the same `Debug` text — the
//! structural hash covers exactly what the rendering covered, and nothing
//! collides.
//!
//! The hasher itself is pinned below: known vectors (it has no per-process
//! state, so they hold on every run and platform), prefix-freedom through
//! `Hash`, the documented absence of split-invariance, and avalanche.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use gcomm::core::incr::split_routines;
use gcomm::lang::{Arena, ExprNode, In};
use gcomm::query::{fingerprint, mix, Fingerprinter};
use proptest::hpf;

/// The benchmark's pinned pools (`benchmark/src/inputs.rs`).
const CORPUS_BASE: u64 = 0x6763_1996;
const MODULE_BASE: u64 = 0xed17_1996;

/// Every routine text of the three pools, deduplicated (an edit leaves 63
/// of a module's 64 routines byte-identical).
fn routine_texts() -> Vec<String> {
    let mut sources: Vec<String> = (0..400).map(|i| hpf::generate(CORPUS_BASE + i)).collect();
    sources.extend(
        gcomm::kernels::all_kernels()
            .into_iter()
            .map(|(_, _, src)| src.to_string()),
    );
    let cfg = hpf::GenConfig {
        max_arrays: 2,
        max_block_stmts: 1,
        max_depth: 1,
    };
    for m in 0..8u64 {
        let mut state = hpf::generate_module_with(MODULE_BASE + m, 64, &cfg);
        for step in 1..=50u64 {
            let next = hpf::apply_edit(&state, (MODULE_BASE + m) * 1000 + step).0;
            sources.push(std::mem::replace(&mut state, next));
        }
        sources.push(state);
    }
    let mut seen = std::collections::HashSet::new();
    sources
        .iter()
        .flat_map(|src| split_routines(src))
        .filter(|chunk| seen.insert(chunk.fp))
        .map(|chunk| chunk.src.to_string())
        .collect()
}

/// Asserts `fp(a) == fp(b)` ⇔ `debug(a) == debug(b)` over `items`.
fn assert_same_partition(what: &str, items: &[(String, u64)]) {
    let mut by_debug: HashMap<&str, u64> = HashMap::new();
    let mut by_fp: HashMap<u64, &str> = HashMap::new();
    for (debug, fp) in items {
        let seen_fp = *by_debug.entry(debug).or_insert(*fp);
        assert_eq!(seen_fp, *fp, "{what}: one Debug text, two fingerprints");
        let seen_debug = *by_fp.entry(*fp).or_insert(debug);
        assert_eq!(
            seen_debug, debug,
            "{what}: one fingerprint, two Debug texts"
        );
    }
    assert!(by_fp.len() > 900, "{what}: only {} classes", by_fp.len());
}

fn fp_and_debug<T: Hash + Debug>(v: &T) -> (String, u64) {
    (format!("{v:?}"), Fingerprinter::of(v))
}

#[test]
fn structural_fingerprints_partition_exactly_like_debug_text() {
    let mut asts = Vec::new();
    let mut irs = Vec::new();
    for text in routine_texts() {
        let Ok(ast) = gcomm::parse_program(&text) else {
            continue;
        };
        asts.push(fp_and_debug(&ast));
        if let Ok(ir) = gcomm::ir::lower(&ast) {
            irs.push(fp_and_debug(&ir));
        }
    }
    assert_same_partition("ast", &asts);
    assert_same_partition("ir", &irs);
}

/// Branch conditions hash as the node-ordered map they were, so the order
/// lowering meets them in must not reach the hash: an `if` in an `else`
/// arm branches from a node made after the join a later `if` branches
/// from, and the lowered list is still in node order.
#[test]
fn branch_cond_insertion_order_does_not_reach_the_hash() {
    let src = "program p\nparam n\nreal a(n), b(n) distribute (block)\nreal x\n\
               if (x < 1) then\nb(1:n-1) = a(2:n)\nelse\n\
               if (x > 2) then\nb(1:n) = a(1:n)\nendif\nendif\n\
               if (x > 0) then\nb(2:n) = a(1:n-1)\nendif\nend\n";
    let ir = gcomm::ir::lower(&gcomm::parse_program(src).unwrap()).unwrap();
    let nodes: Vec<_> = ir.branch_conds.iter().map(|&(node, _)| node).collect();
    assert_eq!(nodes.len(), 3, "three conditions lowered");
    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "{nodes:?}");
}

#[test]
fn signed_zeros_hash_apart_as_their_debug_text_does() {
    let mut arena = Arena::default();
    let [pos, neg, a, b] = [0.0, -0.0, 1.5, 1.5].map(|v| arena.push(ExprNode::Num(v)));
    let (pos, neg) = (In(&arena, &pos), In(&arena, &neg));
    assert_ne!(format!("{pos:?}"), format!("{neg:?}"));
    assert_ne!(Fingerprinter::of(&pos), Fingerprinter::of(&neg));
    assert_eq!(
        Fingerprinter::of(&In(&arena, &a)),
        Fingerprinter::of(&In(&arena, &b))
    );
}

#[test]
fn fingerprinter_known_vectors() {
    let long: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    for (input, want) in [
        (&b""[..], 0x791d_6c98_5f5d_0855u64),
        (b"a", 0xd01e_a33a_32da_fb01),
        (b"1234567", 0xe9dc_4e6d_6fca_3a2f),
        (b"12345678", 0x4b27_d997_6fd0_bd2e),
        (b"123456789", 0x01ba_9a7c_ee65_0655),
        (&long, 0x0366_b144_2f72_c214),
    ] {
        assert_eq!(fingerprint(input), want, "{} bytes", input.len());
    }
    // `usize` hashes as `u64`, and integer writes are value-based.
    let mut a = Fingerprinter::default();
    a.write_usize(7);
    let mut b = Fingerprinter::default();
    b.write_u64(7);
    assert_eq!(a.finish(), b.finish());
    assert_eq!(Fingerprinter::of(&7usize), Fingerprinter::of(&7u64));
}

#[test]
fn hash_is_prefix_free_and_writes_are_not_split_invariant() {
    assert_ne!(
        Fingerprinter::of(&("ab", "c")),
        Fingerprinter::of(&("a", "bc"))
    );
    let mut split = Fingerprinter::default();
    split.write(b"ab");
    split.write(b"c");
    assert_ne!(split.finish(), fingerprint(b"abc"));
    assert_ne!(fingerprint(b"a"), fingerprint(b"a\0"));
    assert_ne!(mix(1, 2), mix(2, 1));
}

#[test]
fn single_bit_flips_avalanche() {
    let base: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
    let h0 = fingerprint(&base);
    let changed: u32 = (0..512)
        .map(|bit| {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (fingerprint(&flipped) ^ h0).count_ones()
        })
        .sum();
    let mean = f64::from(changed) / 512.0;
    assert!(mean >= 20.0, "mean flipped output bits {mean} (expect ~32)");
}
