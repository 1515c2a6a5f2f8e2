//! The benchmark's `edit` pool (`benchmark/src/inputs.rs::edit_chains`),
//! for the root tests that pin themselves to it (`#[path]`-included).

use proptest::hpf;

/// Module `m` of the pool (0..8): 64 small routines as generated, then its
/// 50 states that each differ from the one before by one `hpf::apply_edit`.
pub fn edit_chain(m: u64) -> Vec<String> {
    let cfg = hpf::GenConfig {
        max_arrays: 2,
        max_block_stmts: 1,
        max_depth: 1,
    };
    let seed = 0xed17_1996 + m;
    let mut states = vec![hpf::generate_module_with(seed, 64, &cfg)];
    for step in 1..=50 {
        let next = hpf::apply_edit(&states[states.len() - 1], seed * 1000 + step).0;
        states.push(next);
    }
    states
}
