//! The inputs the persisted goldens are pinned on: the six paper kernels
//! and the first 40 programs of the benchmark's corpus pool.

use proptest::hpf;

/// The benchmark's pinned corpus pool (`benchmark/src/inputs.rs`).
const CORPUS_BASE: u64 = 0x6763_1996;

/// The six paper kernels and the first 40 corpus programs, labelled.
pub fn pinned_sources() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(bench, routine, src)| (format!("{bench}:{routine}"), src.to_string()))
        .collect();
    sources.extend((0..40).map(|i| (format!("corpus:{i}"), hpf::generate(CORPUS_BASE + i))));
    sources
}
