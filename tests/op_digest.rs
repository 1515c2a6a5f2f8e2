//! The outputs of the benchmark's in-process op, pinned: one FNV-1a digest
//! over, per program and per simulator configuration, the placement
//! `report()`, `{:?}` of the lowered `CommProgram`, and the bits of
//! `simulate`'s `total_us` and `messages`.
//!
//! Programs: the six paper kernels under `orig`, `nored`, `comb` and
//! `partial`, and the 400 pinned corpus programs
//! (`hpf::generate(0x6763_1996 + i)`) under `comb`. Configurations: the
//! SP2 model at P = 25, n = 64,
//! nsteps = 10, priced flat and through one collective-backend
//! configuration (a 5×5 torus, `auto`), so both arms of the message
//! lowering are covered.
//!
//! A change that only makes the op cheaper must leave the digest alone; a
//! change that means to move an output re-pins it and says why.

use gcomm::coll::{CollChoice, CollConfig, Topology};
use gcomm::core::{lower_to_sim, Compiled, SimConfig};
use gcomm::machine::{simulate, NetworkModel, ProcGrid};
use gcomm::Strategy;
use proptest::hpf;

/// The digest every output of the op folds into.
const PINNED: u64 = 0xde81_3ace_a5c8_fbd6;

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Folds one compiled program's op outputs under every configuration.
fn fold(h: &mut Fnv, c: &Compiled) {
    let net = NetworkModel::sp2();
    let grid = ProcGrid::balanced(25, c.prog.grid_rank());
    let flat = SimConfig::uniform(c, grid, 64).with("nsteps", 10);
    let torus = Topology::parse("torus:5x5").expect("a valid topology");
    let coll = flat
        .clone()
        .with_coll(CollConfig::new(torus, CollChoice::Auto, net.clone()));
    h.write(c.report().as_bytes());
    for cfg in [&flat, &coll] {
        let lowered = lower_to_sim(c, cfg);
        h.write(format!("{lowered:?}").as_bytes());
        let r = simulate(&lowered, &net);
        h.write(&r.total_us().to_bits().to_le_bytes());
        h.write(&r.messages.to_le_bytes());
    }
}

fn pool_digest(programs: impl IntoIterator<Item = (String, Strategy)>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (src, strategy) in programs {
        let c = gcomm::compile(&src, strategy).expect("pool programs compile");
        fold(&mut h, &c);
    }
    h.0
}

#[test]
fn op_outputs_match_pinned_digest() {
    let kernels = pool_digest(
        gcomm::kernels::all_kernels()
            .into_iter()
            .flat_map(|(_, _, src)| {
                [
                    Strategy::Original,
                    Strategy::EarliestRE,
                    Strategy::Global,
                    Strategy::EarliestPartialRE,
                ]
                .map(|s| (src.to_string(), s))
            }),
    );
    let corpus =
        pool_digest((0..400u64).map(|i| (hpf::generate(0x6763_1996 + i), Strategy::Global)));
    let digest = kernels ^ corpus.rotate_left(29);
    assert_eq!(
        digest, PINNED,
        "op digest {digest:#018x} (kernels {kernels:#018x}, corpus {corpus:#018x}) \
         differs from the pinned {PINNED:#018x}"
    );
}
