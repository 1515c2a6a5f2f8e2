//! The collective-algorithm library: lowering combined patterns to
//! concrete step schedules.
//!
//! Each algorithm turns a [`PatternShape`] — what the code generator knows
//! about a combined message — into a list of [`SimStep`]s the simulator
//! executes verbatim. The *logical* payload (`Msg::bytes`) is the same
//! under every algorithm; only the wire schedule differs. On the flat
//! topology the `p2p` lowering reproduces the legacy pricing (`rounds`
//! equal splits of the payload at unit multipliers).

use gcomm_machine::SimStep;

use crate::topo::Topology;

/// A collective algorithm, selected with `--coll` on `gcommc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The legacy lowering: the paper's flat-model pricing, expressed as
    /// steps (`rounds` equal splits at binomial-tree partner distances).
    P2p,
    /// Ring: `parts − 1` unit-distance steps of `bytes / parts` each —
    /// bandwidth-optimal, latency-heavy.
    Ring,
    /// Recursive doubling: `⌈log₂ parts⌉` full-payload steps at partner
    /// distances 1, 2, 4, … — latency-optimal, bandwidth-heavy.
    Rdbl,
    /// Bine tree: recursive doubling's step count at negabinary partner
    /// distances 1, 1, 3, 5, 11, … — the smaller reach keeps more steps
    /// on cheap link tiers of hierarchical topologies.
    Bine,
}

/// Every algorithm, in the deterministic candidate order the selector
/// sweeps (`P2p` first, so exact cost ties resolve to the legacy lowering).
pub const ALL_ALGOS: [Algo; 4] = [Algo::P2p, Algo::Ring, Algo::Rdbl, Algo::Bine];

impl Algo {
    /// The `--coll` spelling of this algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algo::P2p => "p2p",
            Algo::Ring => "ring",
            Algo::Rdbl => "rdbl",
            Algo::Bine => "bine",
        }
    }

    /// Parses a `--coll` algorithm name (`auto` is not an algorithm; see
    /// [`crate::select::CollChoice::parse`]).
    pub fn parse(s: &str) -> Option<Algo> {
        match s {
            "p2p" => Some(Algo::P2p),
            "ring" => Some(Algo::Ring),
            "rdbl" => Some(Algo::Rdbl),
            "bine" => Some(Algo::Bine),
            _ => None,
        }
    }
}

/// What the code generator knows about a combined message: the pattern
/// class and its geometry on the linearized processor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternShape {
    /// An NNC shift: one partner, `dist` ranks away.
    Shift {
        /// Linearized rank distance (≥ 1).
        dist: u64,
    },
    /// A reduction/broadcast/all-gather-style exchange over `parts`
    /// participating ranks.
    Tree {
        /// Participating ranks (the reduction's owner set, or P).
        parts: u64,
    },
}

impl PatternShape {
    /// The legacy flat-model round count of this pattern (1 for shifts,
    /// `⌈log₂ parts⌉` for trees) — exactly `codegen`'s historical rounds.
    pub fn legacy_rounds(self) -> u64 {
        match self {
            PatternShape::Shift { .. } => 1,
            PatternShape::Tree { parts } => ceil_log2(parts).max(1),
        }
    }
}

/// `⌈log₂ p⌉` (0 for p ≤ 1), the paper's tree-collective round count.
pub(crate) fn ceil_log2(p: u64) -> u64 {
    (64 - (p.max(1) - 1).leading_zeros()) as u64
}

/// Partner distance of Bine-tree step `s`: the negabinary sequence
/// `d_s = (2^(s+1) + (−1)^s) / 3` = 1, 1, 3, 5, 11, 21, …
pub fn bine_dist(s: u64) -> u64 {
    let sign: i64 = if s.is_multiple_of(2) { 1 } else { -1 };
    (((1i64 << (s + 1).min(62)) + sign) / 3) as u64
}

fn step(bytes: f64, topo: &Topology, dist: u64) -> SimStep {
    let link = topo.link(dist);
    SimStep {
        bytes,
        startup_mult: link.startup_mult,
        bw_mult: link.bw_mult,
    }
}

/// Lowers `shape` carrying `bytes` of logical payload with `algo` on
/// `topo`. Returns `None` when the algorithm does not apply to the
/// pattern (tree algorithms on a shift); the selector then falls back to
/// `p2p`, which lowers every shape.
pub fn lower(algo: Algo, shape: PatternShape, bytes: f64, topo: &Topology) -> Option<Vec<SimStep>> {
    match shape {
        PatternShape::Shift { dist } => {
            let d = dist.max(1);
            match algo {
                // One direct message across however many tiers `d` spans.
                Algo::P2p => Some(vec![step(bytes, topo, d)]),
                // Store-and-forward through the `d` unit-distance
                // neighbours: more startups, but every hop rides the
                // cheapest tier.
                Algo::Ring => Some((0..d).map(|_| step(bytes, topo, 1)).collect()),
                Algo::Rdbl | Algo::Bine => None,
            }
        }
        PatternShape::Tree { parts } => {
            let p = parts.max(2);
            let r = ceil_log2(p).max(1);
            match algo {
                // The legacy pricing as steps: `r` equal splits at
                // binomial-tree partner distances p/2, p/4, …, 1. At unit
                // multipliers this is `rounds × msg_time(bytes/rounds)`.
                Algo::P2p => Some(
                    (1..=r)
                        .map(|s| step(bytes / r as f64, topo, (p >> s).max(1)))
                        .collect(),
                ),
                Algo::Ring => Some(
                    (0..p - 1)
                        .map(|_| step(bytes / p as f64, topo, 1))
                        .collect(),
                ),
                Algo::Rdbl => Some((0..r).map(|s| step(bytes, topo, 1 << s.min(62))).collect()),
                Algo::Bine => Some((0..r).map(|s| step(bytes, topo, bine_dist(s))).collect()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcomm_machine::NetworkModel;

    fn cost(steps: &[SimStep], net: &NetworkModel) -> f64 {
        steps.iter().map(|s| s.time_us(net)).sum()
    }

    #[test]
    fn bine_distances_follow_the_negabinary_sequence() {
        let want = [1u64, 1, 3, 5, 11, 21, 43, 85];
        for (s, &w) in want.iter().enumerate() {
            assert_eq!(bine_dist(s as u64), w, "step {s}");
        }
    }

    #[test]
    fn p2p_on_flat_matches_the_legacy_price() {
        // The legacy model prices a tree collective as
        // rounds × msg_time(bytes/rounds); p2p steps on the flat topology
        // must reproduce it (up to float association of the sum).
        let net = NetworkModel::sp2();
        for parts in [2u64, 8, 25, 64] {
            for bytes in [64.0, 4096.0, 1.0e6] {
                let shape = PatternShape::Tree { parts };
                let steps = lower(Algo::P2p, shape, bytes, &Topology::Flat).unwrap();
                let r = shape.legacy_rounds();
                assert_eq!(steps.len() as u64, r);
                let legacy = r as f64 * net.msg_time_us(bytes / r as f64);
                let lowered = cost(&steps, &net);
                assert!(
                    (lowered - legacy).abs() <= 1e-9 * legacy.max(1.0),
                    "parts={parts} bytes={bytes}: {lowered} vs {legacy}"
                );
            }
        }
    }

    #[test]
    fn tree_algorithms_trade_latency_for_bandwidth() {
        // Small payloads: the log-step trees beat the ring. Large
        // payloads: the ring's smaller wire volume wins.
        let net = NetworkModel::sp2();
        let topo = Topology::Flat;
        let shape = PatternShape::Tree { parts: 25 };
        let at = |algo, bytes| cost(&lower(algo, shape, bytes, &topo).unwrap(), &net);
        assert!(at(Algo::Rdbl, 64.0) < at(Algo::Ring, 64.0));
        assert!(at(Algo::Ring, 4.0e6) < at(Algo::Rdbl, 4.0e6));
    }

    #[test]
    fn bine_never_loses_to_rdbl_on_hierarchical_topologies() {
        // Same step count, strictly smaller partner distances → never a
        // more expensive tier.
        let net = NetworkModel::sp2();
        for topo in [
            Topology::FatTree { node: 4, switch: 4 },
            Topology::Torus { x: 5, y: 5 },
        ] {
            for parts in [4u64, 8, 25, 64] {
                for bytes in [64.0, 8192.0, 1.0e6] {
                    let shape = PatternShape::Tree { parts };
                    let b = cost(&lower(Algo::Bine, shape, bytes, &topo).unwrap(), &net);
                    let r = cost(&lower(Algo::Rdbl, shape, bytes, &topo).unwrap(), &net);
                    assert!(
                        b <= r + 1e-9,
                        "{}: parts={parts} bytes={bytes}: bine {b} > rdbl {r}",
                        topo.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn shift_ring_beats_direct_p2p_across_the_spine_for_bulk() {
        // A distance-2 shift on 2-rank nodes with one node per switch:
        // both hops of the ring are node-local while the direct message
        // crosses the oversubscribed spine, so store-and-forward moves
        // bulk data faster.
        let net = NetworkModel::sp2();
        let topo = Topology::FatTree { node: 2, switch: 1 };
        let shape = PatternShape::Shift { dist: 2 };
        let big = 4.0e6;
        let ring = cost(&lower(Algo::Ring, shape, big, &topo).unwrap(), &net);
        let p2p = cost(&lower(Algo::P2p, shape, big, &topo).unwrap(), &net);
        assert!(ring < p2p, "ring {ring} vs p2p {p2p}");
        // Long tiny-payload shifts prefer the single direct message: six
        // store-and-forward startups cost more than one spine crossing.
        let topo = Topology::FatTree { node: 2, switch: 2 };
        let shape = PatternShape::Shift { dist: 6 };
        let tiny = 8.0;
        let ring = cost(&lower(Algo::Ring, shape, tiny, &topo).unwrap(), &net);
        let p2p = cost(&lower(Algo::P2p, shape, tiny, &topo).unwrap(), &net);
        assert!(p2p < ring, "p2p {p2p} vs ring {ring}");
    }

    #[test]
    fn tree_algorithms_do_not_apply_to_shifts() {
        let shape = PatternShape::Shift { dist: 3 };
        assert!(lower(Algo::Rdbl, shape, 64.0, &Topology::Flat).is_none());
        assert!(lower(Algo::Bine, shape, 64.0, &Topology::Flat).is_none());
    }
}
