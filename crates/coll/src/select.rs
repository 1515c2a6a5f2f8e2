//! Per-pattern algorithm selection along the latency/bandwidth pareto
//! frontier.
//!
//! For every (pattern, size, topology, network) the selector sweeps the
//! applicable algorithms, splits each candidate's cost into a latency
//! term (startup × tier multipliers) and a transfer term (bytes over
//! tier-scaled bandwidth), and — for `--coll auto` — picks the candidate
//! whose *exact* step-sum cost (the very expression
//! [`gcomm_machine::Msg::time_us`] charges) is minimal. `p2p` is always a
//! candidate and wins ties, so `auto` is never costlier than `p2p` by
//! construction. Nothing is memoized: a sweep is at most four closed-form
//! candidates and measured no dearer than a probe of a shared memo.

use gcomm_machine::{NetworkModel, SimStep};

use crate::algo::{lower, Algo, PatternShape, ALL_ALGOS};
use crate::topo::Topology;

/// The `--coll` selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollChoice {
    /// Sweep the candidates and take the cheapest (ties to `p2p`).
    Auto,
    /// Force one algorithm (falling back to `p2p` where it cannot lower).
    Fixed(Algo),
}

impl CollChoice {
    /// Parses a `--coll` spec: `auto`, `ring`, `rdbl`, `bine`, or `p2p`.
    pub fn parse(s: &str) -> Option<CollChoice> {
        match s {
            "auto" => Some(CollChoice::Auto),
            _ => Algo::parse(s).map(CollChoice::Fixed),
        }
    }

    /// The canonical spelling (`parse(describe()) == self`).
    pub fn describe(self) -> &'static str {
        match self {
            CollChoice::Auto => "auto",
            CollChoice::Fixed(a) => a.name(),
        }
    }
}

/// A complete collective-backend configuration, carried by
/// `SimConfig::coll`. Holds the network model because algorithm selection
/// trades startup against bandwidth at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub struct CollConfig {
    /// The interconnect topology.
    pub topo: Topology,
    /// The selection policy.
    pub choice: CollChoice,
    /// The network the schedule will be priced on.
    pub net: NetworkModel,
}

impl CollConfig {
    /// Bundles a configuration.
    pub fn new(topo: Topology, choice: CollChoice, net: NetworkModel) -> Self {
        CollConfig { topo, choice, net }
    }

    /// Canonical `topology/choice` string — the cache-key component the
    /// serve path embeds (the network is already keyed by its profile).
    pub fn describe(&self) -> String {
        format!("{}/{}", self.topo.describe(), self.choice.describe())
    }
}

/// One swept candidate with its cost split along the pareto axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The algorithm.
    pub algo: Algo,
    /// Latency term: Σ startup × tier multiplier, µs.
    pub latency_us: f64,
    /// Transfer term: Σ bytes / (bw(bytes) × tier multiplier), µs.
    pub transfer_us: f64,
    /// Exact step-sum cost — what the simulator will charge. Equals
    /// latency + transfer up to float association.
    pub cost_us: f64,
    /// Steps in the schedule.
    pub steps: u64,
}

/// Sweeps every applicable algorithm for `shape` at `bytes` on
/// (`topo`, `net`), in [`ALL_ALGOS`] order.
pub fn sweep(
    topo: &Topology,
    net: &NetworkModel,
    shape: PatternShape,
    bytes: f64,
) -> Vec<Candidate> {
    ALL_ALGOS
        .iter()
        .filter_map(|&algo| {
            let steps = lower(algo, shape, bytes, topo)?;
            let mut latency = 0.0f64;
            let mut transfer = 0.0f64;
            for s in &steps {
                latency += net.startup_us * s.startup_mult;
                if s.bytes > 0.0 {
                    transfer += s.bytes / (net.bandwidth_mb(s.bytes) * s.bw_mult).max(1e-9);
                }
            }
            Some(Candidate {
                algo,
                latency_us: latency,
                transfer_us: transfer,
                cost_us: exact_cost(&steps, net),
                steps: steps.len() as u64,
            })
        })
        .collect()
}

/// The pareto frontier of a sweep: candidates no other candidate beats on
/// both the latency and the transfer axis. The min-total-cost candidate
/// is always on the frontier, so `auto`'s pick never leaves it.
pub fn pareto(cands: &[Candidate]) -> Vec<Candidate> {
    cands
        .iter()
        .filter(|c| {
            !cands.iter().any(|o| {
                o.latency_us <= c.latency_us
                    && o.transfer_us <= c.transfer_us
                    && (o.latency_us < c.latency_us || o.transfer_us < c.transfer_us)
            })
        })
        .cloned()
        .collect()
}

/// The exact cost the simulator charges for a step schedule (same
/// per-step expression and summation order as [`gcomm_machine::Msg::time_us`]).
fn exact_cost(steps: &[SimStep], net: &NetworkModel) -> f64 {
    steps.iter().map(|s| s.time_us(net)).sum()
}

/// The `auto` selection: the cheapest applicable algorithm under the
/// exact step-sum cost, ties to the earliest candidate (`p2p`).
pub fn select(cfg: &CollConfig, shape: PatternShape, bytes: f64) -> Algo {
    let mut best = Algo::P2p;
    let mut best_cost = f64::INFINITY;
    for c in sweep(&cfg.topo, &cfg.net, shape, bytes) {
        if c.cost_us < best_cost {
            best = c.algo;
            best_cost = c.cost_us;
        }
    }
    best
}

/// A lowered message schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The algorithm that produced the schedule.
    pub algo: Algo,
    /// The step list for [`gcomm_machine::Msg::steps`].
    pub steps: Vec<SimStep>,
    /// True when a forced algorithm could not lower this shape and the
    /// schedule fell back to `p2p`.
    pub fallback: bool,
}

/// Lowers one combined message under `cfg`, recording the `coll.*`
/// observability counters.
pub fn lower_msg(cfg: &CollConfig, shape: PatternShape, bytes: f64) -> Lowered {
    let (algo, fallback) = match cfg.choice {
        CollChoice::Auto => (select(cfg, shape, bytes), false),
        CollChoice::Fixed(a) => {
            if lower(a, shape, bytes, &cfg.topo).is_some() {
                (a, false)
            } else {
                (Algo::P2p, true)
            }
        }
    };
    let steps = lower(algo, shape, bytes, &cfg.topo).expect("p2p lowers every shape");
    gcomm_obs::count("coll.lowered", 1);
    gcomm_obs::count("coll.steps", steps.len() as u64);
    gcomm_obs::count(
        match algo {
            Algo::Ring => "coll.selected_ring",
            Algo::Rdbl | Algo::Bine => "coll.selected_tree",
            Algo::P2p => "coll.selected_p2p",
        },
        1,
    );
    if fallback {
        gcomm_obs::count("coll.fallback", 1);
    }
    Lowered {
        algo,
        steps,
        fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(topo: &str, choice: &str) -> CollConfig {
        CollConfig::new(
            Topology::parse(topo).unwrap(),
            CollChoice::parse(choice).unwrap(),
            NetworkModel::sp2(),
        )
    }

    #[test]
    fn choice_parse_roundtrips() {
        for s in ["auto", "ring", "rdbl", "bine", "p2p"] {
            let c = CollChoice::parse(s).unwrap();
            assert_eq!(c.describe(), s);
        }
        assert!(CollChoice::parse("magic").is_none());
        assert!(CollChoice::parse("").is_none());
    }

    #[test]
    fn config_describe_distinguishes_topologies_and_choices() {
        let a = cfg("fat-tree:4x4", "auto").describe();
        let b = cfg("fat-tree:2x8", "auto").describe();
        let c = cfg("fat-tree:4x4", "ring").describe();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, "fat-tree:4x4/auto");
    }

    #[test]
    fn auto_never_costs_more_than_p2p() {
        let net = NetworkModel::sp2();
        for topo in ["flat", "fat-tree:4x4", "torus:5x5"] {
            let c = cfg(topo, "auto");
            for shape in [
                PatternShape::Shift { dist: 1 },
                PatternShape::Shift { dist: 7 },
                PatternShape::Tree { parts: 8 },
                PatternShape::Tree { parts: 25 },
            ] {
                for bytes in [8.0, 1024.0, 65536.0, 4.0e6] {
                    let auto = lower_msg(&c, shape, bytes);
                    let p2p = lower(Algo::P2p, shape, bytes, &c.topo).unwrap();
                    let ca: f64 = auto.steps.iter().map(|s| s.time_us(&net)).sum();
                    let cp: f64 = p2p.iter().map(|s| s.time_us(&net)).sum();
                    assert!(
                        ca <= cp,
                        "{topo} {shape:?} {bytes}: auto({}) {ca} > p2p {cp}",
                        auto.algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_tree_algorithm_falls_back_to_p2p_on_shifts() {
        let c = cfg("fat-tree:4x4", "bine");
        let l = lower_msg(&c, PatternShape::Shift { dist: 3 }, 512.0);
        assert!(l.fallback);
        assert_eq!(l.algo, Algo::P2p);
        assert_eq!(l.steps.len(), 1);
    }

    #[test]
    fn pareto_frontier_contains_the_cheapest_candidate() {
        for topo in [
            Topology::Flat,
            Topology::FatTree { node: 4, switch: 4 },
            Topology::Torus { x: 5, y: 5 },
        ] {
            let net = NetworkModel::now_myrinet();
            for bytes in [64.0, 16384.0, 2.0e6] {
                let cands = sweep(&topo, &net, PatternShape::Tree { parts: 8 }, bytes);
                let front = pareto(&cands);
                assert!(!front.is_empty());
                let best = cands
                    .iter()
                    .min_by(|a, b| a.cost_us.partial_cmp(&b.cost_us).unwrap())
                    .unwrap();
                assert!(
                    front.iter().any(|c| c.algo == best.algo),
                    "{}: cheapest {} must be pareto-optimal",
                    topo.describe(),
                    best.algo.name()
                );
            }
        }
    }

    #[test]
    fn sweep_covers_all_algorithms_for_trees() {
        let cands = sweep(
            &Topology::Flat,
            &NetworkModel::sp2(),
            PatternShape::Tree { parts: 16 },
            1024.0,
        );
        assert_eq!(cands.len(), ALL_ALGOS.len());
        // Deterministic order, p2p first (tie-break target).
        assert_eq!(cands[0].algo, Algo::P2p);
    }
}
