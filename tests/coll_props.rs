//! Property tests for the topology-aware collective backend
//! (DESIGN.md §17).
//!
//! Two invariants hold for every program, on every topology:
//!
//! * **Payload identity** — a collective algorithm changes *how* bytes
//!   travel (step count, per-step wire traffic), never *what* arrives:
//!   the simulator's accumulated logical payload (`SimResult::bytes`)
//!   and message-kind mix are identical under every `--coll` choice.
//! * **Auto is never worse** — `--coll auto` sweeps every applicable
//!   algorithm per (pattern, size) with the exact simulator cost
//!   expression and breaks ties toward `p2p`, so its simulated
//!   communication time is never above the pure-`p2p` lowering's.
//!
//! Both are checked over the paper's seven kernels and over a stream of
//! fuzzed well-formed programs (200 by default; `GCOMM_COLL_CASES`
//! scales it).

use gcomm::coll::{Algo, CollChoice, CollConfig, Topology};
use gcomm::core::{lower_to_sim, Compiled, SimConfig};
use gcomm::machine::{simulate, NetworkModel, ProcGrid, SimResult};
use gcomm::Strategy;

const FUZZ_SEED_BASE: u64 = 0xc0117;

fn cases() -> u64 {
    std::env::var("GCOMM_COLL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn topologies() -> Vec<Topology> {
    vec![
        Topology::Flat,
        Topology::parse("fat-tree:4x4").unwrap(),
        Topology::parse("torus:5x5").unwrap(),
    ]
}

/// Simulates `c` at size `n` on `net` with the given collective choice
/// (`None` = the legacy flat-model sentinel path).
fn sim_with(
    c: &Compiled,
    p: u32,
    n: i64,
    net: &NetworkModel,
    coll: Option<(Topology, CollChoice)>,
) -> SimResult {
    let mut cfg =
        SimConfig::uniform(c, ProcGrid::balanced(p, c.prog.grid_rank()), n).with("nsteps", 2);
    if let Some((topo, choice)) = coll {
        cfg = cfg.with_coll(CollConfig::new(topo, choice, net.clone()));
    }
    simulate(&lower_to_sim(c, &cfg), net)
}

fn check_program(name: &str, src: &str, p: u32, n: i64, net: &NetworkModel) {
    let c = gcomm::compile(src, Strategy::Global).unwrap_or_else(|e| panic!("{name}: {e}"));
    let legacy = sim_with(&c, p, n, net, None);
    for topo in topologies() {
        let p2p = sim_with(
            &c,
            p,
            n,
            net,
            Some((topo.clone(), CollChoice::Fixed(Algo::P2p))),
        );
        let auto = sim_with(&c, p, n, net, Some((topo.clone(), CollChoice::Auto)));
        // Payload identity: the logical bytes delivered and the message
        // mix never depend on the algorithm — only the wire schedule does.
        for algo in [Algo::Ring, Algo::Rdbl, Algo::Bine] {
            let fixed = sim_with(&c, p, n, net, Some((topo.clone(), CollChoice::Fixed(algo))));
            assert_eq!(
                fixed.bytes,
                p2p.bytes,
                "{name} on {}: {algo:?} changed the delivered payload",
                topo.describe()
            );
        }
        assert_eq!(
            p2p.bytes,
            legacy.bytes,
            "{name} on {}: p2p lowering changed the delivered payload",
            topo.describe()
        );
        assert_eq!(auto.bytes, p2p.bytes, "{name}: auto changed the payload");
        // Auto never loses to p2p. Every message's selected cost uses the
        // exact `Msg::time_us` expression, so the inequality holds per
        // message; the summation tolerance absorbs float reassociation.
        let slack = 1e-9 * p2p.comm_us.abs() + 1e-6;
        assert!(
            auto.comm_us <= p2p.comm_us + slack,
            "{name} on {}: auto ({} us) beat by p2p ({} us)",
            topo.describe(),
            auto.comm_us,
            p2p.comm_us
        );
    }
}

/// The seven paper kernels: the six benchmark routines plus the running
/// example of Figure 4.
fn paper_programs() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = gcomm::kernels::all_kernels()
        .into_iter()
        .map(|(b, r, src)| (format!("{b}/{r}"), src))
        .collect();
    v.push(("fig4/running".into(), gcomm::kernels::FIG4_RUNNING));
    v
}

#[test]
fn collectives_preserve_payload_and_auto_never_loses_on_paper_kernels() {
    for (name, src) in paper_programs() {
        for (p, net) in [
            (25u32, NetworkModel::sp2()),
            (8, NetworkModel::now_myrinet()),
        ] {
            check_program(&name, src, p, 64, &net);
        }
    }
}

#[test]
fn collectives_preserve_payload_and_auto_never_loses_on_fuzzed_programs() {
    let net = NetworkModel::sp2();
    for i in 0..cases() {
        let seed = FUZZ_SEED_BASE + i;
        let src = proptest::hpf::generate(seed);
        check_program(&format!("fuzz seed {seed}"), &src, 25, 64, &net);
    }
}

/// A flat topology with the fixed `p2p` algorithm prices every kernel
/// like a config with no collective backend at all: identical payload
/// and round counts, and times equal up to float reassociation (r
/// equal-step additions versus one `r × step` product). The serve path
/// additionally maps flat+p2p onto the no-backend sentinel, so the
/// historical goldens are pinned bit-exactly there.
#[test]
fn flat_p2p_lowering_is_bit_identical_to_the_legacy_path() {
    for (name, src) in paper_programs() {
        let c = gcomm::compile(src, Strategy::Global).unwrap_or_else(|e| panic!("{name}: {e}"));
        let net = NetworkModel::sp2();
        let legacy = sim_with(&c, 25, 64, &net, None);
        let flat = sim_with(
            &c,
            25,
            64,
            &net,
            Some((Topology::Flat, CollChoice::Fixed(Algo::P2p))),
        );
        assert_eq!(legacy.bytes, flat.bytes, "{name}: payload diverged");
        assert_eq!(legacy.messages, flat.messages, "{name}: rounds diverged");
        let tol = 1e-9 * legacy.comm_us.abs();
        assert!(
            (legacy.comm_us - flat.comm_us).abs() <= tol,
            "{name}: comm time diverged: {} vs {}",
            legacy.comm_us,
            flat.comm_us
        );
    }
}
