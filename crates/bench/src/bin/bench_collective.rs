//! Collective-algorithm crossover tables (DESIGN.md §17).
//!
//! Sweeps the collective backend's algorithm library over message sizes
//! on each hierarchical topology and prints, per size, the exact
//! simulator cost of every applicable algorithm plus the `auto` winner —
//! the Figure-10-style evidence that no single algorithm dominates:
//! latency-optimal trees win small messages, bandwidth-optimal rings win
//! bulk, and the crossover point moves with the topology.
//!
//! A second section prices the paper's seven kernels end-to-end under
//! `--coll auto` versus `--coll p2p` on each topology at each processor
//! count of [`KERNEL_PROCS`]: auto must never lose (the selection sweeps
//! the exact per-message cost with ties to p2p).
//!
//! Usage:
//!   bench_collective                 # text tables
//!   bench_collective --json <path>   # also write the JSON artifact
//!
//! The JSON document (`gcomm-bench-coll/v1`, committed as
//! `BENCH_collective.json`) records every swept cell, the pareto
//! frontier membership, the winner crossovers, and the kernel matrix;
//! the CI `coll-smoke` job asserts a ring/tree crossover per topology
//! and the auto-never-loses inequality from it.

use gcomm_coll::{pareto, sweep, Algo, CollChoice, CollConfig, PatternShape, Topology};
use gcomm_core::{compile, lower_to_sim, Compiled, SimConfig, Strategy};
use gcomm_machine::{simulate, NetworkModel, ProcGrid};

/// Swept message sizes, 64 B to 4 MiB.
const SIZES: [f64; 9] = [
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
];

/// Processor counts the kernel matrix is priced at.
const KERNEL_PROCS: [u32; 4] = [4, 16, 25, 64];

struct TopoCase {
    topo: Topology,
    /// Tree fan-in: the rank count the topology actually hosts.
    parts: u64,
}

fn topo_cases() -> Vec<TopoCase> {
    vec![
        TopoCase {
            topo: Topology::parse("fat-tree:4x4").unwrap(),
            parts: 16,
        },
        TopoCase {
            topo: Topology::parse("torus:5x5").unwrap(),
            parts: 25,
        },
    ]
}

/// One swept size: every candidate plus the winner under the exact cost.
struct SweepRow {
    bytes: f64,
    cands: Vec<(gcomm_coll::Candidate, bool)>, // (candidate, on pareto frontier)
    winner: Algo,
}

fn sweep_topology(topo: &Topology, parts: u64, net: &NetworkModel) -> Vec<SweepRow> {
    SIZES
        .iter()
        .map(|&bytes| {
            let cands = sweep(topo, net, PatternShape::Tree { parts }, bytes);
            let frontier = pareto(&cands);
            let mut winner = Algo::P2p;
            let mut best = f64::INFINITY;
            for c in &cands {
                if c.cost_us < best {
                    best = c.cost_us;
                    winner = c.algo;
                }
            }
            let cands = cands
                .into_iter()
                .map(|c| {
                    let on_frontier = frontier.iter().any(|f| f.algo == c.algo);
                    (c, on_frontier)
                })
                .collect();
            SweepRow {
                bytes,
                cands,
                winner,
            }
        })
        .collect()
}

/// Winner changes between adjacent sizes: `(at_bytes, from, to)`.
fn crossovers(rows: &[SweepRow]) -> Vec<(f64, Algo, Algo)> {
    rows.windows(2)
        .filter(|w| w[0].winner != w[1].winner)
        .map(|w| (w[1].bytes, w[0].winner, w[1].winner))
        .collect()
}

fn is_tree(a: Algo) -> bool {
    matches!(a, Algo::Rdbl | Algo::Bine)
}

/// The seven paper programs: the six benchmark routines plus Figure 4's
/// running example.
fn paper_programs() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = gcomm_kernels::all_kernels()
        .into_iter()
        .map(|(b, r, src)| (format!("{b}/{r}"), src))
        .collect();
    v.push(("fig4/running".into(), gcomm_kernels::FIG4_RUNNING));
    v
}

fn comm_us(c: &Compiled, p: u32, net: &NetworkModel, topo: &Topology, choice: CollChoice) -> f64 {
    let cfg = SimConfig::uniform(c, ProcGrid::balanced(p, c.prog.grid_rank()), 64)
        .with("nsteps", 2)
        .with_coll(CollConfig::new(topo.clone(), choice, net.clone()));
    simulate(&lower_to_sim(c, &cfg), net).comm_us
}

fn main() {
    use gcomm_serve::cli;
    const BIN: &str = "bench_collective";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let mut json_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_path = it.next(),
            _ => {
                eprintln!("usage: bench_collective [--json <path>]");
                std::process::exit(2);
            }
        }
    }

    let net = NetworkModel::sp2();
    let mut topo_docs = Vec::new();
    for case in topo_cases() {
        let rows = sweep_topology(&case.topo, case.parts, &net);
        let xs = crossovers(&rows);

        println!(
            "== Collective crossover: {}, reduction/broadcast tree (parts={}), {} ==",
            case.topo.describe(),
            case.parts,
            net.name
        );
        println!(
            "   (exact simulator cost per algorithm, us; * = pareto frontier, > = auto's pick)"
        );
        print!("{:>9}", "bytes");
        for a in gcomm_coll::ALL_ALGOS {
            print!("{:>14}", a.name());
        }
        println!();
        for row in &rows {
            print!("{:>9}", row.bytes as u64);
            for a in gcomm_coll::ALL_ALGOS {
                match row.cands.iter().find(|(c, _)| c.algo == a) {
                    Some((c, on_frontier)) => {
                        let mark = match (row.winner == a, on_frontier) {
                            (true, _) => ">",
                            (false, true) => "*",
                            (false, false) => " ",
                        };
                        print!("{:>13}{mark}", format!("{:.1}", c.cost_us));
                    }
                    None => print!("{:>14}", "-"),
                }
            }
            println!();
        }
        for (at, from, to) in &xs {
            println!(
                "   crossover at {} B: {} -> {}",
                *at as u64,
                from.name(),
                to.name()
            );
        }
        println!();

        let row_json: Vec<String> = rows
            .iter()
            .map(|row| {
                let cands: Vec<String> = row
                    .cands
                    .iter()
                    .map(|(c, on_frontier)| {
                        format!(
                            "{{\"algo\":\"{}\",\"cost_us\":{:.3},\"latency_us\":{:.3},\
                             \"transfer_us\":{:.3},\"steps\":{},\"pareto\":{}}}",
                            c.algo.name(),
                            c.cost_us,
                            c.latency_us,
                            c.transfer_us,
                            c.steps,
                            on_frontier
                        )
                    })
                    .collect();
                format!(
                    "{{\"bytes\":{},\"winner\":\"{}\",\"candidates\":[{}]}}",
                    row.bytes as u64,
                    row.winner.name(),
                    cands.join(",")
                )
            })
            .collect();
        let x_json: Vec<String> = xs
            .iter()
            .map(|(at, from, to)| {
                format!(
                    "{{\"at_bytes\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    *at as u64,
                    from.name(),
                    to.name(),
                )
            })
            .collect();
        // The regime handoff the paper-style table demonstrates: a tree
        // algorithm wins the latency end, ring wins the bandwidth end.
        let tree_wins = rows.iter().any(|r| is_tree(r.winner));
        let ring_wins = rows.iter().any(|r| r.winner == Algo::Ring);
        topo_docs.push(format!(
            "{{\"topo\":\"{}\",\"parts\":{},\"pattern\":\"tree\",\
             \"tree_wins\":{tree_wins},\"ring_wins\":{ring_wins},\
             \"sizes\":[{}],\"crossovers\":[{}]}}",
            case.topo.describe(),
            case.parts,
            row_json.join(","),
            x_json.join(",")
        ));
    }

    println!("== Paper kernels: --coll auto vs --coll p2p (sp2, n=64) ==");
    let mut kernel_docs = Vec::new();
    for (name, src) in paper_programs() {
        let c = compile(src, Strategy::Global).expect("paper kernel compiles");
        for p in KERNEL_PROCS {
            for case in topo_cases() {
                let topo = case.topo.describe();
                let p2p = comm_us(&c, p, &net, &case.topo, CollChoice::Fixed(Algo::P2p));
                let auto = comm_us(&c, p, &net, &case.topo, CollChoice::Auto);
                assert!(
                    auto <= p2p + 1e-9 * p2p.abs() + 1e-6,
                    "{name} on {topo} at P={p}: auto ({auto} us) lost to p2p ({p2p} us)"
                );
                println!(
                    "{name:<18} {topo:<13} P={p:<3} comm p2p {p2p:>12.1} us   auto {auto:>12.1} us   \
                     ({:.3}x)",
                    if auto > 0.0 { p2p / auto } else { 1.0 }
                );
                kernel_docs.push(format!(
                    "{{\"kernel\":\"{name}\",\"topo\":\"{topo}\",\"p\":{p},\
                     \"p2p_us\":{p2p:.3},\"auto_us\":{auto:.3}}}"
                ));
            }
        }
    }

    if let Some(path) = json_path {
        let doc = format!(
            "{{\"schema\":\"gcomm-bench-coll/v1\",\"net\":\"{}\",\
             \"topologies\":[{}],\"kernels\":[{}]}}",
            net.name,
            topo_docs.join(","),
            kernel_docs.join(",")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| {
            eprintln!("bench_collective: {path}: {e}");
            std::process::exit(1);
        });
    }
}
