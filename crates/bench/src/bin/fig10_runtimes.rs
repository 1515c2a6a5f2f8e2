//! Regenerates the Figure 10 runtime bar charts: normalized running times
//! of the three code versions (orig / nored / comb) with the communication
//! segment drawn dark, per problem size.
//!
//! Usage:
//!   cargo run -p gcomm-bench --bin fig10_runtimes            # all panels
//!   cargo run -p gcomm-bench --bin fig10_runtimes -- sp2 shallow

use gcomm_bench::{bar, paper_sizes, runtime_row, runtime_source, Platform};
use gcomm_serve::cli;

fn main() {
    const BIN: &str = "fig10_runtimes";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    if let Some(a) = args.iter().find(|a| a.starts_with("--")) {
        cli::or_exit2::<()>(BIN, Err(format!("unknown flag '{a}'")));
    }

    let panels: Vec<(Platform, &str, &str)> = vec![
        (Platform::Sp2, "shallow", "(a) SP2 shallow, P=25, n x n"),
        (Platform::Sp2, "gravity", "(b) SP2 gravity, P=25, n^3"),
        (Platform::Now, "shallow", "(c) NOW shallow, P=8, n x n"),
        (Platform::Now, "gravity", "(d) NOW gravity, P=8, n^3"),
        (Platform::Sp2, "hydflo", "(e) SP2 hydflo, P=25, n^3"),
        (Platform::Now, "trimesh", "(f) NOW trimesh, P=8, n x n"),
    ];

    for (pf, bench, title) in panels {
        if !args.is_empty() {
            let pf_name = match pf {
                Platform::Sp2 => "sp2",
                Platform::Now => "now",
            };
            if !(args.iter().any(|f| *f == pf_name) && args.iter().any(|f| *f == bench)) {
                continue;
            }
        }
        let Some(src) = runtime_source(bench) else {
            continue;
        };
        run_panel(src, pf, bench, title);
    }
}

fn run_panel(src: &str, pf: Platform, bench: &str, title: &str) {
    println!("== Figure 10 {title} ==");
    println!("   ('#' = network time, '-' = CPU time; orig normalized to 1.0)");
    for n in paper_sizes(pf, bench) {
        let row = runtime_row(src, pf, n).expect("kernel compiles");
        for (name, r) in [
            ("orig", &row.orig),
            ("nored", &row.nored),
            ("comb", &row.comb),
        ] {
            let norm = row.normalized(r);
            let dark = r.comm_us / row.orig.total_us();
            println!(
                "n={:<5} {:<6} {:<5.3} |{}",
                row.n,
                name,
                norm,
                bar(norm, dark)
            );
        }
        println!(
            "        comm cut {:.2}x, overall gain {:.1}%",
            row.comm_speedup(),
            100.0 * (1.0 - row.normalized(&row.comb))
        );
    }
    println!();
}
