//! Ablation A1: the greedy consideration order of §4.7.
//!
//! The paper processes the most-constrained entry first (after Click's
//! global code motion heuristic). This ablation compares that order against
//! least-constrained-first and plain program order on every kernel.

use gcomm_core::{compile_with_policy, CombinePolicy, GreedyOrder, Strategy};
use gcomm_serve::cli;

fn main() {
    const BIN: &str = "ablation_greedy";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    println!(
        "{:<10} {:<9} {:>16} {:>17} {:>14}",
        "Benchmark", "Routine", "most-constrained", "least-constrained", "program-order"
    );
    for (bench, routine, src) in gcomm_kernels::all_kernels() {
        let count = |order: GreedyOrder| {
            let policy = CombinePolicy {
                order,
                ..CombinePolicy::default()
            };
            compile_with_policy(src, Strategy::Global, &policy)
                .expect("kernel compiles")
                .static_messages()
        };
        println!(
            "{:<10} {:<9} {:>16} {:>17} {:>14}",
            bench,
            routine,
            count(GreedyOrder::MostConstrained),
            count(GreedyOrder::LeastConstrained),
            count(GreedyOrder::ProgramOrder)
        );
    }
}
