//! Extension experiment (§6.1): greedy heuristic vs. certified optimum.
//!
//! Optimal candidate selection is NP-hard (Claim 6.1); this binary measures
//! how far the §4.7 greedy lands from the true optimum, found by the
//! branch-and-bound search of DESIGN.md §16 and scored with the machine
//! simulator. `--budget <n>` bounds **search nodes expanded** (entry
//! bindings) — it used to bound assignments scored; a node is strictly
//! cheaper, so the same number now certifies far larger programs. The
//! default is the golden-file setting. `--jobs <n>` sets the search's
//! worker count (the table is the same bytes for any). `--json <path>`
//! additionally runs the retained serial enumeration at the same budget
//! and writes a `BENCH_optimal.json` comparison (nodes, prune counts, wall
//! times).

use gcomm_bench::reports;
use gcomm_serve::cli;

fn main() {
    const BIN: &str = "compare_optimal";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let jobs = cli::or_exit2(BIN, gcomm_par::take_jobs_flag(&mut args));
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    // NOTE: `--budget <n>` here is the *search node* budget (a bare count
    // of nodes expanded), not the shared `--budget <spec>` analysis budget.
    let budget = match cli::or_exit2(BIN, cli::take_value_flag(&mut args, "--budget")) {
        None => reports::DEFAULT_OPTIMAL_BUDGET,
        Some(v) => cli::or_exit2(
            BIN,
            v.parse()
                .map_err(|_| format!("--budget expects a node count, got '{v}'")),
        ),
    };
    let json_path = cli::or_exit2(BIN, cli::take_value_flag(&mut args, "--json"));
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    print!("{}", reports::compare_optimal_text(budget, jobs));
    if let Some(path) = json_path {
        let json = reports::compare_optimal_json(budget, jobs);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("{BIN}: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("{BIN}: wrote {path}");
    }
}
