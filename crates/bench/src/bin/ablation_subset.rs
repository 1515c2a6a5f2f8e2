//! Ablation A3: subset elimination (§4.5) on vs. off.
//!
//! Subset elimination prunes candidate positions without losing combining
//! or redundancy opportunities under the paper's objective; §6 notes it
//! would have to be dropped if CPU–network overlap entered the objective.
//! This ablation verifies the result quality is unchanged and measures the
//! analysis-time effect of the pruning.

use std::time::Instant;

use gcomm_core::{commgen, strategy, AnalysisCtx, CombinePolicy};

fn main() {
    use gcomm_serve::cli;
    const BIN: &str = "ablation_subset";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    println!(
        "{:<10} {:<9} {:>9} {:>9} {:>12} {:>12}",
        "Benchmark", "Routine", "msgs(on)", "msgs(off)", "time on(us)", "time off(us)"
    );
    for (bench, routine, src) in gcomm_kernels::all_kernels() {
        let ast = gcomm_lang::parse_program(src).expect("parses");
        let prog = gcomm_ir::lower(&ast).expect("lowers");
        let policy = CombinePolicy::default();

        let run = |subset: bool| {
            let entries = commgen::number(commgen::generate(&prog));
            let ctx = AnalysisCtx::new(&prog);
            let t0 = Instant::now();
            let sched = strategy::run_global_ablation(&ctx, entries, &policy, subset);
            (sched.static_messages(), t0.elapsed().as_micros())
        };
        let (on_msgs, on_us) = run(true);
        let (off_msgs, off_us) = run(false);
        assert_eq!(
            on_msgs, off_msgs,
            "{bench}:{routine}: subset elimination must not change quality"
        );
        println!(
            "{:<10} {:<9} {:>9} {:>9} {:>12} {:>12}",
            bench, routine, on_msgs, off_msgs, on_us, off_us
        );
    }
    println!("\nresult quality identical with and without subset elimination (Claim 4.7)");
}
