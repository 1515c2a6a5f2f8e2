//! Regenerates the static message count table (Figure 10, top).
use gcomm_bench::reports;
use gcomm_serve::cli;

fn main() {
    const BIN: &str = "table_static_counts";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    let verbose = cli::take_switch(&mut args, "-v");
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    print!("{}", reports::table_static_counts_text(verbose));
}
