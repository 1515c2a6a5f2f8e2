//! Regenerates Figure 5: buffer-copying and network bandwidth vs. size for
//! the SP2/MPL and NOW/MPICH machine models (log-spaced x axis).
//!
//! Usage: `cargo run -p gcomm-bench --bin fig5_network_profile`

use gcomm_machine::profile::{default_sizes, profile};
use gcomm_machine::NetworkModel;
use gcomm_serve::cli;

fn main() {
    const BIN: &str = "fig5_network_profile";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    let sizes = default_sizes();
    for net in [NetworkModel::sp2(), NetworkModel::now_myrinet()] {
        let pts = profile(&net, &sizes);
        println!("== Figure 5: {} ==", net.name);
        println!(
            "{:>9}  {:>10}  {:>10}  {:>10}",
            "bytes", "bcopy MB/s", "inject MB/s", "recv MB/s"
        );
        for p in &pts {
            println!(
                "{:>9}  {:>10.2}  {:>10.2}  {:>10.2}",
                p.bytes, p.bcopy_mb, p.inject_mb, p.recv_mb
            );
        }
        // The observation §3 draws from this plot:
        let cache = net.cache_bytes;
        let near = pts
            .iter()
            .filter(|p| p.bytes <= cache / 4)
            .map(|p| p.recv_mb)
            .fold(0.0f64, f64::max);
        println!(
            "-- startup amortization: {:.0}% of peak bandwidth reached at 1/4 cache size ({} KB cache)\n",
            100.0 * near / net.peak_bw_mb,
            cache / 1024
        );
    }
}
