//! Ablation A2: the combining size threshold of §4.7 (paper: 20 KB on the
//! SP2, "beyond which combining messages leads to diminishing returns").
//!
//! Symbolic-size kernels use the paper's rules of thumb, so the threshold
//! is exercised on a *concrete-size* stencil family: `k` fields of a fixed
//! `m × m` extent all read with the same shift. As the threshold shrinks,
//! the fields stop fitting into one combined message and split into more
//! groups; the simulator then prices each schedule.

use gcomm_core::{compile_with_policy, lower_to_sim, CombinePolicy, SimConfig, Strategy};
use gcomm_machine::{simulate, NetworkModel, ProcGrid};

/// Builds a concrete-size kernel: `k` arrays of `m × m` doubles, all read
/// with a west shift by one consumer statement each.
fn kernel(k: usize, m: usize) -> String {
    let mut decls = String::new();
    let mut body = String::new();
    for i in 0..k {
        decls.push_str(&format!(
            "real a{i}({m},{m}), c{i}({m},{m}) distribute (block, block)\n"
        ));
        body.push_str(&format!(
            "  c{i}(2:{m}, 1:{m}) = a{i}(1:{mm}, 1:{m})\n",
            mm = m - 1
        ));
    }
    format!("program thresh\nparam nsteps\n{decls}do t = 1, nsteps\n{body}enddo\nend\n")
}

fn run(src: &str, m: usize, threshold: u64) -> (usize, f64) {
    let policy = CombinePolicy {
        max_combined_bytes: threshold,
        ..CombinePolicy::default()
    };
    let c = compile_with_policy(src, Strategy::Global, &policy).expect("compiles");
    let cfg = SimConfig::uniform(&c, ProcGrid::balanced(25, 2), m as i64).with("nsteps", 1);
    let r = simulate(&lower_to_sim(&c, &cfg), &NetworkModel::sp2());
    (c.static_messages(), r.comm_us)
}

fn main() {
    use gcomm_serve::cli;
    const BIN: &str = "ablation_threshold";
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line(BIN));
        return;
    }
    let _stats = cli::or_exit2(BIN, cli::StatsOpts::extract(&mut args)).install();
    cli::or_exit2(BIN, cli::reject_leftover_args(&args));
    let k = 8;
    let m = 16;
    let src = kernel(k, m);
    println!("ablation A2: {k} fields of {m}x{m} doubles, west-shift ghost exchange, P=25");
    println!(
        "{:>12} {:>8} {:>12} {:>12}",
        "threshold(B)", "messages", "comm us/step", "vs 20KB"
    );
    let (_, base) = run(&src, m, 20 * 1024);
    for threshold in [512u64, 2 * 1024, 8 * 1024, 20 * 1024, 64 * 1024, 1 << 20] {
        let (msgs, comm) = run(&src, m, threshold);
        println!(
            "{:>12} {:>8} {:>12.1} {:>+11.1}%",
            threshold,
            msgs,
            comm,
            100.0 * (comm - base) / base
        );
    }
}
