//! `benchmark` — the end-to-end entry point.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark first-pass <kernels|corpus>     one pass, for setup_s
//! benchmark prep <workload> <seed>          the oracle step, for a run
//! benchmark manifest                        the text of BENCHMARK.json
//! benchmark selfcheck [--runs N]              the A/A test, at run_seconds
//! ```

use std::process::{Command, ExitCode};

use gcomm_benchmark::{e2e, inproc, selfcheck, spec, util, RunArgs};

fn main() -> ExitCode {
    // Before anything else: every thread and child started from here on
    // inherits the one-CPU mask.
    let cpu = util::pin_to_last_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        Some("first-pass") => {
            let failed = inproc::first_pass(args.get(1).map_or("", String::as_str));
            ExitCode::from(u8::from(failed > 0))
        }
        Some("prep") if args.len() == 3 && spec::is_workload(&args[1]) => {
            match e2e::prep(&args[1], &args[2]) {
                Ok(verdict) => {
                    print!("{verdict}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        Some("selfcheck") => match selfcheck::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => fail(&e),
        },
        _ => match RunArgs::parse(&args) {
            Ok(run) if run.trace => exec_layers(&args),
            Ok(run) => {
                match cpu {
                    Some(cpu) => eprintln!("benchmark: pinned:true cpu:{cpu}"),
                    None => eprintln!("benchmark: pinned:false"),
                }
                match e2e::run(&run) {
                    Ok(outcome) => {
                        for e in &outcome.oracle_errors {
                            eprintln!("benchmark: oracle: {e}");
                        }
                        eprintln!(
                            "benchmark: {} rounds, median/best round {:.3}, best whole round/sum of step bests {:.3}",
                            outcome.summary.rounds,
                            outcome.summary.median_over_best(),
                            outcome.summary.round_over_steps()
                        );
                        println!("{}", outcome.line());
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(&e),
                }
            }
            Err(e) => fail(&e),
        },
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("benchmark: {message}");
    ExitCode::from(2)
}

/// `--trace 1`: hands the run to the `benchmark-layers` binary next to
/// this one, the only target that touches pass-level functions.
fn exec_layers(args: &[String]) -> ExitCode {
    let layers = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("benchmark-layers"),
        Err(e) => return fail(&format!("current_exe: {e}")),
    };
    match Command::new(&layers).args(args).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => fail(&format!("{} ended with {status}", layers.display())),
        Err(e) => fail(&format!("cannot run {}: {e}", layers.display())),
    }
}
