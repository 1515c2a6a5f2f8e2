//! The untraced run: have a child do the oracle step (untimed), measure
//! rounds, print the eight end-to-end metrics.

use std::process::{Command, Stdio};

use crate::inproc::{FirstPass, Inproc};
use crate::inputs::EXPECTED_STATIC_COUNTS;
use crate::rounds::{run_rounds, NoSpans, Summary};
use crate::served::{RoundBuf, Served};
use crate::spec::{result_line, END_TO_END};
use crate::util::peak_rss_mb;
use crate::verdict::Verdict;
use crate::RunArgs;

/// The outcome of an untraced run.
#[derive(Debug)]
pub struct Outcome {
    /// Best-of-rounds timings and the failure count.
    pub summary: Summary,
    /// `setup_s` as the workload defines it.
    pub setup_s: f64,
    /// Exact: a function of the pinned pools only.
    pub sim_us_geomean: f64,
    /// Exact: a function of the pinned pools only.
    pub static_msgs_total: u64,
    /// Oracle objections from the prep step.
    pub oracle_errors: Vec<String>,
}

impl Outcome {
    /// True when every oracle agreed and every timed op matched.
    pub fn correct(&self) -> bool {
        self.oracle_errors.is_empty() && self.summary.failed == 0
    }

    /// The result line for `--trace 0`.
    pub fn line(&self) -> String {
        let value = |name: &str| match name {
            "setup_s" => self.setup_s,
            "ops_per_s" => self.summary.ops_per_s(),
            "op_p50_us" => self.summary.op_percentile_us(0.50),
            "op_p95_us" => self.summary.op_percentile_us(0.95),
            "ok_share" => self.summary.ok_share(),
            "peak_rss_mb" => peak_rss_mb(),
            "sim_us_geomean" => self.sim_us_geomean,
            "static_msgs_total" => self.static_msgs_total as f64,
            other => unreachable!("end-to-end metric '{other}' has no source"),
        };
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| (name, unit, value(name)))
            .collect();
        result_line(
            self.correct(),
            self.summary.attempted,
            self.summary.failed,
            &metrics,
        )
    }
}

/// `benchmark prep <workload> <seed>`: the oracle step, its verdict on
/// standard output.
///
/// # Errors
///
/// On a seed that is not a number.
pub fn prep(workload: &str, seed: &str) -> Result<String, String> {
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let verdict = match workload {
        "kernels" | "corpus" => Inproc::new(workload, seed).verify(EXPECTED_STATIC_COUNTS),
        _ => Served::new(workload, seed).verify(),
    };
    Ok(verdict.to_text())
}

/// Has a child process do the oracle step, so that the interpreter and
/// the calibration servers never touch this process's heap or its
/// `VmHWM` (see [`crate::verdict`]).
fn verdict_of_child(args: &RunArgs) -> Result<Verdict, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["prep", &args.workload, &args.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the prep child: {e}"))?;
    if !out.status.success() {
        return Err(format!("prep child failed: {}", out.status));
    }
    Verdict::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Runs one workload untraced.
///
/// # Errors
///
/// When the benchmark itself cannot run (a child that does not start or
/// says nothing); a wrong answer from the system under test is not an
/// error but an incorrect [`Outcome`].
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let verdict = verdict_of_child(args)?;
    match args.workload.as_str() {
        "kernels" | "corpus" => {
            let mut w = Inproc::new(&args.workload, args.seed);
            w.adopt(verdict);
            let mut children = FirstPass::new(&args.workload);
            let mut outs = Vec::with_capacity(w.order.len());
            let summary = run_rounds(
                args.seconds,
                w.order.len(),
                |laps| w.round(laps, &mut outs, &mut NoSpans),
                |progress| children.keep_pace(progress),
            );
            if let Some(e) = children.error {
                return Err(e);
            }
            Ok(Outcome {
                setup_s: children.best_s(),
                summary,
                sim_us_geomean: w.sim_us_geomean,
                static_msgs_total: w.static_msgs_total,
                oracle_errors: w.oracle_errors,
            })
        }
        _ => {
            let mut w = Served::new(&args.workload, args.seed);
            w.adopt(verdict);
            let mut buf = RoundBuf::default();
            let summary = run_rounds(
                args.seconds,
                w.ops.len(),
                |laps| w.round(laps, &mut buf, &mut NoSpans),
                |_| {},
            );
            Ok(Outcome {
                setup_s: summary.best_reset_s(),
                summary,
                sim_us_geomean: w.sim_us_geomean,
                static_msgs_total: w.static_msgs_total,
                oracle_errors: w.oracle_errors,
            })
        }
    }
}
