//! `benchmark selfcheck`: the A/A test. Runs every workload in two
//! interleaved sets, each run under another seed as the driver does, and
//! judges the sets by the driver's own rule: per metric and workload, the
//! distance between the first and third quartile over the median must stay
//! within the metric's bound (except for `setup_s`), and the second set's
//! median may not be worse than the first's by more than the bound. The
//! table it prints is committed as `AA.md`.

use std::collections::BTreeMap;
use std::process::Command;

use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::util::{json_numbers, median, quartiles};

/// Reads the value of metric `name` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{"))?;
    json_numbers(&line[at..], "value").first().copied()
}

struct Cell {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Cell {
    fn of(values: &[f64]) -> Cell {
        let (q1, q3) = quartiles(values);
        Cell {
            median: median(values),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Runs the A/A test; `Ok(true)` when no metric breaches its bound.
/// Every run measures for [`RUN_SECONDS`]: the bounds are calibrated at
/// the benchmark's own run length and mean nothing at another.
///
/// # Errors
///
/// On bad arguments, or when a run cannot be started or prints no result.
pub fn run(args: &[String]) -> Result<bool, String> {
    let runs: usize = match args {
        [] => 5,
        [flag, value] if flag == "--runs" => {
            value.parse().map_err(|_| format!("bad --runs '{value}'"))?
        }
        _ => return Err("usage: benchmark selfcheck [--runs N]".into()),
    };
    if runs < 5 {
        return Err("selfcheck needs --runs of at least 5 per set".into());
    }

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..2 {
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "selfcheck: run {}/{runs} set {} {workload}",
                    run + 1,
                    ["A", "B"][set]
                );
                let out = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &(run + 1).to_string()])
                    .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
                    .output()
                    .map_err(|e| format!("running {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or("");
                if !out.status.success() || !line.contains("\"correct\": true") {
                    return Err(format!(
                        "{workload} seed {}: no correct result: {line}",
                        run + 1
                    ));
                }
                for (m, (metric, ..)) in END_TO_END.iter().enumerate() {
                    let v = metric_value(line, metric)
                        .ok_or_else(|| format!("{workload}: result has no {metric}"))?;
                    values.entry((w, m)).or_default()[set].push(v);
                }
            }
        }
    }

    println!(
        "A/A: two interleaved sets of {runs} runs x {RUN_SECONDS} s, seeds 1..={runs} in both."
    );
    println!(
        "spread = (Q3 - Q1) / median; B vs A = how much worse B's median is (negative = better)."
    );
    println!();
    println!("| workload | metric | bound | A median | A Q1 | A Q3 | A spread | B median | B spread | B vs A | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut clean = true;
    // The widest spread of a gated metric as a share of its bound.
    let mut widest = (0.0, "", "");
    for ((w, m), sets) in &values {
        let (metric, _, better, bound) = END_TO_END[*m];
        let (a, b) = (Cell::of(&sets[0]), Cell::of(&sets[1]));
        let worse = if a.median == 0.0 {
            0.0
        } else if better == "lower" {
            (b.median - a.median) / a.median
        } else {
            (a.median - b.median) / a.median
        };
        let spread_ok = metric == "setup_s" || (a.spread() <= bound && b.spread() <= bound);
        let ok = spread_ok && worse <= bound;
        clean &= ok;
        let share = a.spread().max(b.spread()) / bound;
        if metric != "setup_s" && bound > 0.0 && share > widest.0 {
            widest = (share, WORKLOADS[*w].0, metric);
        }
        println!(
            "| {} | {metric} | {bound} | {:.6} | {:.6} | {:.6} | {:.4} | {:.6} | {:.4} | {:+.4} | {} |",
            WORKLOADS[*w].0,
            a.median,
            a.q1,
            a.q3,
            a.spread(),
            b.median,
            b.spread(),
            worse,
            if ok { "ok" } else { "BREACH" }
        );
    }
    println!();
    println!(
        "widest spread: {:.2} of its bound ({} {}); the benchmark's contract aims for a third",
        widest.0, widest.1, widest.2
    );
    println!(
        "{}",
        if clean {
            "selfcheck: pass"
        } else {
            "selfcheck: FAIL"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_the_result_line() {
        let line =
            crate::spec::result_line(true, 10, 0, &[("a_us", "us", 1.25), ("b", "count", 7.0)]);
        assert_eq!(metric_value(&line, "a_us"), Some(1.25));
        assert_eq!(metric_value(&line, "b"), Some(7.0));
        assert_eq!(metric_value(&line, "c"), None);
    }
}
