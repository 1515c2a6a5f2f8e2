//! Golden-file tests: regenerate the `results/*.txt` report artifacts —
//! through `gcomm_bench::reports` or by running the bin EXPERIMENTS.md
//! names — and fail on any drift from the checked-in copies. To accept an
//! intentional change, rerun with blessing enabled:
//!
//! ```text
//! GCOMM_BLESS=1 cargo test -p gcomm-bench --test golden
//! ```

use std::path::PathBuf;

use gcomm_bench::reports;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn check_golden(name: &str, regenerated: &str) {
    let path = golden_path(name);
    if std::env::var_os("GCOMM_BLESS").is_some() {
        std::fs::write(&path, regenerated).expect("write blessed golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (run with GCOMM_BLESS=1 to create)", name));
    if golden != regenerated {
        let diff: Vec<String> = golden
            .lines()
            .zip(regenerated.lines())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("  line {}:\n  - {a}\n  + {b}", i + 1))
            .collect();
        panic!(
            "results/{name} drifted from the regenerated report \
             (GCOMM_BLESS=1 to accept):\n{}{}",
            diff.join("\n"),
            if golden.lines().count() != regenerated.lines().count() {
                format!(
                    "\n  (line count {} -> {})",
                    golden.lines().count(),
                    regenerated.lines().count()
                )
            } else {
                String::new()
            }
        );
    }
}

#[test]
fn table_static_counts_matches_golden() {
    check_golden(
        "table_static_counts.txt",
        &reports::table_static_counts_text(false),
    );
}

#[test]
fn compare_optimal_matches_golden() {
    // Runs at the ambient worker count (`GCOMM_JOBS` in CI): the golden
    // file doubles as a jobs-1-vs-N determinism check, since it was
    // blessed from a serial run.
    check_golden(
        "compare_optimal.txt",
        &reports::compare_optimal_text(reports::DEFAULT_OPTIMAL_BUDGET, gcomm_par::default_jobs()),
    );
}

/// Stdout of one of this crate's bins.
fn run_bin(exe: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    assert!(out.status.success(), "{exe} {args:?}: {:?}", out.status);
    String::from_utf8(out.stdout).expect("reports are UTF-8")
}

#[test]
fn figure_and_ablation_bins_match_their_goldens() {
    let bins: [(&str, &str, &[&str]); 4] = [
        ("fig5.txt", env!("CARGO_BIN_EXE_fig5_network_profile"), &[]),
        ("fig10.txt", env!("CARGO_BIN_EXE_fig10_runtimes"), &[]),
        (
            "ablation_greedy.txt",
            env!("CARGO_BIN_EXE_ablation_greedy"),
            &[],
        ),
        (
            "ablation_threshold.txt",
            env!("CARGO_BIN_EXE_ablation_threshold"),
            &[],
        ),
    ];
    for (name, exe, args) in bins {
        check_golden(name, &run_bin(exe, args));
    }
}

/// `ablation_subset`'s last two columns are measured wall times, so its
/// golden keeps the four before them (names and message counts) of every
/// table line; the footer after the blank line stays whole.
#[test]
fn ablation_subset_counts_match_golden() {
    let report = run_bin(env!("CARGO_BIN_EXE_ablation_subset"), &[]);
    let mut in_table = true;
    let mut counts = String::new();
    for line in report.lines() {
        in_table &= !line.is_empty();
        if in_table {
            let cols: Vec<&str> = line.split_whitespace().take(4).collect();
            counts.push_str(&cols.join(" "));
        } else {
            counts.push_str(line);
        }
        counts.push('\n');
    }
    check_golden("ablation_subset.txt", &counts);
}
