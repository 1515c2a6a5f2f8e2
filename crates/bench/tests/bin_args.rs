//! Report-bin argument handling, the `tests/cli_args.rs` contract applied
//! to this crate's bins (a root-package test cannot name them): an
//! argument a bin does not know exits with status 2 and one
//! `<bin>:`-prefixed line naming it — never silence, so a flag a bin used
//! to take (`--jobs`, `--json`) cannot linger unnoticed in a script.

use std::process::Command;

fn assert_rejected(exe: &str, bin: &str, args: &[&str], named: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected exit 2\nstderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?}: printed a report");
    assert!(
        stderr.starts_with(&format!("{bin}: ")) && stderr.contains(named),
        "{bin} {args:?}: stderr should name {named:?}: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
}

#[test]
fn unknown_arguments_exit_two_with_a_message() {
    let retired_jobs = [
        (
            env!("CARGO_BIN_EXE_table_static_counts"),
            "table_static_counts",
        ),
        (env!("CARGO_BIN_EXE_ablation_greedy"), "ablation_greedy"),
        (env!("CARGO_BIN_EXE_ablation_subset"), "ablation_subset"),
        (
            env!("CARGO_BIN_EXE_ablation_threshold"),
            "ablation_threshold",
        ),
    ];
    for (exe, bin) in retired_jobs {
        assert_rejected(exe, bin, &["--jobs", "4"], "'--jobs'");
        assert_rejected(exe, bin, &["stray"], "'stray'");
    }
    let tsc = env!("CARGO_BIN_EXE_table_static_counts");
    assert_rejected(tsc, "table_static_counts", &["-v", "-x"], "'-x'");

    let co = env!("CARGO_BIN_EXE_compare_optimal");
    assert_rejected(co, "compare_optimal", &["--bugdet", "9"], "'--bugdet'");
    assert_rejected(co, "compare_optimal", &["--jobs", "zero"], "--jobs");
    assert_rejected(co, "compare_optimal", &["--budget", "lots"], "--budget");
    assert_rejected(co, "compare_optimal", &["--json"], "--json");

    let fig5 = env!("CARGO_BIN_EXE_fig5_network_profile");
    assert_rejected(fig5, "fig5_network_profile", &["--json"], "'--json'");
    let fig10 = env!("CARGO_BIN_EXE_fig10_runtimes");
    assert_rejected(fig10, "fig10_runtimes", &["--json"], "--json");
}
