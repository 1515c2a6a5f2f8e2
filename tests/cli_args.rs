//! `gcommc` argument handling: every malformed invocation must exit with
//! status 2 and a single clear `gcommc:`-prefixed line on stderr — never a
//! panic, never silence.

use std::process::{Command, Output};

fn gcommc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcommc"))
        .args(args)
        .output()
        .expect("failed to spawn gcommc")
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = gcommc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("gcommc:"),
        "{args:?}: stderr missing the gcommc: prefix: {stderr}"
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?}: stderr missing {expect_in_stderr:?}: {stderr}"
    );
}

#[test]
fn malformed_arguments_exit_two_with_a_message() {
    assert_usage_error(&["--strategy", "bogus", "x.hpf"], "strategy");
    assert_usage_error(&["--strategy"], "--strategy expects a value");
    assert_usage_error(&["--stats-json"], "--stats-json expects a file path");
    assert_usage_error(&["--sim", "not-a-number", "x.hpf"], "--sim");
    assert_usage_error(&["--sim"], "--sim expects an integer");
    assert_usage_error(&["--faults"], "--faults expects a spec");
    assert_usage_error(&["--faults", "loss=banana", "x.hpf"], "fault spec");
    assert_usage_error(&["--budget"], "--budget expects a spec");
    assert_usage_error(&["--budget", "steps=abc", "x.hpf"], "budget");
    assert_usage_error(&["--budget", "frobs=3", "x.hpf"], "budget");
    assert_usage_error(&["--no-such-flag", "x.hpf"], "--no-such-flag");
    assert_usage_error(&["a.hpf", "b.hpf"], "unexpected");
    assert_usage_error(&[], "missing input file");
}

#[test]
fn serve_and_client_arguments_exit_two_with_a_message() {
    assert_usage_error(&["serve", "--addr"], "--addr expects a value");
    assert_usage_error(&["serve", "--addr", "noport"], "--addr expects host:port");
    assert_usage_error(&["serve", "--cache-bytes", "lots"], "--cache-bytes");
    assert_usage_error(&["serve", "--jobs", "zero"], "--jobs");
    assert_usage_error(&["serve", "--budget", "frobs=1"], "budget");
    assert_usage_error(&["serve", "stray"], "unexpected argument");
    assert_usage_error(&["client"], "--addr <host:port> is required");
    assert_usage_error(&["client", "--addr", "1.2.3.4:1", "--op", "frob"], "--op");
    assert_usage_error(
        &["client", "--addr", "1.2.3.4:1", "--sim", "mars"],
        "--sim profile must be sp2 or now",
    );
}

#[test]
fn version_flag_prints_the_workspace_version() {
    let out = gcommc(&["--version"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with(&format!("gcommc {}", env!("CARGO_PKG_VERSION"))),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("gcomm-serve/v1"), "stdout: {stdout}");
    // The flag wins from any position, even with other arguments around.
    let out = gcommc(&["--counts", "--version", "x.hpf"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn missing_input_file_is_a_clean_error() {
    let out = gcommc(&["/no/such/file.hpf"]);
    assert_ne!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gcommc:"), "stderr: {stderr}");
}

/// Runs `gcommc` with `input` on its standard input.
fn gcommc_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_gcommc"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn gcommc");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn valid_budget_spec_compiles_from_stdin() {
    let out = gcommc_stdin(
        &["--strategy", "comb", "--budget", "steps=50000", "-"],
        "\nprogram t\nparam n\nreal a(n,n), b(n,n) distribute (block,block)\n\
         b(2:n, 1:n) = a(1:n-1, 1:n)\nend\n",
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `gcommc` quotes the source line of each diagnostic under it. A bad loop
/// bound used to be reported at the enclosing block's first assignment
/// (quoting the wrong line) and a bad `if` condition at no line (quoting
/// nothing): both carry the line of their own `do` / `if`.
#[test]
fn loop_bound_and_condition_diagnostics_quote_their_own_line() {
    let bound = "program t\nparam n\nreal a(n) distribute (block)\na(1) = 0\n\n\
                 do i = 1, m\n  a(i) = 1\nenddo\nend\n";
    let cond = "program t\nparam n\nreal a(n) distribute (block)\nreal q\na(1) = 0\n\
                if (p > 0) then\n  a(1) = 1\nendif\nend\n";
    for (src, diagnostic, quoted) in [
        (
            bound,
            "gcommc: line 6: reference to undeclared name `m`",
            "     6 | do i = 1, m",
        ),
        (
            cond,
            "gcommc: line 6: reference to undeclared name `p`",
            "     6 | if (p > 0) then",
        ),
    ] {
        let out = gcommc_stdin(&["-"], src);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(
            lines,
            [diagnostic, quoted, "gcommc: 1 error(s), no output"],
            "on:\n{src}"
        );
    }
}
