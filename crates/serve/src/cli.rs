//! Shared command-line plumbing for `gcommc` and the benchmark binaries.
//!
//! The drivers in the workspace share their cross-cutting flags —
//! `--stats`, `--stats-json <path>`, `--version` everywhere; `--budget
//! <spec>`, `--jobs <n>` (via [`gcomm_par::take_jobs_flag`]), `--addr
//! <host:port>` / `--cache-bytes <size>` where they apply — and every
//! one of them must obey the same contract: a malformed or unknown flag
//! exits with status 2 and one clear message. This module is the single
//! implementation; the `take_*` helpers strip their flags from the
//! argument list so each binary's own parser never sees them,
//! [`reject_leftover_args`] refuses what nobody took, and [`or_exit2`]
//! applies the exit-2 contract.

use gcomm_guard::{parse_size, BudgetSpec};

pub use crate::VERSION;

/// Applies the shared CLI error contract: on `Err`, print
/// `<bin>: <message>` to stderr and exit with status 2.
pub fn or_exit2<T>(bin: &str, r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        }
    }
}

/// Removes `--version` from `args`; when present the caller should print
/// [`version_line`] and exit 0.
pub fn take_version_flag(args: &mut Vec<String>) -> bool {
    take_switch(args, "--version")
}

/// Removes every occurrence of the valueless flag `name` from `args`;
/// true when there was one.
pub fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// The one-line `--version` output shared by every binary: the single
/// workspace-level version constant plus the service protocol id.
pub fn version_line(bin: &str) -> String {
    format!("{bin} {} ({})", VERSION, crate::protocol::PROTOCOL)
}

/// For a binary that has taken every flag it knows out of `args`: whatever
/// is left is a typo or a flag it no longer has.
///
/// # Errors
///
/// Naming the first leftover argument.
pub fn reject_leftover_args(args: &[String]) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
    }
}

/// Extracts the value following flag `name`, removing both from `args`.
///
/// # Errors
///
/// When the flag is present without a value, or the value looks like
/// another option.
pub fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let mut value = None;
    let mut kept = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    let mut err = None;
    while let Some(a) = it.next() {
        if a == name {
            match it.next() {
                Some(v) if !v.starts_with("--") => value = Some(v),
                Some(v) => {
                    err = Some(format!("{name} expects a value, got option '{v}'"));
                    break;
                }
                None => {
                    err = Some(format!("{name} expects a value"));
                    break;
                }
            }
        } else {
            kept.push(a);
        }
    }
    drop(it);
    *args = kept;
    match err {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

/// Extracts `--budget <spec>` (e.g. `steps=50000,ms=200,mem=4m`),
/// defaulting to the unlimited budget.
///
/// # Errors
///
/// On a missing value or a spec [`BudgetSpec::parse`] rejects.
pub fn take_budget_flag(args: &mut Vec<String>) -> Result<BudgetSpec, String> {
    match take_value_flag(args, "--budget")
        .map_err(|_| "--budget expects a spec, e.g. steps=50000,ms=200,mem=4m".to_string())?
    {
        None => Ok(BudgetSpec::default()),
        Some(spec) => BudgetSpec::parse(&spec),
    }
}

/// Extracts `--addr <host:port>` (the serve/client transport address).
///
/// # Errors
///
/// On a missing value or an address without a `:port` part.
pub fn take_addr_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    match take_value_flag(args, "--addr")? {
        None => Ok(None),
        Some(a) if a.contains(':') => Ok(Some(a)),
        Some(a) => Err(format!("--addr expects host:port, got '{a}'")),
    }
}

/// Extracts `--cache-bytes <size>` (k/m/g suffixes, e.g. `32m`), the
/// compile-cache capacity.
///
/// # Errors
///
/// On a missing or malformed size.
pub fn take_cache_bytes_flag(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    match take_value_flag(args, "--cache-bytes")? {
        None => Ok(None),
        Some(v) => parse_size(&v)
            .map(Some)
            .map_err(|e| format!("--cache-bytes: {e}")),
    }
}

/// Extracts `--persist <dir>`, the persistent compile-cache directory
/// (DESIGN.md §15). The directory is created on service start; `None`
/// keeps the cache in memory only.
///
/// # Errors
///
/// On a missing value.
pub fn take_persist_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    take_value_flag(args, "--persist").map_err(|_| "--persist expects a directory path".to_string())
}

/// Extracts `--persist-fsync always|off|interval:N`, the durability
/// policy of the persistent cache log.
///
/// # Errors
///
/// On a missing value or a policy [`gcomm_store::FsyncPolicy::parse`]
/// rejects.
pub fn take_persist_fsync_flag(
    args: &mut Vec<String>,
) -> Result<Option<gcomm_store::FsyncPolicy>, String> {
    match take_value_flag(args, "--persist-fsync")
        .map_err(|_| "--persist-fsync expects always, off, or interval:N".to_string())?
    {
        None => Ok(None),
        Some(spec) => gcomm_store::FsyncPolicy::parse(&spec)
            .map(Some)
            .map_err(|e| format!("--persist-fsync: {e}")),
    }
}

/// Extracts a repeatable-count flag like `--shards <n>` (n ≥ 1).
///
/// # Errors
///
/// On a missing value, a non-integer, or zero.
pub fn take_count_flag(args: &mut Vec<String>, name: &str) -> Result<Option<usize>, String> {
    match take_value_flag(args, name)? {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("{name} expects a positive integer, got '{v}'")),
        },
    }
}

/// Extracts every occurrence of `name <value>` (a repeatable flag, e.g.
/// `--attach <addr> --attach <addr>`), preserving order.
///
/// # Errors
///
/// When any occurrence is missing its value.
pub fn take_repeated_flag(args: &mut Vec<String>, name: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    let mut kept = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    let mut err = None;
    while let Some(a) = it.next() {
        if a == name {
            match it.next() {
                Some(v) if !v.starts_with("--") => values.push(v),
                _ => {
                    err = Some(format!("{name} expects a value"));
                    break;
                }
            }
        } else {
            kept.push(a);
        }
    }
    drop(it);
    *args = kept;
    match err {
        Some(e) => Err(e),
        None => Ok(values),
    }
}

/// Stats options parsed out of a binary's argument list (`--stats`,
/// `--stats-json <path>`).
#[derive(Debug, Default)]
pub struct StatsOpts {
    /// Print the human-readable table to stderr on completion.
    pub text: bool,
    /// Write the JSON report to this path on completion.
    pub json_path: Option<String>,
}

impl StatsOpts {
    /// Extracts `--stats` and `--stats-json <path>` from `args`, removing
    /// them so the binary's own parsing never sees them.
    ///
    /// # Errors
    ///
    /// When `--stats-json` is missing its path (or the "path" is another
    /// option).
    pub fn extract(args: &mut Vec<String>) -> Result<StatsOpts, String> {
        Ok(StatsOpts {
            text: take_switch(args, "--stats"),
            json_path: take_value_flag(args, "--stats-json")
                .map_err(|_| "--stats-json expects a file path".to_string())?,
        })
    }

    /// True when any stats output was requested.
    pub fn enabled(&self) -> bool {
        self.text || self.json_path.is_some()
    }

    /// Installs a fresh registry scoped to the returned guard; `None` when
    /// stats are off. Emission happens when the guard drops.
    pub fn install(self) -> Option<StatsScope> {
        if !self.enabled() {
            return None;
        }
        let reg = gcomm_obs::Registry::new();
        let scope = gcomm_obs::install(reg.clone());
        Some(StatsScope {
            opts: self,
            reg,
            _scope: scope,
        })
    }
}

/// Keeps stats collection active; renders the report on drop.
pub struct StatsScope {
    opts: StatsOpts,
    reg: gcomm_obs::Registry,
    _scope: gcomm_obs::ScopeGuard,
}

impl StatsScope {
    /// The registry collecting this scope's stats.
    pub fn registry(&self) -> &gcomm_obs::Registry {
        &self.reg
    }
}

impl Drop for StatsScope {
    fn drop(&mut self) {
        let report = self.reg.snapshot();
        if self.opts.text {
            eprint!("{}", report.render_text());
        }
        if let Some(path) = &self.opts.json_path {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("stats: {path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_flags_are_extracted_and_validated() {
        let mut args = argv(&["x", "--stats", "--stats-json", "out.json", "y"]);
        let opts = StatsOpts::extract(&mut args).unwrap();
        assert!(opts.text);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert!(opts.enabled());
        assert_eq!(args, argv(&["x", "y"]));

        let mut bad = argv(&["--stats-json"]);
        assert!(StatsOpts::extract(&mut bad).is_err());
        let mut bad = argv(&["--stats-json", "--stats"]);
        assert!(StatsOpts::extract(&mut bad).is_err());

        let mut none = argv(&["plain"]);
        assert!(!StatsOpts::extract(&mut none).unwrap().enabled());
    }

    #[test]
    fn budget_flag_parses_or_defaults() {
        let mut args = argv(&["--budget", "steps=9", "k"]);
        assert_eq!(take_budget_flag(&mut args).unwrap().steps, Some(9));
        assert_eq!(args, argv(&["k"]));
        let mut none = argv(&["k"]);
        assert!(take_budget_flag(&mut none).unwrap().is_unlimited());
        let mut bad = argv(&["--budget", "frobs=1"]);
        assert!(take_budget_flag(&mut bad).is_err());
        let mut missing = argv(&["--budget"]);
        assert!(take_budget_flag(&mut missing).is_err());
    }

    #[test]
    fn addr_and_cache_bytes_flags() {
        let mut args = argv(&["--addr", "127.0.0.1:7070", "--cache-bytes", "2m"]);
        assert_eq!(
            take_addr_flag(&mut args).unwrap().as_deref(),
            Some("127.0.0.1:7070")
        );
        assert_eq!(
            take_cache_bytes_flag(&mut args).unwrap(),
            Some(2 * 1024 * 1024)
        );
        assert!(args.is_empty());
        let mut bad = argv(&["--addr", "noport"]);
        assert!(take_addr_flag(&mut bad).is_err());
        let mut bad = argv(&["--cache-bytes", "lots"]);
        assert!(take_cache_bytes_flag(&mut bad).is_err());
    }

    #[test]
    fn persist_flags() {
        let mut args = argv(&[
            "--persist",
            "/tmp/cache",
            "--persist-fsync",
            "interval:8",
            "x",
        ]);
        assert_eq!(
            take_persist_flag(&mut args).unwrap().as_deref(),
            Some("/tmp/cache")
        );
        assert_eq!(
            take_persist_fsync_flag(&mut args).unwrap(),
            Some(gcomm_store::FsyncPolicy::Interval(8))
        );
        assert_eq!(args, argv(&["x"]));
        let mut none = argv(&["x"]);
        assert_eq!(take_persist_flag(&mut none).unwrap(), None);
        assert_eq!(take_persist_fsync_flag(&mut none).unwrap(), None);
        let mut bad = argv(&["--persist"]);
        assert!(take_persist_flag(&mut bad).is_err());
        let mut bad = argv(&["--persist-fsync", "sometimes"]);
        assert!(take_persist_fsync_flag(&mut bad).is_err());
        // `gcommc cluster` forwards the flag to its shards as text.
        use gcomm_store::FsyncPolicy;
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Off,
            FsyncPolicy::Interval(8),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    #[test]
    fn count_and_repeated_flags() {
        let mut args = argv(&["--shards", "4", "rest"]);
        assert_eq!(take_count_flag(&mut args, "--shards").unwrap(), Some(4));
        assert_eq!(args, argv(&["rest"]));
        let mut none = argv(&["rest"]);
        assert_eq!(take_count_flag(&mut none, "--shards").unwrap(), None);
        for bad in [&["--shards", "0"][..], &["--shards", "x"], &["--shards"]] {
            let mut bad = argv(bad);
            assert!(take_count_flag(&mut bad, "--shards").is_err());
        }

        let mut args = argv(&["--attach", "a:1", "keep", "--attach", "b:2"]);
        assert_eq!(
            take_repeated_flag(&mut args, "--attach").unwrap(),
            argv(&["a:1", "b:2"])
        );
        assert_eq!(args, argv(&["keep"]));
        let mut bad = argv(&["--attach"]);
        assert!(take_repeated_flag(&mut bad, "--attach").is_err());
    }

    #[test]
    fn version_flag_and_line() {
        let mut args = argv(&["a", "--version", "b"]);
        assert!(take_version_flag(&mut args));
        assert_eq!(args, argv(&["a", "b"]));
        assert!(!take_version_flag(&mut args));
        let line = version_line("gcommc");
        assert!(line.starts_with("gcommc "));
        assert!(line.contains(VERSION));
        assert!(line.contains("gcomm-serve/v1"));
    }
}
