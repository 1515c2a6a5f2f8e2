//! # The gcomm benchmark
//!
//! Four workloads (`kernels`, `corpus`, `serve`, `edit`), eight end-to-end
//! metrics that mean something on every one of them, and a traced run
//! whose per-layer numbers reconcile to the end-to-end ones with the
//! residual named. `README.md` beside this crate is the manual; `spec` is
//! the contract `BENCHMARK.json` is generated from.
//!
//! This library and the `benchmark` binary are the **end-to-end path** and
//! call only façade-level API (`gcomm::compile`, `core::{lower_to_sim,
//! SimConfig, check_schedule}`, `machine::{simulate, NetworkModel,
//! ProcGrid}`, `exec::verify_schedule`, `serve::{spawn, ServiceConfig,
//! Client, compile_request, SimSpec}`, `kernels::all_kernels`,
//! `proptest::hpf`). Everything that reaches for a pass-level function
//! lives in the `benchmark-layers` binary, which `--trace 1` executes, so
//! a change that reshapes a pass cannot make the end-to-end benchmark
//! unbuildable.

pub mod e2e;
pub mod inproc;
pub mod inputs;
pub mod rounds;
pub mod selfcheck;
pub mod served;
pub mod spec;
pub mod util;
pub mod verdict;

/// The arguments of one run, as the driver passes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--workload`
    pub workload: String,
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: f64,
    /// `--trace`
    pub trace: bool,
}

impl RunArgs {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message naming the offending argument.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            workload: String::new(),
            seed: 0,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        if !spec::is_workload(&out.workload) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("--workload must be one of {}", names.join(", ")));
        }
        if !(out.seconds.is_finite() && out.seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(out)
    }
}
