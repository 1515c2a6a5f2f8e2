//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository root
//! is `benchmark manifest` byte for byte (`smoke.sh` checks it), so this
//! table is the single place a name, unit or bound is written down.

/// Seconds one run measures (`run_seconds`). A run ends within a second
/// of it, so the driver's 92 runs and two 20 s builds take about 2900 of
/// its 3420 s.
pub const RUN_SECONDS: u64 = 30;

/// `(name, why)` of each workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "kernels",
        "the paper's six routines x {orig,nored,comb} compiled, lowered and simulated in-process: placement (redundancy + subsumption) dominates and hydflo:flux sets p95, so a redundancy rewrite shows here",
    ),
    (
        "corpus",
        "the same in-process op over 400 pinned generated programs under comb: small inputs where parse, lowering and analysis set-up outweigh redundancy, so per-compile set-up cost shows here",
    ),
    (
        "serve",
        "one TCP server, one closed-loop client: 900 repeats of 100 hot corpus programs and 300 never-seen ones per round, so p50 is the warm-hit path and p95 the cold served compile",
    ),
    (
        "edit",
        "8 modules of 64 routines, 400 single-routine edits per round: every request misses the response cache and hits the query engine for the unedited routines, reads beside invalidating writes",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The eight end-to-end metrics, reported on every workload.
///
/// The issue asked for 0.05 on the three timing metrics and allowed up to
/// 0.10 on the evidence of an A/A table. They are 0.10 *and* the speed
/// probe stays, because neither is enough alone (`AA.md`): the driver
/// rejects a benchmark whose own spread exceeds a bound, and the contract
/// wants every spread under a third of its bound. With the probe the
/// timing spreads of `selfcheck` are 0.01-0.043 — about a third of 0.10,
/// most of 0.05. Without it they have been seen at 0.0555, which a third
/// rule would answer with 0.17, past the issue's cap. And in minutes when
/// the shared host's caches are under another guest's load, `serve`
/// `op_p50_us` spreads 0.04-0.07 under any protocol tried: 0.05 would have
/// the driver reject the benchmark whenever its runs meet such minutes.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", "lower", 0.10),
    ("ops_per_s", "1/s", "higher", 0.10),
    ("op_p50_us", "us", "lower", 0.10),
    ("op_p95_us", "us", "lower", 0.10),
    ("ok_share", "share", "higher", 0.0),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("sim_us_geomean", "us_sim", "lower", 0.0),
    ("static_msgs_total", "count", "lower", 0.0),
];

/// One per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The per-layer metrics of the traced run. `_us` metrics are mean
/// microseconds per op (or per request) in the best pass; counts are
/// totals over one round's op list and repeat exactly.
pub const PER_LAYER: &[PerLayer] = &[
    ("lang.lex_us", "us", "lower"),
    ("lang.parse_us", "us", "lower"),
    ("lang.tokens", "count", "lower"),
    ("lang.ns_per_token", "ns", "lower"),
    ("ir.lower_us", "us", "lower"),
    ("ir.dom_us", "us", "lower"),
    ("ir.stmts", "count", "lower"),
    ("ir.cfg_nodes", "count", "lower"),
    ("ssa.build_us", "us", "lower"),
    ("ssa.defs", "count", "lower"),
    ("dep.queries", "count", "lower"),
    ("dep.query_us", "us", "lower"),
    ("sections.subsume_checks", "count", "lower"),
    ("sections.subsume_memo_hit_ratio", "share", "higher"),
    ("sections.asd_built", "count", "lower"),
    ("sections.interned", "count", "lower"),
    ("core.compile_us", "us", "lower"),
    ("core.commgen_us", "us", "lower"),
    ("core.analysis_us", "us", "lower"),
    ("core.candidates_us", "us", "lower"),
    ("core.subset_us", "us", "lower"),
    ("core.redundancy_us", "us", "lower"),
    ("core.greedy_us", "us", "lower"),
    ("core.place_orig_us", "us", "lower"),
    ("core.place_nored_us", "us", "lower"),
    ("core.report_us", "us", "lower"),
    ("core.lower_to_sim_us", "us", "lower"),
    ("core.entries", "count", "lower"),
    ("core.entries_redundant", "count", "higher"),
    ("core.entries_combined", "count", "higher"),
    ("core.candidate_positions", "count", "lower"),
    ("core.redundancy_checks", "count", "lower"),
    ("core.subset_eliminated", "count", "higher"),
    ("core.greedy_rounds", "count", "lower"),
    ("core.incr_split_us", "us", "lower"),
    ("core.incr_module_cold_us", "us", "lower"),
    ("core.incr_module_edit_us", "us", "lower"),
    ("guard.steps", "count", "lower"),
    ("machine.simulate_us", "us", "lower"),
    ("machine.sim_messages", "count", "lower"),
    ("obs.on_over_off_ratio", "ratio", "lower"),
    ("serve.json_parse_us", "us", "lower"),
    ("serve.request_parse_us", "us", "lower"),
    ("serve.key_us", "us", "lower"),
    ("serve.hit_inproc_us", "us", "lower"),
    ("serve.miss_inproc_us", "us", "lower"),
    ("serve.cold_payload_us", "us", "lower"),
    ("serve.frame_us", "us", "lower"),
    ("serve.ping_us", "us", "lower"),
    ("serve.queue_handoff_us", "us", "lower"),
    ("serve.warm_tcp_p50_us", "us", "lower"),
    ("serve.cold_tcp_p50_us", "us", "lower"),
    ("serve.edit_tcp_p50_us", "us", "lower"),
    ("serve.edit_inproc_us", "us", "lower"),
    ("serve.module_hit_tcp_p50_us", "us", "lower"),
    ("serve.spawn_connect_us", "us", "lower"),
    ("serve.preload_us", "us", "lower"),
    ("serve.resp_bytes_mean", "B", "lower"),
    ("serve.cache_hit_ratio", "share", "higher"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.overloaded", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("query.hit", "count", "higher"),
    ("query.miss", "count", "lower"),
    ("query.cutoff", "count", "higher"),
    ("query.invalidate", "count", "lower"),
    ("query.hit_ratio", "share", "higher"),
    ("query.memo_hit_us", "us", "lower"),
    ("query.routines_recompiled_per_edit", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.compile_residual_share", "share", "lower"),
    ("trace.serve_warm_residual_share", "share", "lower"),
    ("trace.serve_cold_residual_share", "share", "lower"),
    ("trace.edit_residual_share", "share", "lower"),
    ("noise.median_over_best", "ratio", "lower"),
    ("noise.round_over_steps", "ratio", "lower"),
];

/// True for a workload name the benchmark knows.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders the result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, values with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN/inf; a metric that could not be measured
            // reads 0 and the run is already marked incorrect.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200), "why too long");
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        assert!(manifest().len() < 64 * 1024);
    }
}
