//! `benchmark-layers` — the traced run (`--trace 1`).
//!
//! Runs the same rounds as the end-to-end path with a span recorded around
//! every public call, replays the pipeline stage by stage, walks the serve
//! ladder, and prints every per-layer metric. Layer sums are reconciled
//! with the whole they are part of and the difference is printed under its
//! own name (`trace.*_residual_share`): naming the unattributed part is
//! the point. The spans of the best pass and the full ledger are written
//! to `benchmark/out/trace-<workload>.json`.
//!
//! This is the one target of the benchmark that calls pass-level
//! functions; the end-to-end path never depends on it being buildable.

mod compile_ladder;
mod serve_ladder;
mod tracer;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use gcomm::serve::{compile_request, SimSpec};
use gcomm::Strategy;
use gcomm_benchmark::inproc::Inproc;
use gcomm_benchmark::inputs::{
    corpus_programs, edit_chains, split_module, Program, EXPECTED_STATIC_COUNTS,
};
use gcomm_benchmark::served::{counter, one_worker_config, OpClass, Served};
use gcomm_benchmark::spec::{result_line, PER_LAYER};
use gcomm_benchmark::{util, RunArgs};

use compile_ladder::CompileLadder;
use serve_ladder::{EditLadder, ServedTrace, Stops};
use tracer::{mean, Span};

/// How `--seconds` is split: the workload's own rounds (served or
/// in-process), the other kind, the in-process stops of the serve ladder,
/// the two transport probes, and (on `edit`) the edit ladder. The shares
/// sum to under 1; prep and the counting pass take the rest.
const OWN_SHARE: f64 = 0.45;
const OTHER_SHARE: f64 = 0.15;
const STOPS_SHARE: f64 = 0.15;
const TRANSPORT_SHARE: f64 = 0.05;
const EDIT_SHARE: f64 = 0.12;

/// A served workload over the programs of an in-process one: every
/// program requested once cold, then once more warm, no preload. Lets the
/// serve ladder run on `kernels` and `corpus` inputs too.
fn served_over(programs: &[Program]) -> Served {
    let sim = SimSpec::flat("sp2", 64);
    let n = programs.len();
    Served {
        preload: Vec::new(),
        ops: (0..2 * n)
            .map(|k| {
                let p = &programs[k % n];
                compile_request(k as u64 + 1, &p.src, p.strategy, None, Some(&sim))
            })
            .collect(),
        class: (0..2 * n)
            .map(|k| if k < n { OpClass::Cold } else { OpClass::Warm })
            .collect(),
        origin: (0..2 * n).map(|k| (k % n, 0)).collect(),
        expected: Vec::new(),
        expected_counts: None,
        config: one_worker_config(),
        oracle_errors: Vec::new(),
        sim_us_geomean: 0.0,
        static_msgs_total: 0,
    }
}

/// Everything one traced run measured.
struct Traced {
    compile: CompileLadder,
    served: ServedTrace,
    /// The served workload the rounds ran.
    workload: Served,
    /// Distinct request of each timed op (index into the stops).
    op_request: Vec<usize>,
    stops: Stops,
    edit: EditLadder,
    ping_us: f64,
    sleep0_us: f64,
    memo_hit_us: f64,
    /// True when the workload's own rounds are the served ones.
    served_is_own: bool,
    errors: Vec<String>,
}

fn measure(args: &RunArgs) -> Traced {
    let served_is_own = matches!(args.workload.as_str(), "serve" | "edit");
    let (own, other) = (args.seconds * OWN_SHARE, args.seconds * OTHER_SHARE);
    let (compile_s, served_s) = if served_is_own {
        (other, own)
    } else {
        (own, other)
    };
    let mut errors = Vec::new();

    // The compile set and the served workload of each benchmark workload.
    let (programs, order, workload) = match args.workload.as_str() {
        "kernels" | "corpus" => {
            let w = Inproc::prepare(&args.workload, args.seed, EXPECTED_STATIC_COUNTS);
            errors.extend(w.oracle_errors);
            let served = served_over(&w.programs);
            (w.programs, w.order, served)
        }
        "serve" => {
            let programs = corpus_programs();
            let order = (0..programs.len()).collect();
            (programs, order, Served::prepare("serve", args.seed))
        }
        _ => {
            // The routines of the modules as preloaded.
            let programs: Vec<Program> = edit_chains()
                .iter()
                .flat_map(|c| {
                    split_module(&c[0])
                        .into_iter()
                        .map(str::to_string)
                        .collect::<Vec<_>>()
                })
                .enumerate()
                .map(|(i, src)| Program {
                    name: format!("routine{i}/comb"),
                    src,
                    strategy: Strategy::Global,
                })
                .collect();
            let order = (0..programs.len()).collect();
            (programs, order, Served::prepare("edit", args.seed))
        }
    };
    errors.extend(workload.oracle_errors.iter().cloned());

    let compile = compile_ladder::run(&programs, &order, compile_s);
    errors.extend(compile.errors.iter().cloned());
    let served = serve_ladder::served_rounds(&workload, served_s);
    if served.failed > 0 {
        errors.push(format!("{} served ops failed", served.failed));
    }

    // Distinct requests, and which of them each timed op sends.
    let mut distinct: Vec<&str> = Vec::new();
    let mut resp_len: Vec<usize> = Vec::new();
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    // Two requests are the same request when they agree from the
    // `strategy` member on: only the id before it differs.
    let strip_id = |r: &str| r.find("\"strategy\"").unwrap_or(0);
    let op_request: Vec<usize> = workload
        .ops
        .iter()
        .zip(&served.resp_len)
        .map(|(r, &len)| {
            *seen.entry(&r[strip_id(r)..]).or_insert_with(|| {
                distinct.push(r);
                resp_len.push(len);
                distinct.len() - 1
            })
        })
        .collect();
    let stops = serve_ladder::stops(&distinct, &resp_len, args.seconds * STOPS_SHARE);
    let (ping_us, sleep0_us) = serve_ladder::transport(args.seconds * TRANSPORT_SHARE);
    let edit = if args.workload == "edit" {
        serve_ladder::edit_ladder(&edit_chains(), args.seconds * EDIT_SHARE)
    } else {
        EditLadder::default()
    };

    Traced {
        compile,
        served,
        workload,
        op_request,
        stops,
        edit,
        ping_us,
        sleep0_us,
        memo_hit_us: serve_ladder::memo_hit_us(),
        served_is_own,
        errors,
    }
}

/// The reconciliation of one request class: the whole over TCP, the parts
/// measured in-process, and what is left.
struct Ledger {
    class: &'static str,
    whole_us: f64,
    parts: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn residual_share(&self) -> f64 {
        let parts: f64 = self.parts.iter().map(|p| p.1).sum();
        if self.whole_us > 0.0 {
            (self.whole_us - parts) / self.whole_us
        } else {
            0.0
        }
    }
}

impl Traced {
    /// Mean of a per-request stop over the ops of one class.
    fn stop_mean(&self, stop: &[f64], class: OpClass) -> f64 {
        let v: Vec<f64> = self
            .op_request
            .iter()
            .zip(&self.workload.class)
            .filter(|(_, c)| **c == class)
            .map(|(&r, _)| stop[r])
            .collect();
        mean(&v)
    }

    fn ledger(&self, class: OpClass) -> Ledger {
        let s = &self.stops;
        let handoff = (self.sleep0_us - self.ping_us).max(0.0);
        let mut parts = vec![
            ("serve.ping_us", self.ping_us),
            ("serve.json_parse_us", self.stop_mean(&s.json_parse, class)),
            (
                "serve.request_parse_us",
                self.stop_mean(&s.request_parse, class),
            ),
            ("serve.frame_us", self.stop_mean(&s.frame, class)),
        ];
        let name = match class {
            OpClass::Warm => {
                parts.push(("serve.hit_inproc_us", self.stop_mean(&s.hit_inproc, class)));
                "warm"
            }
            OpClass::Cold => {
                parts.push(("serve.queue_handoff_us", handoff));
                parts.push((
                    "serve.miss_inproc_us",
                    self.stop_mean(&s.miss_inproc, class),
                ));
                "cold"
            }
            OpClass::Edit => {
                parts.push(("serve.queue_handoff_us", handoff));
                parts.push(("serve.edit_inproc_us", self.edit.edit_inproc_us));
                "edit"
            }
        };
        Ledger {
            class: name,
            whole_us: self.served.class_p50_mean(&self.workload, class).1,
            parts,
        }
    }

    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let c = &self.compile;
        let st = &self.served;
        let w = &self.workload;
        let s = &self.stops;
        let stats = |name: &str| counter(&st.stats, name) as f64;
        let (q_hit, q_miss) = (stats("query.hit"), stats("query.miss"));
        let tokens = c.counts.get("lang.tokens").copied().unwrap_or(0.0);
        let mut m: BTreeMap<&'static str, f64> = c.counts.clone();
        m.extend([
            ("lang.lex_us", c.staged_us("lang.lex")),
            ("lang.parse_us", c.staged_us("lang.parse")),
            (
                "lang.ns_per_token",
                if tokens > 0.0 {
                    c.staged_spans.sum_us("lang.parse") * 1e3 / tokens
                } else {
                    0.0
                },
            ),
            ("ir.lower_us", c.staged_us("ir.lower")),
            ("ir.dom_us", c.staged_us("ir.dom")),
            ("ssa.build_us", c.staged_us("ssa.build")),
            ("dep.query_us", c.dep_query_us),
            ("core.compile_us", c.op_us("core.compile")),
            ("core.commgen_us", c.staged_us("core.commgen")),
            ("core.analysis_us", c.staged_us("core.analysis")),
            ("core.candidates_us", c.staged_us("core.candidates")),
            ("core.subset_us", c.staged_us("core.subset")),
            ("core.redundancy_us", c.staged_us("core.redundancy")),
            ("core.greedy_us", c.staged_us("core.greedy")),
            ("core.place_orig_us", c.staged_us("core.place_orig")),
            ("core.place_nored_us", c.staged_us("core.place_nored")),
            ("core.report_us", c.op_us("core.report")),
            ("core.lower_to_sim_us", c.op_us("core.lower_to_sim")),
            ("core.incr_split_us", self.edit.incr_split_us),
            ("core.incr_module_cold_us", self.edit.incr_module_cold_us),
            ("core.incr_module_edit_us", self.edit.incr_module_edit_us),
            ("machine.simulate_us", c.op_us("machine.simulate")),
            ("obs.on_over_off_ratio", c.obs_on_over_off),
            ("serve.json_parse_us", mean(&s.json_parse)),
            ("serve.request_parse_us", mean(&s.request_parse)),
            ("serve.key_us", mean(&s.key)),
            ("serve.hit_inproc_us", mean(&s.hit_inproc)),
            ("serve.miss_inproc_us", mean(&s.miss_inproc)),
            ("serve.cold_payload_us", mean(&s.cold_payload)),
            ("serve.frame_us", mean(&s.frame)),
            ("serve.ping_us", self.ping_us),
            (
                "serve.queue_handoff_us",
                (self.sleep0_us - self.ping_us).max(0.0),
            ),
            (
                "serve.warm_tcp_p50_us",
                st.class_p50_mean(w, OpClass::Warm).0,
            ),
            (
                "serve.cold_tcp_p50_us",
                st.class_p50_mean(w, OpClass::Cold).0,
            ),
            (
                "serve.edit_tcp_p50_us",
                st.class_p50_mean(w, OpClass::Edit).0,
            ),
            ("serve.edit_inproc_us", self.edit.edit_inproc_us),
            (
                "serve.module_hit_tcp_p50_us",
                self.edit.module_hit_tcp_p50_us,
            ),
            (
                "serve.spawn_connect_us",
                st.reset_us.first().copied().unwrap_or(0.0),
            ),
            ("serve.preload_us", st.reset_us.iter().skip(1).sum()),
            ("serve.resp_bytes_mean", st.resp_bytes_mean),
            (
                "serve.cache_hit_ratio",
                stats("cache.hit") / w.ops.len().max(1) as f64,
            ),
            ("serve.cache_evictions", stats("cache.evict")),
            ("serve.overloaded", stats("serve.overloaded")),
            ("serve.errors", stats("serve.errors")),
            ("query.hit", q_hit),
            ("query.miss", q_miss),
            ("query.cutoff", stats("query.cutoff")),
            ("query.invalidate", stats("query.invalidate")),
            (
                "query.hit_ratio",
                if q_hit + q_miss > 0.0 {
                    q_hit / (q_hit + q_miss)
                } else {
                    0.0
                },
            ),
            ("query.memo_hit_us", self.memo_hit_us),
            (
                "query.routines_recompiled_per_edit",
                self.edit.routines_recompiled_per_edit,
            ),
            (
                "trace.overhead_share",
                if self.served_is_own {
                    st.overhead_share()
                } else {
                    c.overhead_share()
                },
            ),
            ("trace.compile_residual_share", c.residual_share()),
            (
                "trace.serve_warm_residual_share",
                self.ledger(OpClass::Warm).residual_share(),
            ),
            (
                "trace.serve_cold_residual_share",
                self.ledger(OpClass::Cold).residual_share(),
            ),
            (
                "trace.edit_residual_share",
                self.ledger(OpClass::Edit).residual_share(),
            ),
            (
                "noise.median_over_best",
                if self.served_is_own {
                    st.median_timed_s * 1e6 / st.untraced_op_us.iter().sum::<f64>().max(1e-9)
                } else {
                    c.median_untraced_s / c.untraced_s.max(1e-12)
                },
            ),
            (
                "noise.round_over_steps",
                if self.served_is_own {
                    st.best_round_us / st.untraced_op_us.iter().sum::<f64>().max(1e-9)
                } else {
                    c.best_pass_s / c.untraced_s.max(1e-12)
                },
            ),
        ]);
        m
    }
}

fn spans_json(out: &mut String, spans: &[Span]) {
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}\n    {{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.op
        );
    }
    out.push_str("\n  ]");
}

/// The trace file: run facts, every metric, the ledgers with their parts,
/// and the spans of the best pass of each kind.
fn trace_json(args: &RunArgs, cpu: Option<usize>, t: &Traced, m: &BTreeMap<&str, f64>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", args.workload);
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"pinned\": {},", cpu.is_some());
    let _ = writeln!(out, "  \"cpu\": {},", cpu.map_or(-1, |c| c as i64));
    let _ = writeln!(out, "  \"compile_passes\": {},", t.compile.passes);
    let _ = writeln!(out, "  \"served_rounds\": {},", t.served.rounds);
    out.push_str("  \"metrics\": {");
    for (i, (name, v)) in m.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(out, "{comma}\n    \"{name}\": {v}");
    }
    out.push_str("\n  },\n  \"ledgers\": [");
    let compile_parts: Vec<(&str, f64)> = compile_ladder::COMPILE_PARTS
        .iter()
        .map(|n| (*n, t.compile.staged_us(n)))
        .collect();
    let compile = Ledger {
        class: "compile",
        whole_us: t.compile.op_us("core.compile"),
        parts: compile_parts,
    };
    let ledgers = [
        compile,
        t.ledger(OpClass::Warm),
        t.ledger(OpClass::Cold),
        t.ledger(OpClass::Edit),
    ];
    for (i, l) in ledgers.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}\n    {{\"class\":\"{}\",\"whole_mean_us\":{},\"parts\":{{",
            l.class, l.whole_us
        );
        for (j, (name, v)) in l.parts.iter().enumerate() {
            let comma = if j > 0 { "," } else { "" };
            let _ = write!(out, "{comma}\"{name}\":{v}");
        }
        let _ = write!(out, "}},\"unattributed_share\":{}}}", l.residual_share());
    }
    out.push_str("\n  ],\n  \"op_spans\": ");
    spans_json(&mut out, &t.compile.op_spans.best_pass);
    out.push_str(",\n  \"staged_spans\": ");
    spans_json(&mut out, &t.compile.staged_spans.best_pass);
    out.push_str(",\n  \"served_spans\": ");
    spans_json(&mut out, &t.served.spans.best_pass);
    out.push_str("\n}\n");
    out
}

fn main() -> ExitCode {
    let cpu = util::pin_to_last_cpu();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark-layers: {e}");
            return ExitCode::from(2);
        }
    };
    let t = measure(&args);
    for e in &t.errors {
        eprintln!("benchmark-layers: {e}");
    }
    let m = t.metrics();

    // Inside the checkout: next to the benchmark's sources when run from
    // the repository root, as the driver and `smoke.sh` do.
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace_json(&args, cpu, &t, &m)))
    {
        eprintln!("benchmark-layers: cannot write {}: {e}", path.display());
    }

    let line: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    let attempted =
        (t.compile.ops * t.compile.passes + t.workload.ops.len() * t.served.rounds * 2) as u64;
    let failed = t.served.failed + t.compile.errors.len() as u64;
    println!(
        "{}",
        result_line(t.errors.is_empty(), attempted.max(1), failed, &line)
    );
    ExitCode::SUCCESS
}
