//! The serve ladder: every stop a request makes between the client's
//! `write` and its `read`, timed from outside through the service's public
//! functions, plus the traced served rounds and the edit path.
//!
//! ```text
//!   core.compile ⊂ serve.cold_payload ⊂ serve.miss_inproc ⊂ cold over TCP
//!   serve.key ⊂ serve.hit_inproc ⊂ warm over TCP
//!   core.incr_module_edit ⊂ serve.edit_inproc ⊂ edit over TCP
//! ```

use std::io::Cursor;
use std::time::Instant;

use gcomm::core::incr::{compile_module_cold, split_routines, IncrCompiler};
use gcomm::query::{Computed, QueryEngine};
use gcomm::serve::frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use gcomm::serve::json::Json;
use gcomm::serve::protocol::cache_key_material;
use gcomm::serve::service::cold_compile_payload;
use gcomm::serve::{spawn, Client, CompileReq, Request, Service};
use gcomm::{BudgetSpec, Strategy};
use gcomm_benchmark::rounds::{fastest_probe_ns, BestSteps, Lap, Laps, NoSpans};
use gcomm_benchmark::served::{one_worker_config, OpClass, RoundBuf, Served};

use crate::tracer::{mean, BestLaps, BestSpans, Tracer};

/// Fewest passes of a micro-measurement (per-position minima over them).
const MIN_PASSES: usize = 3;

/// True while a measurement that started at `started` should go on.
fn more(passes: usize, started: Instant, seconds: f64) -> bool {
    passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds
}

fn parse_compile(text: &str) -> Option<CompileReq> {
    match Request::parse(&Json::parse(text).ok()?) {
        Ok(Request::Compile(c)) => Some(c),
        _ => None,
    }
}

/// Per distinct request, best microseconds at each in-process stop.
#[derive(Debug, Default)]
pub struct Stops {
    pub json_parse: Vec<f64>,
    pub request_parse: Vec<f64>,
    pub key: Vec<f64>,
    pub hit_inproc: Vec<f64>,
    pub miss_inproc: Vec<f64>,
    pub cold_payload: Vec<f64>,
    pub frame: Vec<f64>,
}

/// Times the in-process stops of `requests` (distinct request texts) for
/// about `seconds`; `response_len[i]` is the size of request `i`'s
/// response.
pub fn stops(requests: &[&str], response_len: &[usize], seconds: f64) -> Stops {
    let n = requests.len();
    let config = one_worker_config();
    let effective: BudgetSpec = config.default_budget;
    let jsons: Vec<Json> = requests
        .iter()
        .map(|r| Json::parse(r).unwrap_or(Json::Null))
        .collect();
    let reqs: Vec<Option<CompileReq>> = requests.iter().map(|r| parse_compile(r)).collect();
    let responses: Vec<Vec<u8>> = response_len.iter().map(|&len| vec![b'x'; len]).collect();

    let mut laps: [BestLaps; 7] = std::array::from_fn(|_| BestLaps::new(n));
    let [json_parse, request_parse, key, hit, miss, cold, frame] = &mut laps;
    let warm = Service::new(config.clone());
    for req in reqs.iter().flatten() {
        let (_, report) = warm.compile(req);
        warm.finish(warm.begin(), report);
    }
    let mut wire = Vec::new();
    let (started, mut passes) = (Instant::now(), 0);
    while more(passes, started, seconds) {
        passes += 1;
        // A fresh service a pass: every compile on it is a miss, as every
        // cold request of a round is.
        let fresh = Service::new(config.clone());
        for i in 0..n {
            json_parse.time(i, 4, || Json::parse(requests[i]));
            request_parse.time(i, 4, || Request::parse(&jsons[i]));
            frame.time(i, 4, || {
                wire.clear();
                write_frame(&mut wire, &responses[i]).ok();
                read_frame(&mut Cursor::new(&wire), DEFAULT_MAX_FRAME).ok()
            });
            let Some(req) = &reqs[i] else { continue };
            key.time(i, 8, || cache_key_material(req, &effective));
            hit.time(i, 4, || warm.try_cached(req));
            cold.time(i, 1, || cold_compile_payload(req, &effective));
            miss.time(i, 1, || {
                let seq = fresh.begin();
                let (resp, report) = fresh.compile(req);
                fresh.finish(seq, report);
                resp
            });
        }
    }
    Stops {
        json_parse: json_parse.us(),
        request_parse: request_parse.us(),
        key: key.us(),
        hit_inproc: hit.us(),
        miss_inproc: miss.us(),
        cold_payload: cold.us(),
        frame: frame.us(),
    }
}

/// `(ping_us, sleep0_us)`: a round trip the reader thread answers inline,
/// and one that is handed to the worker pool and back with nothing to do.
/// Their difference is the queue hand-off. Each is measured in its own
/// stream (a hand-off evicts what the next ping would have found warm),
/// for about half of `seconds`.
pub fn transport(seconds: f64) -> (f64, f64) {
    const N: usize = 100;
    let config = one_worker_config();
    let mut out = [0.0, 0.0];
    if let Ok(server) = spawn("127.0.0.1:0", config) {
        if let Ok(mut client) = Client::connect(server.addr()) {
            let requests = [r#"{"op":"ping","id":1}"#, r#"{"op":"sleep","id":1,"ms":0}"#];
            for (us, request) in out.iter_mut().zip(requests) {
                let mut laps = BestLaps::new(N);
                let (started, mut passes) = (Instant::now(), 0);
                while more(passes, started, seconds / 2.0) {
                    passes += 1;
                    for i in 0..N {
                        laps.time(i, 1, || client.request(request));
                    }
                }
                *us = mean(&laps.us());
            }
        }
        let _ = server.stop();
    }
    (out[0], out[1])
}

/// What the traced served rounds measured.
#[derive(Debug)]
pub struct ServedTrace {
    /// Client-side spans: spawn+connect, each preload, each request.
    pub spans: BestSpans,
    /// Best microseconds per timed op, traced.
    pub traced_op_us: Vec<f64>,
    /// Best microseconds per timed op, untraced.
    pub untraced_op_us: Vec<f64>,
    /// Best microseconds per reset step (spawn+connect, then preloads).
    pub reset_us: Vec<f64>,
    /// Median wall seconds of an untraced timed phase.
    pub median_timed_s: f64,
    /// Best untraced timed phase as a whole, speed-free, microseconds.
    pub best_round_us: f64,
    /// The last round's `stats` response.
    pub stats: String,
    /// Mean response size over the timed ops, bytes.
    pub resp_bytes_mean: f64,
    /// Response size per timed op.
    pub resp_len: Vec<usize>,
    /// Rounds of each kind.
    pub rounds: usize,
    /// Ops that failed in any round.
    pub failed: u64,
}

impl ServedTrace {
    /// Median and mean of the untraced per-op bests of one class.
    pub fn class_p50_mean(&self, w: &Served, class: OpClass) -> (f64, f64) {
        let mut v: Vec<f64> = self
            .untraced_op_us
            .iter()
            .zip(&w.class)
            .filter(|(_, c)| **c == class)
            .map(|(us, _)| *us)
            .collect();
        if v.is_empty() {
            return (0.0, 0.0);
        }
        v.sort_by(f64::total_cmp);
        (v[v.len() / 2], mean(&v))
    }

    /// 1 - traced ops/s over untraced ops/s.
    pub fn overhead_share(&self) -> f64 {
        let (t, u): (f64, f64) = (
            self.traced_op_us.iter().sum(),
            self.untraced_op_us.iter().sum(),
        );
        if t > 0.0 {
            1.0 - u / t
        } else {
            0.0
        }
    }
}

/// Runs untraced and traced rounds of `w` in turn for about `seconds`.
pub fn served_rounds(w: &Served, seconds: f64) -> ServedTrace {
    let steps = 1 + w.preload.len() + w.ops.len();
    let mut tr = Tracer::new();
    let mut spans = BestSpans::new(steps);
    let (mut traced, mut untraced) = (BestSteps::default(), BestSteps::default());
    let mut reset = BestSteps::default();
    let mut buf = RoundBuf::default();
    let mut laps = Laps::default();
    let mut timed = Vec::new();
    let mut best_round = f64::INFINITY;
    let (mut rounds, mut failed) = (0, 0);
    let started = Instant::now();
    while rounds < 3 || started.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        laps.clear();
        failed += w.round(&mut laps, &mut buf, &mut NoSpans);
        if laps.ops.len() == w.ops.len() {
            untraced.absorb(&laps.ops);
            reset.absorb(&laps.reset);
            timed.push(laps.ops.iter().map(|l| l.ns).sum::<u64>() as f64 / 1e9);
            best_round = best_round.min(laps.ops_over_probe());
        }

        laps.clear();
        tr.begin_pass();
        failed += w.round(&mut laps, &mut buf, &mut tr);
        if laps.ops.len() == w.ops.len() {
            traced.absorb(&laps.ops);
            // One top-level span per step: reset steps first, then ops.
            let all: Vec<Lap> = laps.reset.iter().chain(&laps.ops).copied().collect();
            spans.absorb(&tr.spans, &all);
        }
    }
    let us = |b: &BestSteps| -> Vec<f64> {
        let best = b.best_ns(fastest_probe_ns());
        best.iter().map(|&ns| ns as f64 / 1e3).collect()
    };
    let resp_len: Vec<usize> = buf
        .responses
        .iter()
        .map(|r| r.as_ref().map_or(0, String::len))
        .collect();
    ServedTrace {
        spans,
        traced_op_us: us(&traced),
        untraced_op_us: us(&untraced),
        reset_us: us(&reset),
        median_timed_s: if timed.is_empty() {
            0.0
        } else {
            gcomm_benchmark::util::median(&timed)
        },
        best_round_us: if timed.is_empty() {
            0.0
        } else {
            best_round * fastest_probe_ns() as f64 / 1e3
        },
        stats: buf.stats.clone(),
        resp_bytes_mean: mean(&resp_len.iter().map(|&l| l as f64).collect::<Vec<_>>()),
        resp_len,
        rounds,
        failed,
    }
}

/// What the edit ladder measured (all zero off the `edit` workload).
#[derive(Debug, Default)]
pub struct EditLadder {
    pub incr_split_us: f64,
    pub incr_module_cold_us: f64,
    pub incr_module_edit_us: f64,
    pub edit_inproc_us: f64,
    pub module_hit_tcp_p50_us: f64,
    pub routines_recompiled_per_edit: f64,
}

/// Times the edit path in-process over the module chains for about
/// `seconds`: `chains[m][0]` is module `m` as preloaded, `chains[m][k]`
/// its state after `k` edits.
pub fn edit_ladder(chains: &[Vec<String>], seconds: f64) -> EditLadder {
    let spec = BudgetSpec::default();
    let states: Vec<&String> = chains.iter().flatten().collect();
    let edits: Vec<(usize, usize)> = chains
        .iter()
        .enumerate()
        .flat_map(|(m, c)| (1..c.len()).map(move |k| (m, k)))
        .collect();
    let request = |src: &str| CompileReq {
        id: Some(1),
        source: src.to_string(),
        strategy: Strategy::Global,
        budget: None,
        sim: None,
    };
    let config = one_worker_config();

    let mut split = BestLaps::new(states.len());
    let mut cold = BestLaps::new(chains.len());
    let mut incr = BestLaps::new(edits.len());
    let mut inproc = BestLaps::new(edits.len());
    let mut recompiled = 0u64;
    let (started, mut passes) = (Instant::now(), 0);
    while more(passes, started, seconds * 0.9) {
        passes += 1;
        for (i, s) in states.iter().enumerate() {
            split.time(i, 4, || split_routines(s));
        }
        let ic = IncrCompiler::new(config.query_cache_bytes);
        let svc = Service::new(config.clone());
        for (m, chain) in chains.iter().enumerate() {
            cold.time(m, 1, || {
                compile_module_cold(&chain[0], Strategy::Global, &spec)
            });
            ic.compile_module(&chain[0], Strategy::Global, &spec);
            let (_, report) = svc.compile(&request(&chain[0]));
            svc.finish(svc.begin(), report);
        }
        for (e, &(m, k)) in edits.iter().enumerate() {
            let mut outcome = None;
            incr.time(e, 1, || {
                outcome = Some(ic.compile_module(&chains[m][k], Strategy::Global, &spec));
            });
            if passes == 1 {
                // Exact: a routine whose place query missed was recompiled.
                recompiled += outcome
                    .iter()
                    .flat_map(|o| &o.routines)
                    .filter(|r| r.result.as_ref().is_ok_and(|a| !a.hits.2))
                    .count() as u64;
            }
            let req = request(&chains[m][k]);
            inproc.time(e, 1, || {
                let seq = svc.begin();
                let (resp, report) = svc.compile(&req);
                svc.finish(seq, report);
                resp
            });
        }
    }

    // A whole-module response-cache hit over TCP.
    let mut hit = BestLaps::new(chains.len());
    if let Ok(server) = spawn("127.0.0.1:0", config) {
        if let Ok(mut client) = Client::connect(server.addr()) {
            let reqs: Vec<String> = chains
                .iter()
                .map(|c| gcomm::serve::compile_request(1, &c[0], Strategy::Global, None, None))
                .collect();
            for r in &reqs {
                let _ = client.request(r);
            }
            while more(passes, started, seconds) {
                passes += 1;
                for (m, r) in reqs.iter().enumerate() {
                    hit.time(m, 1, || client.request(r));
                }
            }
        }
        let _ = server.stop();
    }
    let mut hits = hit.us();
    hits.sort_by(f64::total_cmp);

    EditLadder {
        incr_split_us: mean(&split.us()),
        incr_module_cold_us: mean(&cold.us()),
        incr_module_edit_us: mean(&incr.us()),
        edit_inproc_us: mean(&inproc.us()),
        module_hit_tcp_p50_us: hits
            .get(hits.len().div_ceil(2).saturating_sub(1))
            .copied()
            .unwrap_or(0.0),
        routines_recompiled_per_edit: recompiled as f64 / edits.len().max(1) as f64,
    }
}

/// Microseconds of `QueryEngine::memo` on a present key.
pub fn memo_hit_us() -> f64 {
    const KEYS: usize = 256;
    let engine = QueryEngine::new(1 << 20);
    let probe = |k: usize| {
        engine.memo("benchmark.probe", k as u64, || Computed {
            value: k as u64,
            bytes: 8,
            cacheable: true,
        })
    };
    (0..KEYS).for_each(|k| {
        probe(k);
    });
    let mut laps = BestLaps::new(KEYS);
    for _ in 0..20 {
        for k in 0..KEYS {
            laps.time(k, 8, || probe(k));
        }
    }
    mean(&laps.us())
}
