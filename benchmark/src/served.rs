//! The served workloads, `serve` and `edit`: one `serve::spawn` TCP server
//! with `jobs: 1`, one closed-loop `serve::Client`. Closed loop because
//! the service's callers (an editor, a CI loop, a sweep) each wait for
//! their reply; one worker because caller and server never run at the
//! same time, so the one pinned CPU loses nothing.
//!
//! Every round gets a **fresh server**: both workloads fill the server's
//! caches, and a round that inherited them would be cheaper than the one
//! before it.

use std::collections::HashMap;

use gcomm::machine::NetworkModel;
use gcomm::serve::{compile_request, spawn, Client, ServiceConfig, SimSpec};
use gcomm::Strategy;
use proptest::test_runner::TestRng;

use crate::inputs::{
    corpus_programs, edit_chains, exact_metrics, split_module, verify, verify_all, OpOut, Program,
    EDITS_PER_MODULE, HOT_LEN, MODULES,
};
use crate::rounds::{Laps, NoSpans, SpanSink};
use crate::util::{fnv1a, json_numbers, json_strings, shuffle};
use crate::verdict::Verdict;

/// Times each hot program is requested in one `serve` round.
const HOT_REPEATS: usize = 9;
/// Request id of preload request `i` is `PRELOAD_ID + i`; timed op `i`
/// carries id `i + 1`, the same every round, so a whole response repeats.
const PRELOAD_ID: u64 = 900_000;

/// What kind of work a timed request is — the classes the traced run
/// reports separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Repeat of a preloaded program: a response-cache hit.
    Warm,
    /// Never-seen program: a full served compile.
    Cold,
    /// A module one edit away from the server's last view of it.
    Edit,
}

/// Counters of the server's `stats` response a round is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    /// `cache.hit`
    pub hits: u64,
    /// `cache.miss`
    pub misses: u64,
    /// `cache.evict`
    pub evictions: u64,
}

/// A prepared served workload.
#[derive(Debug)]
pub struct Served {
    /// Requests of the reset phase, sent after connecting.
    pub preload: Vec<String>,
    /// Requests of the timed phase, in order.
    pub ops: Vec<String>,
    /// Class of each timed request.
    pub class: Vec<OpClass>,
    /// The input each timed request sends — `serve`: (corpus program, 0);
    /// `edit`: (module, edits applied to it). What the oracle step ties
    /// a response to.
    pub origin: Vec<(usize, usize)>,
    /// Digest of the oracle-checked response per timed request; `None`
    /// when the oracle rejected it.
    pub expected: Vec<Option<u64>>,
    /// What the server's counters must read after a round (`serve` only:
    /// 900 hits, 400 misses and the calibrated number of evictions).
    pub expected_counts: Option<CacheCounts>,
    /// Configuration every round's server is spawned with.
    pub config: ServiceConfig,
    /// What the oracles objected to (empty on a correct system).
    pub oracle_errors: Vec<String>,
    /// Geometric mean of simulated time over the distinct routines.
    pub sim_us_geomean: f64,
    /// Sum of static call sites over the distinct routines.
    pub static_msgs_total: u64,
}

/// Scratch space of a round, kept by the caller.
#[derive(Debug, Default)]
pub struct RoundBuf {
    /// Response (or transport error) per timed request.
    pub responses: Vec<Result<String, String>>,
    /// The `stats` response taken after the timed phase.
    pub stats: String,
}

/// The configuration of every server the benchmark spawns: the service's
/// defaults with one worker (see the module docs).
pub fn one_worker_config() -> ServiceConfig {
    ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    }
}

fn response_ok(resp: &str) -> bool {
    resp.contains("\"ok\":true") && !resp.contains("\"ok\":false")
}

/// Reads one counter out of a stable `stats` response.
pub fn counter(stats: &str, name: &str) -> u64 {
    json_numbers(stats, name).first().map_or(0, |v| *v as u64)
}

fn cache_counts(stats: &str) -> CacheCounts {
    CacheCounts {
        hits: counter(stats, "cache.hit"),
        misses: counter(stats, "cache.miss"),
        evictions: counter(stats, "cache.evict"),
    }
}

impl Served {
    /// Builds the request lists from `(workload, seed)`. Nothing is
    /// verified yet: until a verdict is [adopted](Served::adopt) a round
    /// compares its responses with nothing.
    ///
    /// # Panics
    ///
    /// On a workload name that is not served.
    pub fn new(workload: &str, seed: u64) -> Served {
        match workload {
            "serve" => Served::new_serve(seed),
            "edit" => Served::new_edit(seed),
            other => panic!("'{other}' is not a served workload"),
        }
    }

    /// The oracle step: checks every distinct routine against the
    /// in-process oracles, runs calibration rounds against real servers
    /// and ties each response to its oracle. On `serve` it also sizes
    /// the response cache, here and in the verdict.
    pub fn verify(&mut self) -> Verdict {
        if self.class.first() == Some(&OpClass::Edit) {
            self.verify_edit()
        } else {
            self.verify_serve()
        }
    }

    /// Takes over what the oracle step found.
    pub fn adopt(&mut self, verdict: Verdict) {
        self.expected = verdict.expected;
        self.expected.resize(self.ops.len(), None);
        self.expected_counts = verdict.counts;
        if let Some(bytes) = verdict.cache_bytes {
            self.config.cache_bytes = bytes;
        }
        self.oracle_errors = verdict.oracle_errors;
        self.sim_us_geomean = verdict.sim_us_geomean;
        self.static_msgs_total = verdict.static_msgs_total;
    }

    /// [`Served::new`], verified in this process.
    pub fn prepare(workload: &str, seed: u64) -> Served {
        let mut w = Served::new(workload, seed);
        let verdict = w.verify();
        w.adopt(verdict);
        w
    }

    fn new_serve(seed: u64) -> Served {
        let programs = corpus_programs();

        // 300 blocks of three hot requests and one cold one. The hot
        // stream is nine seeded permutations of the hot set, so a hot
        // program is never left untouched for more than 199 hot requests
        // (67 cold inserts) and a cache with room for the hot set plus
        // half the cold bytes evicts cold entries only.
        let mut rng = TestRng::new(seed);
        let mut hot = Vec::with_capacity(HOT_LEN * HOT_REPEATS);
        for _ in 0..HOT_REPEATS {
            let mut pass: Vec<usize> = (0..HOT_LEN).collect();
            shuffle(&mut pass, &mut rng);
            hot.extend(pass);
        }
        let mut cold: Vec<usize> = (HOT_LEN..programs.len()).collect();
        shuffle(&mut cold, &mut rng);
        let mut order: Vec<(usize, OpClass)> = Vec::with_capacity(hot.len() + cold.len());
        for (block, &c) in cold.iter().enumerate() {
            let at = rng.below(4) as usize;
            let mut hots = hot[block * 3..block * 3 + 3].iter();
            for slot in 0..4 {
                order.push(if slot == at {
                    (c, OpClass::Cold)
                } else {
                    (
                        *hots.next().expect("three hot requests a block"),
                        OpClass::Warm,
                    )
                });
            }
        }

        let sim = SimSpec::flat("sp2", 64);
        let request =
            |id: u64, p: &Program| compile_request(id, &p.src, p.strategy, None, Some(&sim));
        Served {
            preload: (0..HOT_LEN)
                .map(|i| request(PRELOAD_ID + i as u64, &programs[i]))
                .collect(),
            ops: order
                .iter()
                .enumerate()
                .map(|(k, &(i, _))| request(k as u64 + 1, &programs[i]))
                .collect(),
            class: order.iter().map(|&(_, c)| c).collect(),
            origin: order.iter().map(|&(i, _)| (i, 0)).collect(),
            expected: Vec::new(),
            expected_counts: None,
            config: one_worker_config(),
            sim_us_geomean: 0.0,
            static_msgs_total: 0,
            oracle_errors: Vec::new(),
        }
    }

    fn verify_serve(&mut self) -> Verdict {
        let programs = corpus_programs();
        let (verified, mut oracle_errors) = verify_all(&programs, &NetworkModel::sp2());
        let (sim_us_geomean, static_msgs_total) = exact_metrics(verified.iter().flatten());

        // Sizing round on the default (roomy) cache: an entry holds its
        // key material (the source plus a short prefix) and its payload.
        let mut buf = RoundBuf::default();
        self.round(&mut Laps::default(), &mut buf, &mut NoSpans);
        let mut entry_bytes = vec![0u64; programs.len()];
        for (&(i, _), resp) in self.origin.iter().zip(&buf.responses) {
            let len = resp.as_ref().map_or(0, String::len);
            entry_bytes[i] = (programs[i].src.len() + len + 40) as u64;
        }
        let hot_bytes: u64 = entry_bytes[..HOT_LEN].iter().sum();
        let cold_bytes: u64 = entry_bytes[HOT_LEN..].iter().sum();
        self.config.cache_bytes = hot_bytes + cold_bytes / 2;

        // Calibration round on the sized cache: the responses the timed
        // rounds must reproduce, each tied to its in-process oracle.
        self.round(&mut Laps::default(), &mut buf, &mut NoSpans);
        let expected = self
            .origin
            .iter()
            .zip(&buf.responses)
            .map(|(&(i, _), resp)| {
                let resp = resp.as_ref().ok()?;
                let v = verified[i].as_ref()?;
                let same = response_ok(resp)
                    && json_strings(resp, "report").first() == Some(&v.report)
                    && json_numbers(resp, "total_us").first() == Some(&v.sim_us);
                if !same {
                    oracle_errors.push(format!(
                        "{}: served response differs from the in-process oracle",
                        programs[i].name
                    ));
                }
                same.then(|| fnv1a(resp.as_bytes()))
            })
            .collect();
        let counts = cache_counts(&buf.stats);
        let want_hits = (HOT_LEN * HOT_REPEATS) as u64;
        if counts.hits != want_hits || counts.evictions == 0 {
            oracle_errors.push(format!(
                "serve: calibration saw {} hits (want {want_hits}) and {} evictions (want > 0)",
                counts.hits, counts.evictions
            ));
        }
        Verdict {
            expected,
            oracle_errors,
            sim_us_geomean,
            static_msgs_total,
            cache_bytes: Some(self.config.cache_bytes),
            counts: Some(counts),
        }
    }

    fn new_edit(seed: u64) -> Served {
        let chains = edit_chains();

        // Edit k of every module before edit k+1 of any, modules in a
        // seeded order per cycle.
        let mut rng = TestRng::new(seed);
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(MODULES * EDITS_PER_MODULE);
        for step in 1..=EDITS_PER_MODULE {
            let mut modules: Vec<usize> = (0..MODULES).collect();
            shuffle(&mut modules, &mut rng);
            order.extend(modules.into_iter().map(|m| (m, step)));
        }

        let request = |id: u64, src: &str| compile_request(id, src, Strategy::Global, None, None);
        Served {
            preload: chains
                .iter()
                .enumerate()
                .map(|(m, c)| request(PRELOAD_ID + m as u64, &c[0]))
                .collect(),
            ops: order
                .iter()
                .enumerate()
                .map(|(k, &(m, step))| request(k as u64 + 1, &chains[m][step]))
                .collect(),
            class: vec![OpClass::Edit; order.len()],
            origin: order,
            expected: Vec::new(),
            expected_counts: None,
            config: one_worker_config(),
            sim_us_geomean: 0.0,
            static_msgs_total: 0,
            oracle_errors: Vec::new(),
        }
    }

    fn verify_edit(&mut self) -> Verdict {
        let chains = edit_chains();
        let net = NetworkModel::sp2();

        // Oracle: every distinct routine text of every state, in-process.
        let mut oracle: HashMap<&str, Result<OpOut, String>> = HashMap::new();
        for state in chains.iter().flatten() {
            for routine in split_module(state) {
                oracle.entry(routine).or_insert_with(|| {
                    let p = Program {
                        name: routine
                            .lines()
                            .next()
                            .unwrap_or("routine")
                            .trim()
                            .to_string(),
                        src: routine.to_string(),
                        strategy: Strategy::Global,
                    };
                    verify(&p, &net)
                });
            }
        }
        let mut oracle_errors: Vec<String> =
            oracle.values().filter_map(|r| r.clone().err()).collect();
        oracle_errors.sort();
        let (sim_us_geomean, static_msgs_total) = exact_metrics(
            chains
                .iter()
                .flat_map(|c| split_module(&c[0]))
                .filter_map(|r| oracle[r].as_ref().ok()),
        );

        let mut buf = RoundBuf::default();
        self.round(&mut Laps::default(), &mut buf, &mut NoSpans);
        let expected = self
            .origin
            .iter()
            .zip(&buf.responses)
            .map(|(&(m, step), resp)| {
                let resp = resp.as_ref().ok()?;
                let want: Option<Vec<&String>> = split_module(&chains[m][step])
                    .into_iter()
                    .map(|r| oracle[r].as_ref().ok().map(|v| &v.report))
                    .collect();
                let got = json_strings(resp, "report");
                let same = response_ok(resp) && want.is_some_and(|w| w.into_iter().eq(got.iter()));
                if !same {
                    oracle_errors.push(format!(
                        "module {m} after edit {step}: served response differs from the in-process oracle"
                    ));
                }
                same.then(|| fnv1a(resp.as_bytes()))
            })
            .collect();
        Verdict {
            expected,
            oracle_errors,
            sim_us_geomean,
            static_msgs_total,
            cache_bytes: None,
            counts: None,
        }
    }

    /// Executes one round and returns how many of its ops failed. Reset
    /// phase: spawn a server, connect, send the preload. Timed phase: the
    /// op list, one request at a time. Then, untimed: read the server's
    /// counters, check every response against its verified digest, stop
    /// the server and wait for its threads.
    ///
    /// A round whose counters differ from the calibrated ones (a hot entry
    /// evicted, a cold one hit) did not measure the promised classes:
    /// all of its ops count as failed.
    pub fn round(&self, laps: &mut Laps, buf: &mut RoundBuf, spans: &mut impl SpanSink) -> u64 {
        buf.responses.clear();
        buf.stats.clear();
        let all = self.ops.len() as u64;

        let (server, client) = laps.reset_step(|| {
            spans.enter("serve.spawn_connect");
            let server = spawn("127.0.0.1:0", self.config.clone());
            let client = match &server {
                Ok(s) => Client::connect(s.addr()),
                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            };
            spans.exit();
            (server, client)
        });
        let (server, mut client) = match (server, client) {
            (Ok(s), Ok(c)) => (s, c),
            (server, client) => {
                let why = client.err().map_or_else(String::new, |e| e.to_string());
                eprintln!("benchmark: round lost: spawn/connect: {why}");
                if let Ok(s) = server {
                    let _ = s.stop();
                }
                return all;
            }
        };
        let mut preloaded = true;
        for req in &self.preload {
            let resp = laps.reset_step(|| {
                spans.enter("serve.preload");
                let resp = client.request(req);
                spans.exit();
                resp
            });
            preloaded &= resp.is_ok_and(|r| response_ok(&r));
        }

        for req in &self.ops {
            let resp = laps.op(|| {
                spans.enter("serve.request");
                let resp = client.request(req);
                spans.exit();
                resp
            });
            buf.responses.push(resp.map_err(|e| e.to_string()));
        }

        buf.stats = client
            .request(r#"{"op":"stats","id":0,"stable":true}"#)
            .unwrap_or_default();
        drop(client);
        let stopped = server.stop();

        let counts_ok = self
            .expected_counts
            .is_none_or(|want| cache_counts(&buf.stats) == want);
        if !preloaded || !counts_ok || stopped.is_err() {
            return all;
        }
        if self.expected.is_empty() {
            return 0; // calibration: nothing to compare with yet
        }
        buf.responses
            .iter()
            .zip(&self.expected)
            .filter(|(resp, want)| match (resp, want) {
                (Ok(r), Some(d)) => fnv1a(r.as_bytes()) != *d,
                _ => true,
            })
            .count() as u64
    }
}
