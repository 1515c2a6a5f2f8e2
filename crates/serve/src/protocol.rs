//! The `gcomm-serve/v1` request/response protocol (DESIGN.md §12).
//!
//! Every request and response is one JSON object; the transport decides
//! the envelope (NDJSON line over stdio, length-delimited frame over
//! TCP), the payload grammar is identical. Requests carry an `op` plus an
//! optional numeric `id` the server echoes verbatim, so clients may
//! pipeline and correlate. Response objects always carry `"id"` (echoed
//! or `null`) and `"ok"`.
//!
//! Compile responses are rendered as `{"id":<id>,<payload>}` where the
//! payload is a pure function of the cache key — that split is what makes
//! a cache hit bit-identical to a cold compile regardless of the id the
//! hitting request used.

use std::fmt::Write as _;

use gcomm_core::Strategy;
use gcomm_guard::BudgetSpec;

use crate::json::{escape, Json};

/// Protocol identifier carried by `version` responses.
pub const PROTOCOL: &str = "gcomm-serve/v1";

/// A parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile mini-HPF source (optionally simulate the schedule).
    Compile(CompileReq),
    /// Return the server-lifetime observability report.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// When true, emit only scheduling-invariant counters (wall-clock
        /// counters filtered, no pass table or spans) — the form goldens
        /// and jobs-invariance tests diff.
        stable: bool,
    },
    /// Return the server version and protocol id.
    Version {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Drain the queue and stop the server.
    Shutdown {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Occupy a worker for `ms` milliseconds (capped) — a load-testing
    /// and backpressure-testing aid, documented as such.
    Sleep {
        /// Echoed request id.
        id: Option<u64>,
        /// Milliseconds to sleep (capped at [`MAX_SLEEP_MS`]).
        ms: u64,
    },
}

/// Upper bound on `sleep` requests so a client cannot park workers
/// indefinitely.
pub const MAX_SLEEP_MS: u64 = 10_000;

/// A `compile` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileReq {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Mini-HPF source text.
    pub source: String,
    /// Placement strategy (default `comb`).
    pub strategy: Strategy,
    /// Per-request analysis budget; `None` uses the server default.
    pub budget: Option<BudgetSpec>,
    /// Optional machine simulation of the placed schedule.
    pub sim: Option<SimSpec>,
}

/// The simulation part of a compile request: which machine profile to
/// score the schedule on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimSpec {
    /// Machine profile: `sp2` (P=25) or `now` (P=8), the paper's two
    /// platforms.
    pub profile: String,
    /// Problem size `n`.
    pub n: i64,
    /// Interconnect topology (canonical `gcomm_coll::Topology` spec,
    /// default `flat`).
    pub machine: String,
    /// Collective algorithm choice (`auto|ring|rdbl|bine|p2p`, default
    /// `p2p`). `flat`+`p2p` is the legacy flat-model pricing.
    pub coll: String,
}

impl SimSpec {
    /// A spec with the legacy defaults for `machine` and `coll`.
    pub fn flat(profile: &str, n: i64) -> SimSpec {
        SimSpec {
            profile: profile.into(),
            n,
            machine: "flat".into(),
            coll: "p2p".into(),
        }
    }
}

impl Request {
    /// The echoed id, if the request carried one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Compile(c) => c.id,
            Request::Stats { id, .. } => *id,
            Request::Version { id }
            | Request::Ping { id }
            | Request::Shutdown { id }
            | Request::Sleep { id, .. } => *id,
        }
    }

    /// Parses a request object.
    ///
    /// # Errors
    ///
    /// Returns `(echoed id if extractable, message)` on a malformed
    /// request, so the server can still correlate the error response.
    pub fn parse(v: &Json) -> Result<Request, (Option<u64>, String)> {
        if !matches!(v, Json::Obj(_)) {
            return Err((None, "request must be a JSON object".into()));
        }
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(n) => match n.as_u64() {
                Some(id) => Some(id),
                None => return Err((None, "'id' must be a non-negative integer".into())),
            },
        };
        let op = match v.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return Err((id, "missing 'op' (a string)".into())),
        };
        match op {
            "compile" => {
                let source = match v.get("source").and_then(Json::as_str) {
                    Some(s) => s.to_string(),
                    None => return Err((id, "compile: missing 'source' (a string)".into())),
                };
                let strategy = match v.get("strategy") {
                    None | Some(Json::Null) => Strategy::Global,
                    Some(s) => match s.as_str().and_then(Strategy::parse) {
                        Some(s) => s,
                        None => {
                            return Err((
                                id,
                                "compile: 'strategy' must be orig|nored|partial|comb|optimal"
                                    .into(),
                            ))
                        }
                    },
                };
                let budget = match v.get("budget") {
                    None | Some(Json::Null) => None,
                    Some(b) => {
                        let Some(text) = b.as_str() else {
                            return Err((id, "compile: 'budget' must be a spec string".into()));
                        };
                        match BudgetSpec::parse(text) {
                            Ok(spec) => Some(spec),
                            Err(e) => return Err((id, format!("compile: {e}"))),
                        }
                    }
                };
                let sim = match v.get("sim") {
                    None | Some(Json::Null) => None,
                    Some(s) => {
                        let profile = match s.get("profile").and_then(Json::as_str) {
                            Some(p) if matches!(p, "sp2" | "now") => p.to_string(),
                            _ => return Err((id, "compile: 'sim.profile' must be sp2|now".into())),
                        };
                        let n = match s.get("n") {
                            None | Some(Json::Null) => 64,
                            Some(n) => match n.as_i64().filter(|&n| (1..=1_000_000).contains(&n)) {
                                Some(n) => n,
                                None => {
                                    return Err((
                                        id,
                                        "compile: 'sim.n' must be an integer in 1..=1000000".into(),
                                    ))
                                }
                            },
                        };
                        let machine = match s.get("machine") {
                            None | Some(Json::Null) => "flat".to_string(),
                            Some(m) => match m.as_str().map(gcomm_coll::Topology::parse) {
                                // Canonicalize, so `fat-tree` and
                                // `fat-tree:4x4` share one cache key.
                                Some(Ok(t)) => t.describe(),
                                _ => {
                                    return Err((
                                        id,
                                        "compile: 'sim.machine' must be flat|fat-tree[:NxS]|torus[:XxY]"
                                            .into(),
                                    ))
                                }
                            },
                        };
                        let coll = match s.get("coll") {
                            None | Some(Json::Null) => "p2p".to_string(),
                            Some(c) => match c.as_str().and_then(gcomm_coll::CollChoice::parse) {
                                Some(c) => c.describe().to_string(),
                                None => {
                                    return Err((
                                        id,
                                        "compile: 'sim.coll' must be auto|ring|rdbl|bine|p2p"
                                            .into(),
                                    ))
                                }
                            },
                        };
                        Some(SimSpec {
                            profile,
                            n,
                            machine,
                            coll,
                        })
                    }
                };
                Ok(Request::Compile(CompileReq {
                    id,
                    source,
                    strategy,
                    budget,
                    sim,
                }))
            }
            "stats" => {
                let stable = match v.get("stable") {
                    None | Some(Json::Null) => false,
                    Some(b) => match b.as_bool() {
                        Some(b) => b,
                        None => return Err((id, "stats: 'stable' must be a boolean".into())),
                    },
                };
                Ok(Request::Stats { id, stable })
            }
            "version" => Ok(Request::Version { id }),
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "sleep" => {
                let ms = match v.get("ms") {
                    None | Some(Json::Null) => 0,
                    Some(n) => match n.as_u64() {
                        Some(ms) => ms.min(MAX_SLEEP_MS),
                        None => {
                            return Err((id, "sleep: 'ms' must be a non-negative integer".into()))
                        }
                    },
                };
                Ok(Request::Sleep { id, ms })
            }
            other => Err((id, format!("unknown op '{other}'"))),
        }
    }
}

/// The canonical key material a compile request is content-addressed by:
/// protocol version, strategy, effective budget spec, sim spec, and the
/// raw source bytes, NUL-separated (NUL cannot occur inside any of the
/// components, so the encoding is injective).
pub fn cache_key_material(req: &CompileReq, effective_budget: &BudgetSpec) -> String {
    // One allocation: the source plus room for the short components.
    let mut m = String::with_capacity(req.source.len() + 128);
    let _ = write!(
        m,
        "{PROTOCOL}\0{}\0{effective_budget}\0",
        req.strategy.name()
    );
    match &req.sim {
        None => m.push('-'),
        // `machine` may itself contain ':' (dims); it sits between the
        // colon-free `n` and `coll` components, so the encoding stays
        // injective.
        Some(s) => {
            let _ = write!(m, "{}:{}:{}:{}", s.profile, s.n, s.machine, s.coll);
        }
    }
    m.push('\0');
    m.push_str(&req.source);
    m
}

/// Assembles a full response from an id and a cached or freshly rendered
/// payload (the members after `"id"`); the id is JSON `null` when the
/// request carried none.
pub fn assemble(id: Option<u64>, payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 28);
    match id {
        Some(n) => {
            let _ = write!(out, "{{\"id\":{n},");
        }
        None => out.push_str("{\"id\":null,"),
    }
    out.push_str(payload);
    out.push('}');
    out
}

/// The payload of an error response (everything after `"id":…,`).
pub fn error_payload(code: &str, message: &str) -> String {
    format!(
        "\"ok\":false,\"error\":{},\"message\":{}",
        escape(code),
        escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, (Option<u64>, String)> {
        Request::parse(&Json::parse(text).unwrap())
    }

    #[test]
    fn parses_ops() {
        assert_eq!(
            parse(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping { id: None }
        );
        assert_eq!(
            parse(r#"{"op":"stats","id":3}"#).unwrap(),
            Request::Stats {
                id: Some(3),
                stable: false
            }
        );
        assert_eq!(
            parse(r#"{"op":"stats","stable":true}"#).unwrap(),
            Request::Stats {
                id: None,
                stable: true
            }
        );
        assert_eq!(
            parse(r#"{"op":"version"}"#).unwrap(),
            Request::Version { id: None }
        );
        assert_eq!(
            parse(r#"{"op":"shutdown","id":9}"#).unwrap(),
            Request::Shutdown { id: Some(9) }
        );
        assert_eq!(
            parse(r#"{"op":"sleep","ms":99999999}"#).unwrap(),
            Request::Sleep {
                id: None,
                ms: MAX_SLEEP_MS
            }
        );
    }

    #[test]
    fn parses_compile_with_defaults_and_options() {
        let r = parse(r#"{"op":"compile","source":"program p\nend"}"#).unwrap();
        let Request::Compile(c) = r else { panic!() };
        assert_eq!(c.strategy, Strategy::Global);
        assert_eq!(c.budget, None);
        assert_eq!(c.sim, None);

        let r = parse(
            r#"{"op":"compile","id":1,"source":"s","strategy":"nored",
                "budget":"steps=100","sim":{"profile":"now","n":32}}"#,
        )
        .unwrap();
        let Request::Compile(c) = r else { panic!() };
        assert_eq!(c.strategy, Strategy::EarliestRE);
        assert_eq!(c.budget.unwrap().steps, Some(100));
        assert_eq!(c.sim, Some(SimSpec::flat("now", 32)));

        let r = parse(
            r#"{"op":"compile","source":"s",
                "sim":{"profile":"sp2","n":64,"machine":"fat-tree","coll":"auto"}}"#,
        )
        .unwrap();
        let Request::Compile(c) = r else { panic!() };
        let sim = c.sim.unwrap();
        // Topology specs canonicalize: `fat-tree` keys as `fat-tree:4x4`.
        assert_eq!(sim.machine, "fat-tree:4x4");
        assert_eq!(sim.coll, "auto");
    }

    #[test]
    fn rejects_malformed_requests_with_id_when_extractable() {
        assert_eq!(parse("[1,2]").unwrap_err().0, None);
        assert_eq!(parse(r#"{"id":5}"#).unwrap_err().0, Some(5));
        assert_eq!(parse(r#"{"op":"frob","id":5}"#).unwrap_err().0, Some(5));
        assert!(parse(r#"{"op":"compile","id":2}"#)
            .unwrap_err()
            .1
            .contains("source"));
        assert!(parse(r#"{"op":"compile","source":"s","strategy":"x"}"#).is_err());
        assert!(parse(r#"{"op":"compile","source":"s","budget":"frobs=1"}"#).is_err());
        assert!(parse(r#"{"op":"compile","source":"s","sim":{"profile":"cray"}}"#).is_err());
        assert!(parse(r#"{"op":"compile","source":"s","sim":{"profile":"sp2","n":0}}"#).is_err());
        assert!(
            parse(r#"{"op":"compile","source":"s","sim":{"profile":"sp2","machine":"mesh"}}"#)
                .is_err()
        );
        assert!(
            parse(r#"{"op":"compile","source":"s","sim":{"profile":"sp2","coll":"magic"}}"#)
                .is_err()
        );
        assert!(parse(r#"{"id":-1,"op":"ping"}"#).is_err());
        assert!(parse(r#"{"id":1.5,"op":"ping"}"#).is_err());
    }

    #[test]
    fn cache_key_is_injective_across_fields() {
        let base = CompileReq {
            id: None,
            source: "src".into(),
            strategy: Strategy::Global,
            budget: None,
            sim: None,
        };
        let unlimited = BudgetSpec::default();
        let k0 = cache_key_material(&base, &unlimited);
        let mut other = base.clone();
        other.strategy = Strategy::Original;
        assert_ne!(k0, cache_key_material(&other, &unlimited));
        let mut other = base.clone();
        other.source = "srcx".into();
        assert_ne!(k0, cache_key_material(&other, &unlimited));
        let budget = BudgetSpec::parse("steps=5").unwrap();
        assert_ne!(k0, cache_key_material(&base, &budget));
        let mut other = base.clone();
        other.sim = Some(SimSpec::flat("sp2", 64));
        assert_ne!(k0, cache_key_material(&other, &unlimited));
        let ks = cache_key_material(&other, &unlimited);
        // Requests differing only in machine or coll never share a key.
        let mut machined = other.clone();
        machined.sim.as_mut().unwrap().machine = "fat-tree:4x4".into();
        assert_ne!(ks, cache_key_material(&machined, &unlimited));
        let mut colled = other.clone();
        colled.sim.as_mut().unwrap().coll = "auto".into();
        assert_ne!(ks, cache_key_material(&colled, &unlimited));
        assert_ne!(
            cache_key_material(&machined, &unlimited),
            cache_key_material(&colled, &unlimited)
        );
        // Ids never enter the key.
        let mut other = base.clone();
        other.id = Some(7);
        assert_eq!(k0, cache_key_material(&other, &unlimited));
    }

    #[test]
    fn responses_assemble_with_and_without_ids() {
        assert_eq!(
            assemble(Some(4), &error_payload("overloaded", "queue full")),
            r#"{"id":4,"ok":false,"error":"overloaded","message":"queue full"}"#
        );
        assert!(assemble(None, &error_payload("bad_request", "x")).starts_with(r#"{"id":null,"#));
    }
}
