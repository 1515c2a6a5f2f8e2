//! `gcommc` — command-line driver for the gcomm communication optimizer.
//!
//! ```text
//! gcommc [OPTIONS] <file.hpf | - >      compile one program
//! gcommc serve [OPTIONS]                run the persistent compile service
//! gcommc cluster --addr <host:port> ... run a sharded compile cluster
//! gcommc client --addr <host:port> ...  talk to a running service
//! gcommc --version                      print the toolchain version
//!
//! Compile options:
//!   --strategy orig|nored|partial|comb|optimal
//!                                placement strategy (default: comb); optimal
//!                                runs the branch-and-bound certified search
//!                                (node-budgeted; prints a warning and falls
//!                                back to the greedy seed on truncation)
//!   --counts                     print static message counts for all three
//!   --dot-cfg                    print the augmented CFG as Graphviz DOT
//!   --dot-dom                    print the dominator tree as DOT
//!   --verify                     dynamically verify the schedule (n = 8)
//!   --sim <n>                    simulate at size n on SP2 and NOW
//!   --machine <topo>             interconnect topology for --sim pricing:
//!                                flat | fat-tree[:NxS] | torus[:XxY]
//!                                (default: flat, the paper's 1996 model)
//!   --coll <alg>                 collective algorithm: auto|ring|rdbl|bine|p2p
//!                                (default: p2p; auto sweeps the pareto
//!                                frontier per pattern and size, DESIGN.md §17)
//!   --faults <spec>              inject faults into --sim runs, e.g.
//!                                seed=42,loss=0.01,degrade=0.2:0.5,straggle=0.05:3
//!   --entries                    list communication entries before placement
//!   --stats                      print pass timings + counters to stderr
//!   --stats-json <path>          write the full stats report as JSON
//!   --budget <spec>              bound the placement analyses, e.g.
//!                                steps=50000,ms=200,mem=4m; on exhaustion the
//!                                compile degrades gracefully (see the
//!                                degraded.* counters under --stats)
//!
//! Serve options (DESIGN.md §12):
//!   --addr <host:port>           serve length-delimited frames on TCP;
//!                                without it, NDJSON on stdin/stdout
//!   --jobs <n>                   worker threads (default: GCOMM_JOBS or cores)
//!   --cache-bytes <size>         compile-cache capacity, e.g. 32m
//!   --budget <spec>              default budget for requests without one
//!   --persist <dir>              crash-safe persistent compile cache
//!                                (DESIGN.md §15): cache inserts write through
//!                                to a checksummed segment log and a restart
//!                                warms from it
//!   --persist-fsync <policy>     always | off | interval:N (default: always)
//!
//! Cluster options (DESIGN.md §13):
//!   --addr <host:port>           router listen address (required)
//!   --shards <n>                 shard processes to spawn (default: 2)
//!   --replicas <n>               ring successors a request may fail over to
//!                                (default: 1)
//!   --attach <host:port>         attach a running serve instead of spawning
//!                                (repeatable; overrides --shards)
//!   --jobs <n>                   router workers and per-shard workers
//!   --cache-bytes <size>         per-shard compile-cache capacity
//!   --budget <spec>              default budget — forwarded to shards and
//!                                used for router-side key hashing
//!   --persist <dir>              per-shard persistent caches: spawned shard
//!                                N gets --persist <dir>/shard-N, and a
//!                                crashed shard is respawned by a supervisor
//!                                and readmitted to the ring warm
//!   --persist-fsync <policy>     forwarded to spawned shards
//!
//! Client options:
//!   --addr <host:port>           the server to talk to (required)
//!   --op ping|version|stats|shutdown|compile
//!                                request to send (default: compile with an
//!                                input file, ping without)
//!   --strategy / --budget        forwarded on compile requests
//!   --sim <profile[:n]>          request a simulation, e.g. sp2:128 or now
//!   --machine / --coll           topology + collective algorithm for --sim
//!                                requests (part of the compile-cache key)
//!   --stable                     ask for the deterministic stats form
//!   <file | ->                   source for compile requests
//! ```
//!
//! Example:
//!
//! ```text
//! echo 'program p
//! param n
//! real a(n,n), b(n,n) distribute (block, block)
//! b(2:n, 1:n) = a(1:n-1, 1:n)
//! end' | cargo run --bin gcommc -- --counts -
//! ```

use std::collections::HashMap;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use gcomm::core::{commgen, compile_diagnostics_budgeted, lower_to_sim, SimConfig};
use gcomm::machine::{simulate_with_faults, FaultPlan, NetworkModel, ProcGrid};
use gcomm::serve::cli;
use gcomm::serve::{Client, ServerHandle, ServiceConfig};
use gcomm::{Budget, BudgetSpec, Strategy};

struct Opts {
    strategy: Strategy,
    counts: bool,
    dot_cfg: bool,
    dot_dom: bool,
    verify: bool,
    sim: Option<i64>,
    machine: gcomm::coll::Topology,
    coll: gcomm::coll::CollChoice,
    faults: FaultPlan,
    budget: BudgetSpec,
    entries: bool,
    stats: cli::StatsOpts,
    input: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: gcommc [--strategy orig|nored|partial|comb|optimal] [--counts] [--dot-cfg] [--dot-dom] \
         [--verify] [--sim <n>] [--machine <topo>] [--coll <alg>] [--faults <spec>] \
         [--budget <spec>] [--entries] [--stats] \
         [--stats-json <path>] <file | ->\n\
         \x20      gcommc serve [--addr <host:port>] [--jobs <n>] [--cache-bytes <size>] \
         [--budget <spec>] [--persist <dir>] [--persist-fsync <policy>]\n\
         \x20      gcommc cluster --addr <host:port> [--shards <n>] [--replicas <n>] \
         [--attach <host:port>]... [--jobs <n>] [--cache-bytes <size>] [--budget <spec>] \
         [--persist <dir>] [--persist-fsync <policy>]\n\
         \x20      gcommc client --addr <host:port> [--op ping|version|stats|shutdown|compile] \
         [--strategy <s>] [--budget <spec>] [--sim <profile[:n]>] [--machine <topo>] \
         [--coll <alg>] [--stable] [<file | ->]\n\
         \x20      gcommc --version"
    );
    std::process::exit(2);
}

/// Rejects a malformed command line with one clear message on stderr
/// (exit status 2, like the usage error).
fn bad_args(msg: impl std::fmt::Display) -> ! {
    eprintln!("gcommc: {msg}");
    std::process::exit(2);
}

fn parse_args(mut args: Vec<String>) -> Opts {
    // The cross-cutting flags shared with `serve`, `client`, and the bench
    // binaries come out first via the shared helpers (exit-2 contract).
    let budget = cli::or_exit2("gcommc", cli::take_budget_flag(&mut args));
    let stats = cli::or_exit2("gcommc", cli::StatsOpts::extract(&mut args));
    let mut o = Opts {
        strategy: Strategy::Global,
        counts: false,
        dot_cfg: false,
        dot_dom: false,
        verify: false,
        sim: None,
        machine: gcomm::coll::Topology::Flat,
        coll: gcomm::coll::CollChoice::Fixed(gcomm::coll::Algo::P2p),
        faults: FaultPlan::quiet(),
        budget,
        entries: false,
        stats,
        input: None,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strategy" => {
                o.strategy = match args.next().as_deref() {
                    Some(name) => Strategy::parse(name).unwrap_or_else(|| {
                        bad_args(format_args!(
                            "--strategy expects orig|nored|partial|comb|optimal, got '{name}'"
                        ))
                    }),
                    None => bad_args("--strategy expects a value: orig|nored|partial|comb|optimal"),
                }
            }
            "--counts" => o.counts = true,
            "--dot-cfg" => o.dot_cfg = true,
            "--dot-dom" => o.dot_dom = true,
            "--verify" => o.verify = true,
            "--entries" => o.entries = true,
            "--sim" => match args.next() {
                Some(s) => match s.parse() {
                    Ok(n) => o.sim = Some(n),
                    Err(_) => bad_args(format_args!(
                        "--sim expects an integer problem size, got '{s}'"
                    )),
                },
                None => bad_args("--sim expects an integer problem size"),
            },
            "--machine" => match args.next() {
                Some(t) => {
                    o.machine = gcomm::coll::Topology::parse(&t)
                        .unwrap_or_else(|e| bad_args(format_args!("--machine: {e}")))
                }
                None => bad_args("--machine expects flat | fat-tree[:NxS] | torus[:XxY]"),
            },
            "--coll" => match args.next() {
                Some(c) => {
                    o.coll = gcomm::coll::CollChoice::parse(&c).unwrap_or_else(|| {
                        bad_args(format_args!(
                            "--coll expects auto|ring|rdbl|bine|p2p, got '{c}'"
                        ))
                    })
                }
                None => bad_args("--coll expects auto|ring|rdbl|bine|p2p"),
            },
            "--faults" => {
                let Some(spec) = args.next() else {
                    bad_args("--faults expects a spec, e.g. seed=42,loss=0.01")
                };
                o.faults = match FaultPlan::parse(&spec) {
                    Ok(p) => p,
                    Err(e) => bad_args(e),
                };
            }
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => bad_args(format_args!(
                "unrecognized option '{a}' (run --help for the option list)"
            )),
            _ if o.input.is_none() => o.input = Some(a),
            _ => bad_args(format_args!(
                "unexpected extra argument '{a}' (input file already given)"
            )),
        }
    }
    if o.input.is_none() {
        bad_args("missing input file (pass a path, or '-' for stdin)");
    }
    o
}

/// Reads the program source from a path, or stdin for `-`.
fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|_| "failed to read stdin".to_string())?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if cli::take_version_flag(&mut args) {
        println!("{}", cli::version_line("gcommc"));
        return ExitCode::SUCCESS;
    }
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(args.split_off(1)),
        Some("cluster") => cluster_main(args.split_off(1)),
        Some("client") => client_main(args.split_off(1)),
        _ => compile_main(args),
    }
}

/// `gcommc serve`: the persistent compile service, on TCP with `--addr`
/// or NDJSON over stdio without it. SIGINT/SIGTERM drain gracefully.
fn serve_main(mut args: Vec<String>) -> ExitCode {
    let jobs = cli::or_exit2("gcommc", gcomm::par::take_jobs_flag(&mut args));
    let addr = cli::or_exit2("gcommc", cli::take_addr_flag(&mut args));
    let cache_bytes = cli::or_exit2("gcommc", cli::take_cache_bytes_flag(&mut args));
    let default_budget = cli::or_exit2("gcommc", cli::take_budget_flag(&mut args));
    let persist = cli::or_exit2("gcommc", cli::take_persist_flag(&mut args));
    let persist_fsync = cli::or_exit2("gcommc", cli::take_persist_fsync_flag(&mut args));
    if let Some(extra) = args.first() {
        bad_args(format_args!("serve: unexpected argument '{extra}'"));
    }
    let mut config = ServiceConfig {
        jobs,
        default_budget,
        persist: persist.map(std::path::PathBuf::from),
        ..ServiceConfig::default()
    };
    if let Some(policy) = persist_fsync {
        config.persist_fsync = policy;
    }
    if let Some(bytes) = cache_bytes {
        config.cache_bytes = bytes;
    }
    match addr {
        Some(addr) => {
            let spawned = gcomm::serve::spawn(&addr, config);
            let banner = |a| format!("serving on {a} ({jobs} jobs)");
            serve_to_exit(&addr, spawned, banner, ServerHandle::wait)
        }
        None => {
            let svc = match gcomm::serve::Service::open(config) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    eprintln!("gcommc: serve: opening persistent cache: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let shutdown = gcomm::serve::ShutdownFlag::new();
            watch_signals(shutdown.clone());
            let stdin = std::io::stdin();
            let mut input = stdin.lock();
            if let Err(e) =
                gcomm::serve::serve_lines(&svc, &mut input, Box::new(std::io::stdout()), &shutdown)
            {
                eprintln!("gcommc: serve: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
    }
}

/// Forwards SIGINT/SIGTERM to `flag`: either starts a graceful drain.
#[cfg_attr(not(unix), allow(unused_variables))]
fn watch_signals(flag: gcomm::serve::ShutdownFlag) {
    #[cfg(unix)]
    {
        gcomm::serve::server::signal::install();
        gcomm::serve::server::signal::watch(flag);
    }
}

/// The tail `serve --addr` and `cluster` share: a bind failure reported, or
/// signals wired to the listener, its banner printed (only now — a
/// persisting server has recovered by the time it exists), and `wait` run
/// to the end of the drain.
fn serve_to_exit<B>(
    addr: &str,
    spawned: std::io::Result<ServerHandle<B>>,
    banner: impl FnOnce(std::net::SocketAddr) -> String,
    wait: impl FnOnce(ServerHandle<B>),
) -> ExitCode {
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("gcommc: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    watch_signals(handle.shutdown_flag());
    eprintln!("gcommc: {}", banner(handle.addr()));
    wait(handle);
    ExitCode::SUCCESS
}

/// `gcommc cluster`: the sharded compile service (DESIGN.md §13). Spawns
/// `--shards` child `gcommc serve` processes (or attaches to running ones
/// via `--attach`) and routes the unchanged protocol across them with
/// health checks, retry/backoff, and failover to ring successors.
/// SIGINT/SIGTERM drain the router's in-flight requests, then shut the
/// spawned shards down gracefully.
fn cluster_main(mut args: Vec<String>) -> ExitCode {
    let jobs = cli::or_exit2("gcommc", gcomm::par::take_jobs_flag(&mut args));
    let addr = cli::or_exit2("gcommc", cli::take_addr_flag(&mut args));
    let cache_bytes = cli::or_exit2("gcommc", cli::take_cache_bytes_flag(&mut args));
    let default_budget = cli::or_exit2("gcommc", cli::take_budget_flag(&mut args));
    let shards = cli::or_exit2("gcommc", cli::take_count_flag(&mut args, "--shards")).unwrap_or(2);
    let replicas =
        cli::or_exit2("gcommc", cli::take_count_flag(&mut args, "--replicas")).unwrap_or(1);
    let attach = cli::or_exit2("gcommc", cli::take_repeated_flag(&mut args, "--attach"));
    let persist = cli::or_exit2("gcommc", cli::take_persist_flag(&mut args));
    let persist_fsync = cli::or_exit2("gcommc", cli::take_persist_fsync_flag(&mut args));
    if let Some(extra) = args.first() {
        bad_args(format_args!("cluster: unexpected argument '{extra}'"));
    }
    let Some(addr) = addr else {
        bad_args("cluster: --addr <host:port> is required");
    };
    if persist.is_some() && !attach.is_empty() {
        bad_args("cluster: --persist applies to spawned shards, not --attach'ed ones");
    }

    // Attached shards are trusted as-is; otherwise spawn our own children
    // running the same binary, so the cluster needs no external setup.
    let mut procs: Vec<gcomm::serve::cluster::ShardProc> = Vec::new();
    let shard_addrs: Vec<std::net::SocketAddr> = if attach.is_empty() {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("gcommc: cluster: cannot locate own binary: {e}");
                return ExitCode::FAILURE;
            }
        };
        let jobs_arg = jobs.to_string();
        let mut extra: Vec<String> = vec!["--jobs".into(), jobs_arg];
        if let Some(bytes) = cache_bytes {
            extra.push("--cache-bytes".into());
            extra.push(bytes.to_string());
        }
        if !default_budget.is_unlimited() {
            extra.push("--budget".into());
            extra.push(default_budget.to_string());
        }
        if let Some(policy) = persist_fsync {
            extra.push("--persist-fsync".into());
            extra.push(policy.to_string());
        }
        for i in 0..shards {
            // Each spawned shard gets its own persistence directory, so a
            // respawned shard i always recovers shard i's cache.
            let mut shard_args = extra.clone();
            if let Some(dir) = &persist {
                shard_args.push("--persist".into());
                shard_args.push(format!("{dir}/shard-{i}"));
            }
            let refs: Vec<&str> = shard_args.iter().map(String::as_str).collect();
            match gcomm::serve::cluster::ShardProc::spawn(&exe.to_string_lossy(), &refs) {
                Ok(p) => procs.push(p),
                Err(e) => {
                    eprintln!("gcommc: cluster: spawning shard {i}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        procs
            .iter()
            .map(gcomm::serve::cluster::ShardProc::addr)
            .collect()
    } else {
        let mut addrs = Vec::new();
        for a in &attach {
            match a.parse() {
                Ok(sa) => addrs.push(sa),
                Err(_) => bad_args(format_args!(
                    "cluster: --attach expects host:port, got '{a}'"
                )),
            }
        }
        addrs
    };

    let config = gcomm::serve::ClusterConfig {
        replicas,
        jobs,
        default_budget,
        ..gcomm::serve::ClusterConfig::default()
    };
    let spawned = gcomm::serve::spawn_router(&addr, &shard_addrs, config);
    let banner = |a| {
        let shards = shard_addrs.len();
        format!("cluster on {a} ({shards} shards, {replicas} replica(s), {jobs} jobs)")
    };
    serve_to_exit(&addr, spawned, banner, |router| {
        // Spawned children are supervised: a crashed shard is respawned on
        // its original command line (same --persist directory), probed, and
        // readmitted to its ring slot. The supervisor shares the router's
        // shutdown flag, so the router's exit winds it down and hands the
        // children back for the graceful drain below.
        let supervisor = (!procs.is_empty()).then(|| {
            gcomm::serve::cluster::supervise(
                std::mem::take(&mut procs),
                router.admission(),
                gcomm::serve::cluster::SupervisePolicy::default(),
                router.shutdown_flag(),
            )
        });
        router.wait();
        if let Some(s) = supervisor {
            procs = s.join();
        }
        // The router drained first, so the shards see no more forwards; now
        // drain and stop the children we own (attached shards stay up).
        for (i, p) in procs.iter_mut().enumerate() {
            if let Err(e) = p.shutdown_graceful(std::time::Duration::from_secs(5)) {
                eprintln!("gcommc: cluster: stopping shard {i}: {e}");
            }
        }
    })
}

/// `gcommc client`: sends one request to a running service and prints the
/// response line. Exit 0 on an `"ok":true` response, 1 otherwise.
fn client_main(mut args: Vec<String>) -> ExitCode {
    let Some(addr) = cli::or_exit2("gcommc", cli::take_addr_flag(&mut args)) else {
        bad_args("client: --addr <host:port> is required");
    };
    let budget = cli::or_exit2("gcommc", cli::take_budget_flag(&mut args));
    let budget = (!budget.is_unlimited()).then_some(budget);
    let mut op: Option<String> = None;
    let mut strategy = Strategy::Global;
    let mut sim: Option<gcomm::serve::SimSpec> = None;
    let mut machine: Option<String> = None;
    let mut coll: Option<String> = None;
    let mut stable = false;
    let mut input: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--op" => match it.next() {
                Some(v) => op = Some(v),
                None => bad_args("--op expects ping|version|stats|shutdown|compile"),
            },
            "--strategy" => {
                strategy = match it.next().as_deref() {
                    Some(name) => Strategy::parse(name).unwrap_or_else(|| {
                        bad_args(format_args!(
                            "--strategy expects orig|nored|partial|comb|optimal, got '{name}'"
                        ))
                    }),
                    None => bad_args("--strategy expects a value: orig|nored|partial|comb|optimal"),
                }
            }
            "--sim" => {
                let Some(v) = it.next() else {
                    bad_args("--sim expects a profile, e.g. sp2:128 or now")
                };
                let (profile, n) = match v.split_once(':') {
                    Some((p, n)) => match n.parse::<i64>() {
                        Ok(n) if n >= 1 => (p.to_string(), n),
                        _ => bad_args(format_args!("--sim expects profile[:n], got '{v}'")),
                    },
                    None => (v.clone(), 64),
                };
                if profile != "sp2" && profile != "now" {
                    bad_args(format_args!(
                        "--sim profile must be sp2 or now, got '{profile}'"
                    ));
                }
                sim = Some(gcomm::serve::SimSpec::flat(&profile, n));
            }
            "--machine" => {
                let Some(t) = it.next() else {
                    bad_args("--machine expects flat | fat-tree[:NxS] | torus[:XxY]")
                };
                match gcomm::coll::Topology::parse(&t) {
                    // Canonicalize here so the cache key the server derives
                    // matches what other spellings of the same topology get.
                    Ok(topo) => machine = Some(topo.describe()),
                    Err(e) => bad_args(format_args!("--machine: {e}")),
                }
            }
            "--coll" => {
                let Some(c) = it.next() else {
                    bad_args("--coll expects auto|ring|rdbl|bine|p2p")
                };
                match gcomm::coll::CollChoice::parse(&c) {
                    Some(choice) => coll = Some(choice.describe().to_string()),
                    None => bad_args(format_args!(
                        "--coll expects auto|ring|rdbl|bine|p2p, got '{c}'"
                    )),
                }
            }
            "--stable" => stable = true,
            _ if a.starts_with("--") => bad_args(format_args!("client: unrecognized option '{a}'")),
            _ if input.is_none() => input = Some(a),
            _ => bad_args(format_args!("client: unexpected extra argument '{a}'")),
        }
    }
    if machine.is_some() || coll.is_some() {
        let Some(s) = sim.as_mut() else {
            bad_args("client: --machine/--coll only apply to --sim requests");
        };
        if let Some(m) = machine {
            s.machine = m;
        }
        if let Some(c) = coll {
            s.coll = c;
        }
    }
    let op = op.unwrap_or_else(|| if input.is_some() { "compile" } else { "ping" }.to_string());
    let request = match op.as_str() {
        "ping" => r#"{"op":"ping","id":1}"#.to_string(),
        "version" => r#"{"op":"version","id":1}"#.to_string(),
        "shutdown" => r#"{"op":"shutdown","id":1}"#.to_string(),
        "stats" => format!("{{\"op\":\"stats\",\"id\":1,\"stable\":{stable}}}"),
        "compile" => {
            let Some(path) = input.as_deref() else {
                bad_args("client: compile needs a source file (or '-' for stdin)");
            };
            let src = match read_source(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("gcommc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            gcomm::serve::compile_request(1, &src, strategy, budget.as_ref(), sim.as_ref())
        }
        other => bad_args(format_args!(
            "--op expects ping|version|stats|shutdown|compile, got '{other}'"
        )),
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gcommc: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.request(&request) {
        Ok(resp) => {
            println!("{resp}");
            let failed = gcomm::serve::json::Json::parse(&resp)
                .map(|v| {
                    v.get("error").is_some() || v.get("ok").and_then(|o| o.as_bool()) == Some(false)
                })
                .unwrap_or(true);
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("gcommc: {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compile_main(args: Vec<String>) -> ExitCode {
    let opts = parse_args(args);
    let path = opts.input.as_deref().unwrap_or("-");
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gcommc: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Stats collection covers the whole run (compile + sim + verify); the
    // registry is thread-local and opt-in, so without --stats the compile
    // path pays only a thread-local read per instrumentation point. The
    // scope guard renders/writes the report when it drops at return.
    let stats_enabled = opts.stats.enabled();
    let _scope = opts.stats.install();

    // The budget clock starts here, covering the whole compile.
    let budget = Budget::from_spec(&opts.budget);
    let compiled = match compile_diagnostics_budgeted(&src, opts.strategy, budget.clone()) {
        Ok(c) => c,
        Err(errs) => {
            let n = errs.len();
            for e in errs {
                eprintln!("gcommc: {e}");
                // Quote the offending source line under the diagnostic.
                if e.line > 0 {
                    if let Some(text) = src.lines().nth(e.line as usize - 1) {
                        eprintln!("  {:>4} | {}", e.line, text.trim_end());
                    }
                }
            }
            eprintln!("gcommc: {n} error(s), no output");
            return ExitCode::FAILURE;
        }
    };
    if budget.exhausted() {
        eprintln!(
            "gcommc: analysis budget exhausted ({} steps used); \
             schedule degraded conservatively (see degraded.* under --stats)",
            budget.steps_used()
        );
    }
    // Structured truncation warning for --strategy optimal: the schedule
    // is the greedy seed or better, but the space was not fully certified.
    if let Some(search) = &compiled.schedule.search {
        if search.truncated {
            eprintln!(
                "gcommc: optimal search truncated: nodes={} leaves={} \
                 pruned_bound={} pruned_dominance={} space={}; \
                 schedule is the greedy seed or better but NOT certified \
                 optimal (raise --budget steps=N to certify)",
                search.nodes,
                search.leaves,
                search.pruned_bound,
                search.pruned_dominance,
                search.space
            );
        }
    }

    if opts.dot_cfg {
        print!("{}", gcomm::ir::dot::cfg_dot(&compiled.prog));
        return ExitCode::SUCCESS;
    }
    if opts.dot_dom {
        let dt = gcomm::ir::DomTree::compute(&compiled.prog.cfg);
        print!("{}", gcomm::ir::dot::dom_dot(&compiled.prog, &dt));
        return ExitCode::SUCCESS;
    }

    if opts.entries {
        let entries = commgen::number(commgen::generate(&compiled.prog));
        println!("{} communication entr(ies):", entries.len());
        for e in &entries {
            println!("  {:<20} at {} (reads {:?})", e.label, e.stmt, e.reads);
        }
    }

    println!("{}", compiled.report());

    if opts.counts {
        match gcomm::static_counts(&src) {
            Ok((o, n, c)) => println!("static messages: orig={o} nored={n} comb={c}"),
            Err(e) => eprintln!("gcommc: {e}"),
        }
    }

    if let Some(n) = opts.sim {
        let rank = compiled.prog.grid_rank();
        for (p, net) in [
            (25u32, NetworkModel::sp2()),
            (8, NetworkModel::now_myrinet()),
        ] {
            let mut cfg =
                SimConfig::uniform(&compiled, ProcGrid::balanced(p, rank), n).with("nsteps", 10);
            // flat + p2p is the legacy flat-model pricing — leave the
            // config on the sentinel path so historical numbers hold exactly.
            if !(opts.machine == gcomm::coll::Topology::Flat
                && opts.coll == gcomm::coll::CollChoice::Fixed(gcomm::coll::Algo::P2p))
            {
                cfg = cfg.with_coll(gcomm::coll::CollConfig::new(
                    opts.machine.clone(),
                    opts.coll,
                    net.clone(),
                ));
            }
            let rep = simulate_with_faults(&lower_to_sim(&compiled, &cfg), &net, &opts.faults);
            let r = rep.result;
            let topo_tag = cfg
                .coll
                .as_ref()
                .map(|c| format!(" [{}]", c.describe()))
                .unwrap_or_default();
            println!(
                "{}{topo_tag} P={p} n={n}: total {:.0} us (compute {:.0}, comm {:.0}, {} msgs, {:.0} B)",
                net.name,
                r.total_us(),
                r.compute_us,
                r.comm_us,
                r.messages,
                r.bytes
            );
            if !opts.faults.is_quiet() {
                let f = rep.faults;
                println!(
                    "  faults: {} retransmitted rounds, {} timeouts, {:.0} us backoff, \
                     {} fallbacks, {} giveups, {} degraded / {} straggled phases",
                    f.retransmits,
                    f.timeouts,
                    f.backoff_us,
                    f.fallbacks,
                    f.giveups,
                    f.degraded_phases,
                    f.straggled_phases
                );
            }
        }
    }

    if opts.verify {
        let rank = compiled.prog.grid_rank();
        let grid = ProcGrid::balanced(4, rank);
        let mut params: HashMap<String, i64> = compiled
            .prog
            .params
            .iter()
            .map(|p| (p.clone(), 8))
            .collect();
        params.insert("nsteps".into(), 2);
        match gcomm_exec::verify_schedule(&compiled, &grid, &params) {
            Ok(rep) if rep.ok() => println!(
                "verify: OK ({} remote elements checked, {} comm events)",
                rep.remote_elements_checked, rep.comm_events
            ),
            Ok(rep) => {
                println!("verify: {} violation(s)", rep.errors.len());
                for e in rep.errors.iter().take(5) {
                    println!("  {e}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("gcommc: verification failed to run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if stats_enabled && opts.sim.is_none() {
        // Populate the machine stage even without --sim: one quiet
        // small-size run on the default network (doesn't touch stdout).
        let rank = compiled.prog.grid_rank();
        let cfg = SimConfig::uniform(&compiled, ProcGrid::balanced(4, rank), 64).with("nsteps", 2);
        let _ = simulate_with_faults(
            &lower_to_sim(&compiled, &cfg),
            &NetworkModel::sp2(),
            &opts.faults,
        );
    }

    ExitCode::SUCCESS
}
