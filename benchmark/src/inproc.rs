//! The in-process workloads, `kernels` and `corpus`: `gcomm::compile` →
//! `Compiled::report` → `core::lower_to_sim` → `machine::simulate`, one
//! caller, nothing between it and the compiler.

use std::hint::black_box;
use std::process::{Command, Stdio};

use gcomm::machine::NetworkModel;
use proptest::test_runner::TestRng;

use crate::inputs::{
    check_static_counts, corpus_programs, exact_metrics, kernel_programs, run_op, verify_all,
    OpOut, Program,
};
use crate::rounds::{fastest_probe_ns, BestSteps, Laps, NoSpans, SpanSink};
use crate::util::shuffle;
use crate::verdict::Verdict;

/// The distinct programs of an in-process workload, and how many seeded
/// passes over them make one round (rounds are sized to 0.05-0.2 s).
///
/// # Panics
///
/// On a workload name that is not in-process.
pub fn programs_of(workload: &str) -> (Vec<Program>, usize) {
    match workload {
        "kernels" => (kernel_programs(), 23),
        "corpus" => (corpus_programs(), 2),
        other => panic!("'{other}' is not an in-process workload"),
    }
}

/// A prepared in-process workload.
#[derive(Debug)]
pub struct Inproc {
    /// Distinct programs.
    pub programs: Vec<Program>,
    /// One round's op list: indices into `programs`, fixed by the seed.
    pub order: Vec<usize>,
    /// Oracle-verified output digest per program; `None` when an oracle
    /// rejected it, which fails every op on that program.
    pub expected: Vec<Option<u64>>,
    /// What the oracles objected to (empty on a correct compiler).
    pub oracle_errors: Vec<String>,
    /// Geometric mean of simulated time over the distinct programs.
    pub sim_us_geomean: f64,
    /// Sum of static communication call sites over the distinct programs.
    pub static_msgs_total: u64,
    /// True for `kernels`, whose counts the paper's table vouches for.
    kernels: bool,
    net: NetworkModel,
}

impl Inproc {
    /// Builds the op list from `(workload, seed)`. Nothing is verified
    /// yet: until a verdict is [adopted](Inproc::adopt) every op fails.
    pub fn new(workload: &str, seed: u64) -> Inproc {
        let (programs, passes) = programs_of(workload);
        let mut rng = TestRng::new(seed);
        let mut order = Vec::with_capacity(programs.len() * passes);
        for _ in 0..passes {
            let mut pass: Vec<usize> = (0..programs.len()).collect();
            shuffle(&mut pass, &mut rng);
            order.extend(pass);
        }
        Inproc {
            kernels: workload == "kernels",
            expected: vec![None; programs.len()],
            oracle_errors: Vec::new(),
            sim_us_geomean: 0.0,
            static_msgs_total: 0,
            programs,
            order,
            net: NetworkModel::sp2(),
        }
    }

    /// The oracle step: verifies every distinct program once, untimed.
    /// `static_counts` is the paper's table the `kernels` counts must
    /// equal (a parameter so a test can hand in a corrupted one).
    pub fn verify(&self, static_counts: &str) -> Verdict {
        // A wrong static count taints the kernel it names: the digests of
        // its programs are withdrawn, so the timed ops on them fail too.
        let count_errors = if self.kernels {
            check_static_counts(static_counts)
        } else {
            Vec::new()
        };
        let (verified, mut oracle_errors) = verify_all(&self.programs, &self.net);
        oracle_errors.splice(0..0, count_errors.iter().cloned());
        let expected = self
            .programs
            .iter()
            .zip(&verified)
            .map(|(p, v)| {
                let kernel = format!("{} ", p.name.split('/').next().unwrap_or(&p.name));
                let tainted = count_errors.iter().any(|e| e.starts_with(&kernel));
                v.as_ref().filter(|_| !tainted).map(OpOut::digest)
            })
            .collect();
        let (sim_us_geomean, static_msgs_total) = exact_metrics(verified.iter().flatten());
        Verdict {
            expected,
            oracle_errors,
            sim_us_geomean,
            static_msgs_total,
            cache_bytes: None,
            counts: None,
        }
    }

    /// Takes over what the oracle step found.
    pub fn adopt(&mut self, verdict: Verdict) {
        self.expected = verdict.expected;
        self.expected.resize(self.programs.len(), None);
        self.oracle_errors = verdict.oracle_errors;
        self.sim_us_geomean = verdict.sim_us_geomean;
        self.static_msgs_total = verdict.static_msgs_total;
    }

    /// [`Inproc::new`], verified in this process.
    pub fn prepare(workload: &str, seed: u64, static_counts: &str) -> Inproc {
        let mut w = Inproc::new(workload, seed);
        let verdict = w.verify(static_counts);
        w.adopt(verdict);
        w
    }

    /// Executes one round: the timed op list, then (untimed) the check of
    /// every output against its verified digest. Returns the failures.
    /// `outs` is scratch space kept by the caller so a round allocates the
    /// same way every time.
    pub fn round(
        &self,
        laps: &mut Laps,
        outs: &mut Vec<Result<OpOut, String>>,
        spans: &mut impl SpanSink,
    ) -> u64 {
        outs.clear();
        for &i in &self.order {
            let out = laps.op(|| {
                spans.enter("op");
                let out = run_op(black_box(&self.programs[i]), &self.net, spans);
                spans.exit();
                out
            });
            outs.push(out);
        }
        self.order
            .iter()
            .zip(outs.iter())
            .filter(|(&i, out)| match (out, self.expected[i]) {
                (Ok(o), Some(want)) => o.digest() != want,
                _ => true,
            })
            .count() as u64
    }
}

/// `benchmark first-pass <workload>`: what a one-shot `gcommc` user pays —
/// a fresh process doing one pass over the input set. Returns the number
/// of programs that failed to compile.
pub fn first_pass(workload: &str) -> usize {
    let (programs, _) = programs_of(workload);
    let net = NetworkModel::sp2();
    programs
        .iter()
        .filter(|p| black_box(run_op(p, &net, &mut NoSpans)).is_err())
        .count()
}

/// `setup_s` of an in-process workload: the best of a series of fresh
/// child processes, spawn to exit, each running [`first_pass`]. Process
/// statics and lazy initialisation land here and nowhere else. The
/// children are spread over the whole run ([`FirstPass::keep_pace`] is
/// called between rounds) so that they sample the box at many moments,
/// and each is bracketed by speed probes like any other step.
#[derive(Debug)]
pub struct FirstPass {
    workload: String,
    exe: std::path::PathBuf,
    done: usize,
    best: BestSteps,
    /// First failure to start or finish a child, if any.
    pub error: Option<String>,
}

impl FirstPass {
    /// Children started over a run.
    pub const CHILDREN: usize = 40;

    /// A series for `workload`, nothing started yet.
    pub fn new(workload: &str) -> FirstPass {
        FirstPass {
            workload: workload.to_string(),
            exe: std::env::current_exe().unwrap_or_default(),
            done: 0,
            best: BestSteps::with_len(1),
            error: None,
        }
    }

    /// Starts children until `progress` (0..=1) of them have run.
    pub fn keep_pace(&mut self, progress: f64) {
        let due = ((progress.min(1.0) * Self::CHILDREN as f64).ceil() as usize).max(1);
        let mut laps = Laps::default();
        while self.done < due && self.error.is_none() {
            self.done += 1;
            let (status, lap) = laps.timed(|| {
                Command::new(&self.exe)
                    .args(["first-pass", &self.workload])
                    .stdout(Stdio::null())
                    .status()
            });
            match status {
                Ok(st) if st.success() => self.best.absorb_at(0, lap),
                Ok(st) => self.error = Some(format!("first-pass child failed: {st}")),
                Err(e) => self.error = Some(format!("spawning first-pass child: {e}")),
            }
        }
    }

    /// Seconds of the best child, at the speed of the run's fastest probe
    /// like every other timing.
    pub fn best_s(&self) -> f64 {
        let best = self.best.best_ns(fastest_probe_ns());
        best.first().map_or(0.0, |&ns| ns as f64 / 1e9)
    }
}
