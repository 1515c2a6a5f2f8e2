//! The measurement protocol: identical rounds, per-step minima, a speed
//! probe.
//!
//! A round is a *reset phase* (bring the system under test to the round's
//! start state from nothing) and a *timed phase* (the same op list, in the
//! same order, from the same state, every round). Each step of a round —
//! reset step or timed op — is timed on its own, and for each step the
//! **minimum over rounds** is kept; every reported timing is computed
//! from those per-step minima.
//!
//! Why per step: the sandbox's CPU steps between a few discrete speeds
//! (1.000x, 1.050x, 1.135x, 1.273x the fastest time of a fixed spin loop)
//! and changes step by the second. A median of rounds follows the mix and
//! drifts by 13-23 % between identical runs; a 0.1 s round almost never
//! fits inside a full-speed stretch, so the minimum over whole rounds is
//! little better. Step `i` does identical work from an identical state in
//! every round, so its minimum is a consistent estimate of its cost.
//!
//! Why the probe: some 30 s stretches never reach full speed, or reach it
//! while only part of the op list is running, and then the raw minima sit
//! 5 % high for some ops and not for others. So every step is bracketed by
//! a fixed 8 us register-only spin loop ([`speed_probe_ns`]). When the two
//! probes around a step agree, the CPU held one speed across it, and the
//! step's time divided by the probe's is free of that speed. The best of
//! that ratio over rounds (see [`BestSteps`]), times the fastest probe of
//! the whole run, is the step's time at the fastest speed the run saw —
//! and the probe, sampled a few hundred thousand times a run, sees full
//! speed far more surely than any one step does (README, "Measurement
//! protocol").
//!
//! What per-step minima cannot see is a cost that lands on a different
//! step every round (allocator growth or trim, a timer, deferred or
//! batched work): it drops out of every step's best. So the same probes
//! also give each *whole round* a speed-free time, and the best whole
//! round over the sum of the per-step bests is reported beside them
//! ([`Summary::round_over_steps`]): work moved off the steps and into the
//! gaps between them shows there.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::util::{median, percentile_sorted};

/// Rounds thrown away before any statistic is taken.
pub const WARMUP_ROUNDS: usize = 2;

/// Where the traced run hooks in: a workload brackets every public call
/// it makes with `enter`/`exit`. The untraced run passes [`NoSpans`],
/// which compiles to nothing; the `benchmark-layers` binary passes its
/// span recorder, and the difference between the two is the tracing
/// overhead it reports. (Not to be confused with the *speed probe*
/// below, which every run takes.)
pub trait SpanSink {
    /// A call named `name` is about to start (calls nest).
    fn enter(&mut self, name: &'static str);
    /// The innermost open call has returned.
    fn exit(&mut self);
}

/// The span sink of the untraced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl SpanSink for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// Iterations of the speed probe: about 8 us at full speed.
const PROBE_ITERS: u64 = 8192;
/// Two probes within this ratio of each other saw the same CPU speed (the
/// speed steps are at least 3 % apart).
const PROBE_AGREE: f64 = 1.02;
/// A probe slower than this many times the fastest one is not a clock
/// step. The host's clock steps end at 1.273x; readings of 1.3-1.65x also
/// occur (the vCPU throttled, or sharing its core) and slow the probe's
/// pure ALU chain *more* than they slow real code, so a step's time over
/// such a probe reads 5-13 % too small (`AA.md`, "the slow mode").
const PROBE_SLOWEST: f64 = 1.30;

/// Fastest probe this process has taken, ns.
static FASTEST_PROBE_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// The fastest speed probe of the process so far, ns: the speed every
/// reported time is stated at.
pub fn fastest_probe_ns() -> u64 {
    // Relaxed: a statistic, it publishes no other data.
    FASTEST_PROBE_NS.load(Ordering::Relaxed)
}

/// Times a fixed, register-only dependent chain of multiplies and adds.
/// It touches no memory, so its time is a pure reading of the CPU's
/// current speed.
pub fn speed_probe_ns() -> u64 {
    let t = Instant::now();
    let mut s = std::hint::black_box(1u64);
    for i in 0..PROBE_ITERS {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (s >> 13));
    }
    std::hint::black_box(s);
    let ns = t.elapsed().as_nanos() as u64;
    FASTEST_PROBE_NS.fetch_min(ns, Ordering::Relaxed);
    ns
}

/// One timed step and the speed probes around it.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Nanoseconds the step took.
    pub ns: u64,
    /// Nanoseconds of the probe just before it.
    pub probe_before_ns: u64,
    /// Nanoseconds of the probe just after it.
    pub probe_after_ns: u64,
}

impl Lap {
    /// The step's time over the mean of the two probes around it.
    fn over_probe(&self) -> f64 {
        self.ns as f64 * 2.0 / (self.probe_before_ns + self.probe_after_ns).max(1) as f64
    }

    /// [`Lap::over_probe`] when the two probes agree and are no slower
    /// than a clock step of a CPU whose fastest probe takes `fastest_ns`:
    /// the CPU held one speed across the step, so the ratio is free of it.
    fn speed_free(&self, fastest_ns: u64) -> Option<f64> {
        let (lo, hi) = (
            self.probe_before_ns.min(self.probe_after_ns) as f64,
            self.probe_before_ns.max(self.probe_after_ns) as f64,
        );
        (hi <= lo * PROBE_AGREE && hi <= fastest_ns as f64 * PROBE_SLOWEST)
            .then(|| self.over_probe())
    }
}

/// The laps of one round, filled in by the workload.
#[derive(Debug, Default)]
pub struct Laps {
    /// Each reset step, in order (empty for a workload without a reset
    /// phase).
    pub reset: Vec<Lap>,
    /// Each timed op, in op-list order.
    pub ops: Vec<Lap>,
    /// The probe that closed the previous step opens the next.
    last_probe: Option<u64>,
}

impl Laps {
    /// Forgets the previous round.
    pub fn clear(&mut self) {
        self.reset.clear();
        self.ops.clear();
        self.last_probe = None;
    }

    /// Runs `f` between two speed probes (the probe that closed the
    /// previous step doubles as the one that opens this one) and returns
    /// its result with its lap, recording nothing.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        let probe_before_ns = self.last_probe.take().unwrap_or_else(speed_probe_ns);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let probe_after_ns = speed_probe_ns();
        self.last_probe = Some(probe_after_ns);
        (
            out,
            Lap {
                ns,
                probe_before_ns,
                probe_after_ns,
            },
        )
    }

    /// Runs and times one step of the reset phase.
    pub fn reset_step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, lap) = self.timed(f);
        self.reset.push(lap);
        out
    }

    /// Runs and times one op of the timed phase.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, lap) = self.timed(f);
        self.ops.push(lap);
        out
    }

    /// The whole timed phase over the probe: each op's time over the mean
    /// of the probes around it, summed. Every op counts, also one whose
    /// probes disagree — a round has no second sample to fall back on.
    pub fn ops_over_probe(&self) -> f64 {
        self.ops.iter().map(Lap::over_probe).sum()
    }
}

/// Speed-free ratios kept per step: the smallest three.
const KEPT: usize = 3;

/// Per step of a repeated list, the best seen over all repetitions.
///
/// "Best" of the speed-free ratios is the **third smallest**, not the
/// smallest. A step's cost has a hard floor, and a run that reaches it
/// reaches it many times; but now and then a sample comes out 3-10 % too
/// small even between two agreeing probes at a clock-step speed (the CPU
/// changed speed twice inside the step, say). A plain minimum would pick
/// exactly those; the third smallest shrugs off two of them a step and
/// is as steady as anything cleverer (`AA.md`, "the same laps").
#[derive(Debug, Clone, Default)]
pub struct BestSteps {
    /// Fewest raw nanoseconds per step.
    raw_ns: Vec<u64>,
    /// The [`KEPT`] smallest speed-free ratios per step, ascending.
    ratios: Vec<[f64; KEPT]>,
}

impl BestSteps {
    /// For a list of `len` steps.
    pub fn with_len(len: usize) -> BestSteps {
        BestSteps {
            raw_ns: vec![u64::MAX; len],
            ratios: vec![[f64::INFINITY; KEPT]; len],
        }
    }

    /// Folds in one execution of step `i`. Its probes are judged against
    /// the fastest probe so far, which a run reaches within its warm-up.
    pub fn absorb_at(&mut self, i: usize, lap: Lap) {
        self.raw_ns[i] = self.raw_ns[i].min(lap.ns);
        if let Some(r) = lap.speed_free(fastest_probe_ns()) {
            let kept = &mut self.ratios[i];
            let at = kept.partition_point(|&k| k <= r);
            if at < KEPT {
                kept.copy_within(at..KEPT - 1, at + 1);
                kept[at] = r;
            }
        }
    }

    /// Folds in one repetition of the whole list (the first one fixes
    /// the list's length).
    pub fn absorb(&mut self, laps: &[Lap]) {
        if self.raw_ns.is_empty() {
            *self = BestSteps::with_len(laps.len());
        }
        for (i, &lap) in laps.iter().enumerate().take(self.raw_ns.len()) {
            self.absorb_at(i, lap);
        }
    }

    /// Nanoseconds of each step at the speed of a probe of `probe_ns`:
    /// its third smallest speed-free ratio (the largest it has, of fewer)
    /// times `probe_ns`, or its raw minimum when its probes never agreed
    /// (0 for a step never executed).
    pub fn best_ns(&self, probe_ns: u64) -> Vec<u64> {
        self.raw_ns
            .iter()
            .zip(&self.ratios)
            .map(
                |(&raw, kept)| match kept.iter().rev().find(|r| r.is_finite()) {
                    Some(ratio) => (ratio * probe_ns as f64).round() as u64,
                    None if raw == u64::MAX => 0,
                    None => raw,
                },
            )
            .collect()
    }
}

/// Best-of-rounds summary of a run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Rounds counted (after warm-up).
    pub rounds: usize,
    /// Ops attempted in all executed rounds, warm-up included.
    pub attempted: u64,
    /// Ops failed in all executed rounds, warm-up included.
    pub failed: u64,
    /// Per timed op, its best time over the counted rounds, ns.
    pub best_op_ns: Vec<u64>,
    /// Per reset step, its best time over the counted rounds, ns.
    pub best_reset_ns: Vec<u64>,
    /// Median over rounds of the summed raw op times, seconds.
    pub median_timed_s: f64,
    /// The best whole timed phase, speed-free like the steps, seconds.
    pub best_round_s: f64,
}

impl Summary {
    /// Seconds one timed phase takes when every op runs at its best.
    pub fn best_timed_s(&self) -> f64 {
        self.best_op_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Seconds one reset phase takes when every step runs at its best.
    pub fn best_reset_s(&self) -> f64 {
        self.best_reset_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Ops per second of a timed phase at its best.
    pub fn ops_per_s(&self) -> f64 {
        self.best_op_ns.len() as f64 / self.best_timed_s()
    }

    /// Percentile of the per-op best latencies, microseconds.
    pub fn op_percentile_us(&self, q: f64) -> f64 {
        let mut sorted = self.best_op_ns.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, q) as f64 / 1e3
    }

    /// Median round over best round: how far the box was from its best
    /// during the run. Printed, never gated on.
    pub fn median_over_best(&self) -> f64 {
        self.median_timed_s / self.best_timed_s()
    }

    /// Best whole round over the sum of the per-step bests. The steps'
    /// bests cannot hold a cost that lands on a different step each
    /// round; a whole round holds it, so such a cost raises this ratio.
    /// Printed beside `median_over_best`, never gated on.
    pub fn round_over_steps(&self) -> f64 {
        self.best_round_s / self.best_timed_s()
    }

    /// Share of attempted ops whose output matched its verified digest.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Fewest counted rounds a run of `seconds` must hold: 100 at the
/// benchmark's own run length, fewer for the short runs of `smoke.sh`.
pub fn min_rounds(seconds: f64) -> usize {
    ((seconds * 4.0) as usize).clamp(5, 100)
}

/// Runs rounds until `seconds` have passed and [`min_rounds`] are counted.
/// `round` executes one round, timing its steps through the [`Laps`] it is
/// handed (cleared before each call), and returns how many ops failed.
/// `between` runs after every round, outside all timing, and is told the
/// fraction of `seconds` that has passed.
pub fn run_rounds(
    seconds: f64,
    ops_per_round: usize,
    mut round: impl FnMut(&mut Laps) -> u64,
    mut between: impl FnMut(f64),
) -> Summary {
    let started = Instant::now();
    let floor = min_rounds(seconds);
    let mut laps = Laps::default();
    let mut timed: Vec<f64> = Vec::new();
    let mut best_round = f64::INFINITY;
    let (mut ops, mut reset) = (BestSteps::default(), BestSteps::default());
    let (mut attempted, mut failed, mut executed) = (0u64, 0u64, 0usize);
    loop {
        // Rounds that lose ops are not counted; a system that loses them
        // all still ends the run, after twice the floor.
        let enough = timed.len() >= floor || executed >= WARMUP_ROUNDS + 2 * floor;
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        laps.clear();
        let lost = round(&mut laps);
        executed += 1;
        attempted += ops_per_round as u64;
        failed += lost;
        if executed > WARMUP_ROUNDS && laps.ops.len() == ops_per_round {
            ops.absorb(&laps.ops);
            reset.absorb(&laps.reset);
            timed.push(laps.ops.iter().map(|l| l.ns).sum::<u64>() as f64 / 1e9);
            best_round = best_round.min(laps.ops_over_probe());
        }
        between(started.elapsed().as_secs_f64() / seconds.max(1e-9));
    }
    // Every time is stated at the speed of the run's fastest probe.
    let probe_ns = fastest_probe_ns();
    Summary {
        rounds: timed.len(),
        attempted,
        failed,
        best_op_ns: ops.best_ns(probe_ns),
        best_reset_ns: reset.best_ns(probe_ns),
        median_timed_s: if timed.is_empty() {
            0.0
        } else {
            median(&timed)
        },
        best_round_s: if timed.is_empty() {
            0.0
        } else {
            best_round * probe_ns as f64 / 1e9
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(ns: u64, before: u64, after: u64) -> Lap {
        Lap {
            ns,
            probe_before_ns: before,
            probe_after_ns: after,
        }
    }

    #[test]
    fn best_steps_are_speed_free_when_the_probes_agree() {
        let mut best = BestSteps::default();
        // Step 0 at full speed; step 1 only ever seen 1.25x slow; step 2
        // straddles a speed change, so only its raw time can be used.
        best.absorb(&[lap(1000, 100, 101), lap(2500, 125, 125), lap(900, 100, 125)]);
        best.absorb(&[lap(1300, 125, 126), lap(2510, 125, 126), lap(950, 125, 100)]);
        let ns = best.best_ns(100);
        // Fewer than three samples: the largest, 1300 / 125.5.
        assert!((1030..=1040).contains(&ns[0]), "{ns:?}");
        assert_eq!(ns[1], 2000);
        assert_eq!(ns[2], 900);
    }

    #[test]
    fn two_too_small_ratios_are_not_the_best() {
        // Honest samples from 1000 ns up, and two where the CPU sped up
        // inside the step while both probes read slow.
        let mut best = BestSteps::with_len(1);
        for k in 0..250u64 {
            best.absorb_at(0, lap(1000 + k % 7, 100, 100));
        }
        best.absorb_at(0, lap(870, 100, 100));
        best.absorb_at(0, lap(905, 100, 100));
        assert_eq!(best.best_ns(100), vec![1000]);
    }

    #[test]
    fn a_probe_slower_than_any_clock_step_is_not_used() {
        assert_eq!(lap(1000, 127, 128).speed_free(100), Some(1000.0 / 127.5));
        assert_eq!(lap(1000, 160, 161).speed_free(100), None);
        assert_eq!(lap(1000, 100, 110).speed_free(100), None);
    }

    #[test]
    fn a_whole_round_counts_every_op_over_its_probes() {
        let laps = Laps {
            ops: vec![lap(1000, 100, 100), lap(500, 100, 150)],
            ..Laps::default()
        };
        assert_eq!(laps.ops_over_probe(), 10.0 + 4.0);
    }

    #[test]
    fn warmup_rounds_and_short_rounds_are_not_counted() {
        let mut n = 0u64;
        let s = run_rounds(
            0.0,
            2,
            |laps| {
                n += 1;
                // Warm-up rounds are the fastest: they must not count.
                laps.reset_step(|| ());
                laps.op(|| ());
                if n != 4 {
                    laps.op(|| ()); // round 4 loses an op
                }
                u64::from(n == 4)
            },
            |_| {},
        );
        assert_eq!(s.rounds, min_rounds(0.0));
        assert_eq!(s.attempted, 2 * (s.rounds as u64 + 3));
        assert_eq!(s.failed, 1);
        assert_eq!((s.best_op_ns.len(), s.best_reset_ns.len()), (2, 1));
        assert!(fastest_probe_ns() > 0 && fastest_probe_ns() < u64::MAX);
        assert_eq!(s.ok_share(), 1.0 - 1.0 / s.attempted as f64);
        assert!(s.best_round_s > 0.0 && s.round_over_steps().is_finite());
    }
}
