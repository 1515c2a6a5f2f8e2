//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer; they stay in
//! memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use gcomm_benchmark::rounds::{fastest_probe_ns, BestSteps, Lap, Laps, SpanSink};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `op` for the span around one whole op.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same pass, -1 at the top.
    pub parent: i32,
    /// Which op of the pass this span belongs to.
    pub op: u32,
}

/// Records the spans of one pass at a time.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans of the current pass, in opening order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    next_op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: 0,
        }
    }

    /// Forgets the previous pass.
    pub fn begin_pass(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.op = 0;
        self.next_op = 0;
    }

    /// Records `f` as a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

impl SpanSink for Tracer {
    fn enter(&mut self, name: &'static str) {
        // A top-level span starts the next op; everything opened inside
        // it shares its op id.
        if self.stack.is_empty() {
            self.op = self.next_op;
            self.next_op += 1;
        }
        let parent = self.stack.last().map_or(-1, |&p| p as i32);
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
        });
        // Read the clock last, so the bookkeeping above is outside.
        let now = self.epoch.elapsed().as_nanos() as u64;
        let at = self.spans.len() - 1;
        self.spans[at].start_ns = now;
    }

    fn exit(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }
}

/// Per span name and op, the best execution over all passes — the same
/// speed-free per-step minimum the end-to-end metrics are built from: a
/// span is scaled by the probes around the op it belongs to.
#[derive(Debug)]
pub struct BestSpans {
    ops: usize,
    best: BTreeMap<&'static str, BestSteps>,
    /// Spans of the pass whose top-level spans summed lowest.
    pub best_pass: Vec<Span>,
    best_pass_ns: u64,
}

impl BestSpans {
    /// For passes of `ops` ops.
    pub fn new(ops: usize) -> BestSpans {
        BestSpans {
            ops,
            best: BTreeMap::new(),
            best_pass: Vec::new(),
            best_pass_ns: u64::MAX,
        }
    }

    /// Folds in the spans of one pass; `laps[op]` is the lap of the op a
    /// span belongs to (a pass that lost ops is skipped).
    pub fn absorb(&mut self, spans: &[Span], laps: &[Lap]) {
        if laps.len() != self.ops {
            return;
        }
        let mut total = 0;
        for s in spans {
            let ns = s.end_ns.saturating_sub(s.start_ns);
            if s.parent < 0 {
                total += ns;
            }
            let op = s.op as usize % self.ops;
            self.best
                .entry(s.name)
                .or_insert_with(|| BestSteps::with_len(self.ops))
                .absorb_at(op, Lap { ns, ..laps[op] });
        }
        if total < self.best_pass_ns {
            self.best_pass_ns = total;
            self.best_pass = spans.to_vec();
        }
    }

    /// Microseconds span `name` takes over one pass at its best: the sum
    /// of its per-op bests.
    pub fn sum_us(&self, name: &str) -> f64 {
        self.best.get(name).map_or(0.0, |b| {
            b.best_ns(fastest_probe_ns()).iter().sum::<u64>() as f64 / 1e3
        })
    }
}

/// Per position of a repeated list of steps, the best execution — for
/// the micro-measurements of the ladders.
#[derive(Debug)]
pub struct BestLaps {
    best: BestSteps,
}

impl BestLaps {
    pub fn new(n: usize) -> BestLaps {
        BestLaps {
            best: BestSteps::with_len(n),
        }
    }

    /// Times `inner` back-to-back executions of `f` as position `i` and
    /// keeps the best per-execution time seen for that position. Both
    /// probes are taken here and now: other measurements run between two
    /// calls, so the probe that closed the last one is stale.
    pub fn time<T>(&mut self, i: usize, inner: u32, mut f: impl FnMut() -> T) {
        let ((), mut lap) = Laps::default().timed(|| {
            for _ in 0..inner {
                std::hint::black_box(f());
            }
        });
        lap.ns /= u64::from(inner.max(1));
        self.best.absorb_at(i, lap);
    }

    /// Best microseconds per position.
    pub fn us(&self) -> Vec<f64> {
        let best = self.best.best_ns(fastest_probe_ns());
        best.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

/// Mean of a list (0 for an empty one).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
