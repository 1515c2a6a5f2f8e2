//! Property tests for the query engine itself, on a synthetic
//! three-stage pipeline (so this crate's tests stay below `gcomm-core`
//! in the dependency graph):
//!
//! ```text
//!   source ──fnv──▶ canon (strip comments/space) ──▶ upper ──▶ summary
//! ```
//!
//! The stages mirror the real compiler's shape — each keyed by a
//! fingerprint of its input, each output fingerprinted for the next
//! stage's key — which is all the engine ever sees. Properties:
//!
//! * a **no-op edit** (comment/whitespace only) recomputes nothing past
//!   the first stage: the canonical text's fingerprint is unchanged, so
//!   downstream memos hit and the early cutoff is recorded;
//! * an edit to routine R **never recomputes** routine-local queries of
//!   any R' ≠ R;
//! * memo ≡ direct under a 4-worker pool: concurrent pipelines through
//!   one shared engine return exactly what the memo-free functions do;
//! * a module presented in one batch ([`QueryEngine::present`]) returns
//!   and counts what the one-routine-at-a-time loop returns and counts.

use std::sync::Mutex;

use gcomm_query::{fingerprint, Computed, EngineStats, Input, InputChange, QueryEngine};

// ---------------------------------------------------------------------------
// The synthetic pipeline
// ---------------------------------------------------------------------------

/// Stage 1: canonicalize — drop `#` comments, collapse whitespace.
/// Distinct sources can canonicalize identically (that is the point).
fn canon_of(src: &str) -> String {
    src.lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Stage 2: "lower" — uppercase the canonical text.
fn upper_of(canon: &str) -> String {
    canon.to_ascii_uppercase()
}

/// Stage 3: "place" — summarize.
fn summary_of(upper: &str) -> String {
    format!("{}:{}", upper.split(' ').count(), upper.len())
}

/// The memo-free reference.
fn direct(src: &str) -> String {
    summary_of(&upper_of(&canon_of(src)))
}

/// A pipeline instance: the engine plus a log of `(stage, routine)`
/// compute events, so tests can assert exactly what reran.
struct Pipe {
    eng: QueryEngine,
    computes: Mutex<Vec<(&'static str, String)>>,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            eng: QueryEngine::new(1 << 20),
            computes: Mutex::new(Vec::new()),
        }
    }

    fn log(&self, stage: &'static str, routine: &str) {
        self.computes
            .lock()
            .unwrap()
            .push((stage, routine.to_string()));
    }

    /// Computes logged for a routine since construction.
    fn computed_for(&self, routine: &str) -> Vec<&'static str> {
        self.computes
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, r)| r == routine)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Runs the pipeline for one named routine through the engine.
    fn run(&self, routine: &str, src: &str) -> (String, InputChange) {
        let src_fp = fingerprint(src.as_bytes());
        let change = self.eng.note_input(fingerprint(routine.as_bytes()), src_fp);

        let (canon, h1) = self.eng.memo("s.canon", src_fp, || {
            self.log("canon", routine);
            let v = canon_of(src);
            Computed {
                bytes: v.len() as u64,
                cacheable: true,
                value: v,
            }
        });
        let canon_fp = fingerprint(canon.as_bytes());
        let (upper, h2) = self.eng.memo("s.upper", canon_fp, || {
            self.log("upper", routine);
            let v = upper_of(&canon);
            Computed {
                bytes: v.len() as u64,
                cacheable: true,
                value: v,
            }
        });
        if !h1 && h2 {
            self.eng.count(0, 0, 1);
        }
        let upper_fp = fingerprint(upper.as_bytes());
        let (sum, h3) = self.eng.memo("s.sum", upper_fp, || {
            self.log("sum", routine);
            let v = summary_of(&upper);
            Computed {
                bytes: v.len() as u64,
                cacheable: true,
                value: v,
            }
        });
        if !h2 && h3 {
            self.eng.count(0, 0, 1);
        }
        ((*sum).clone(), change)
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// A no-op edit (comments/whitespace) recomputes only the stage that
/// reads raw text; everything past the fingerprint check cuts off.
#[test]
fn noop_edit_cuts_off_after_the_first_stage() {
    let p = Pipe::new();
    let (a, ch) = p.run("r0", "alpha beta # note\n");
    assert_eq!(ch, InputChange::Fresh);
    assert_eq!(p.computed_for("r0"), ["canon", "upper", "sum"]);

    // Same canonical content, different bytes.
    let (b, ch) = p.run("r0", "alpha     beta   # a different note\n");
    assert_eq!(ch, InputChange::Changed, "the raw bytes did change");
    assert_eq!(a, b);
    // Only canon reran; upper and sum were cut off.
    assert_eq!(p.computed_for("r0"), ["canon", "upper", "sum", "canon"]);
    let stats = p.eng.stats();
    assert_eq!(stats.cutoffs, 1, "{stats:?}");
    assert_eq!(stats.invalidations, 1, "{stats:?}");

    // A byte-identical re-presentation recomputes nothing at all.
    let (c, ch) = p.run("r0", "alpha     beta   # a different note\n");
    assert_eq!(ch, InputChange::Unchanged);
    assert_eq!(a, c);
    assert_eq!(p.computed_for("r0").len(), 4, "zero new computes");
}

/// Editing routine R never recomputes the routine-local queries of any
/// other routine.
#[test]
fn edits_to_one_routine_never_recompute_others() {
    let p = Pipe::new();
    let sources: Vec<(String, String)> = (0..5)
        .map(|i| (format!("r{i}"), format!("word{i} tail{i}\n")))
        .collect();
    for (r, s) in &sources {
        p.run(r, s);
    }
    let before: Vec<Vec<&str>> = sources.iter().map(|(r, _)| p.computed_for(r)).collect();

    // A real (content-changing) edit to r2 only.
    p.run("r2", "word2 tail2 extra\n");

    for (i, (r, _)) in sources.iter().enumerate() {
        let after = p.computed_for(r);
        if r == "r2" {
            assert_eq!(after.len(), before[i].len() + 3, "r2 fully recomputes");
        } else {
            assert_eq!(after, before[i], "{r} must be untouched by r2's edit");
        }
    }
    assert_eq!(p.eng.stats().invalidations, 1);

    // Re-presenting the untouched routines is pure reuse.
    for (r, s) in &sources {
        if r != "r2" {
            p.run(r, s);
            assert_eq!(p.computed_for(r).len(), 3, "{r}: no new computes");
        }
    }
}

/// Memoized results equal the direct computation under a 4-worker pool
/// hammering one shared engine — including duplicate keys racing.
#[test]
fn memo_equals_direct_under_four_jobs() {
    let p = Pipe::new();
    // 48 inputs over 12 distinct contents: every content appears 4
    // times, so racing duplicate computes are guaranteed.
    let inputs: Vec<(String, String)> = (0..48)
        .map(|i| {
            let k = i % 12;
            (format!("r{k}"), format!("alpha{k} beta{} # c{i}\n", k % 3))
        })
        .collect();
    let expected: Vec<String> = inputs.iter().map(|(_, s)| direct(s)).collect();
    let got = gcomm_par::map(4, &inputs, |_, (r, s)| p.run(r, s).0);
    assert_eq!(got, expected);

    // And a serial rerun over the now-warm memo still agrees.
    for ((r, s), want) in inputs.iter().zip(&expected) {
        assert_eq!(p.run(r, s).0, *want);
    }
    let stats = p.eng.stats();
    assert!(stats.hits > 0, "{stats:?}");
}

/// Distinct-but-content-equal routines share memo entries (content
/// addressing), while `note_input` still tracks them separately.
#[test]
fn content_addressing_shares_across_routines() {
    let p = Pipe::new();
    p.run("left", "same text\n");
    let (_, ch) = p.run("right", "same text\n");
    assert_eq!(ch, InputChange::Fresh, "slots are per-routine");
    assert_eq!(p.computed_for("right"), Vec::<&str>::new(), "full reuse");
    assert_eq!(p.eng.stats().invalidations, 0);
}

/// `present` + `memo` for the misses ≡ `note_input` + `memo` per input:
/// same values, same hit/miss/invalidation totals, over seeded streams
/// of modules whose routines repeat, change, swap names and duplicate
/// each other inside one module.
#[test]
fn present_counts_like_the_one_at_a_time_loop() {
    let compute = |key: u64| Computed {
        value: key.wrapping_mul(31),
        bytes: 8,
        cacheable: !key.is_multiple_of(7), // some values are never memoized
    };
    let (batched, looped) = (QueryEngine::new(1 << 20), QueryEngine::new(1 << 20));
    let mut state = 0x9e37_79b9_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    for _module in 0..200 {
        let inputs: Vec<Input> = (0..1 + next(12))
            .map(|_| {
                let fp = next(40);
                Input {
                    slot: next(10),
                    fp,
                    key: fp,
                }
            })
            .collect();
        let got: Vec<u64> = batched
            .present("t.q", &inputs, |_, v: &u64| Some(*v))
            .into_iter()
            .zip(&inputs)
            .map(|(hit, i)| hit.unwrap_or_else(|| *batched.memo("t.q", i.key, || compute(i.key)).0))
            .collect();
        let want: Vec<u64> = inputs
            .iter()
            .map(|i| {
                looped.note_input(i.slot, i.fp);
                *looped.memo("t.q", i.key, || compute(i.key)).0
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(batched.stats(), looped.stats());
    }
    let EngineStats {
        hits,
        misses,
        invalidations,
        ..
    } = batched.stats();
    assert!(hits > 0 && misses > 0 && invalidations > 0);
}
