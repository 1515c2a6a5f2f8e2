//! # gcomm-guard — resource budgets for graceful degradation
//!
//! A [`Budget`] bounds how much work the expensive analyses may spend on one
//! compile: an abstract **step** counter (each charged step is one unit of
//! super-linear work — a subsumption check, a candidate position, an
//! enumerated assignment), an optional **wall-clock deadline**, and a
//! **memory high-water estimate** for the transient analysis structures.
//!
//! The contract with the passes (DESIGN.md §10) is:
//!
//! * charging is free-running bookkeeping — it never changes an answer;
//! * once a budget is *exhausted* (sticky), every pass must **degrade** to a
//!   conservative-but-legal result instead of erroring: skip the remaining
//!   subsumption/combining opportunities, fall back toward the
//!   `Strategy::Original` placement for unprocessed entries;
//! * an [`unlimited`](Budget::unlimited) budget charges nothing and never
//!   exhausts, so the default compile path is bit-identical to a build
//!   without this crate.
//!
//! Like `gcomm-obs`, this crate has **zero dependencies** and its handles
//! are cheap to clone ([`Budget`] is an `Arc` around atomics), so it can be
//! threaded through every analysis layer (`dep`, `sections`, `core`)
//! without coupling them.
//!
//! # Example
//!
//! ```
//! use gcomm_guard::{Budget, BudgetSpec};
//!
//! let b = Budget::from_spec(&BudgetSpec::parse("steps=3").unwrap());
//! assert!(b.charge(1));
//! assert!(b.charge(1));
//! assert!(!b.charge(1)); // third step hits the cap
//! assert!(b.exhausted());
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in charge calls) the wall-clock deadline is re-checked.
/// Deadlines therefore have a resolution of roughly this many steps; step
/// caps are exact.
const DEADLINE_CHECK_PERIOD: u64 = 64;

/// A parsed `--budget` specification: any subset of a step cap, a
/// wall-clock deadline, and a memory-estimate cap.
///
/// The textual form is comma-separated `key=value` pairs:
///
/// ```text
/// steps=20000          abstract analysis steps
/// ms=50                wall-clock deadline in milliseconds
/// mem=4m               memory high-water estimate (k/m/g suffixes)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BudgetSpec {
    /// Maximum abstract analysis steps (`None` = unbounded).
    pub steps: Option<u64>,
    /// Wall-clock deadline in milliseconds (`None` = unbounded).
    pub ms: Option<u64>,
    /// Maximum memory high-water estimate in bytes (`None` = unbounded).
    pub mem_bytes: Option<u64>,
}

impl BudgetSpec {
    /// Parses a spec like `steps=20000,ms=50,mem=4m`.
    ///
    /// # Errors
    ///
    /// Returns a one-line human-readable message on an unknown key, a bad
    /// number, a duplicate key, or an empty spec.
    pub fn parse(s: &str) -> Result<BudgetSpec, String> {
        let mut spec = BudgetSpec::default();
        let mut any = false;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("budget: expected key=value, got '{part}'"))?;
            let (key, val) = (key.trim(), val.trim());
            match key {
                "steps" => {
                    if spec.steps.is_some() {
                        return Err("budget: duplicate 'steps'".into());
                    }
                    spec.steps = Some(parse_u64(val, key)?);
                }
                "ms" => {
                    if spec.ms.is_some() {
                        return Err("budget: duplicate 'ms'".into());
                    }
                    spec.ms = Some(parse_u64(val, key)?);
                }
                "mem" => {
                    if spec.mem_bytes.is_some() {
                        return Err("budget: duplicate 'mem'".into());
                    }
                    spec.mem_bytes = Some(parse_bytes(val)?);
                }
                _ => {
                    return Err(format!(
                        "budget: unknown key '{key}' (expected steps=, ms=, or mem=)"
                    ))
                }
            }
            any = true;
        }
        if !any {
            return Err("budget: empty spec (expected e.g. steps=20000,ms=50,mem=4m)".into());
        }
        Ok(spec)
    }

    /// True when no limit is set (the spec describes an unlimited budget).
    pub fn is_unlimited(&self) -> bool {
        self.steps.is_none() && self.ms.is_none() && self.mem_bytes.is_none()
    }
}

impl fmt::Display for BudgetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(s) = self.steps {
            write!(f, "steps={s}")?;
            sep = ",";
        }
        if let Some(m) = self.ms {
            write!(f, "{sep}ms={m}")?;
            sep = ",";
        }
        if let Some(b) = self.mem_bytes {
            write!(f, "{sep}mem={b}")?;
        }
        Ok(())
    }
}

fn parse_u64(val: &str, key: &str) -> Result<u64, String> {
    val.parse::<u64>()
        .map_err(|_| format!("budget: invalid number '{val}' for '{key}'"))
}

/// Parses a byte-size literal with optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `4m` → 4 MiB. Shared by the `mem=` budget key and the
/// compile service's `--cache-bytes` flag.
///
/// # Errors
///
/// Returns a one-line message on a malformed number or overflow.
pub fn parse_size(val: &str) -> Result<u64, String> {
    let (digits, mult) = match val.as_bytes().last().map(|b| b.to_ascii_lowercase()) {
        Some(b'k') => (&val[..val.len() - 1], 1024u64),
        Some(b'm') => (&val[..val.len() - 1], 1024 * 1024),
        Some(b'g') => (&val[..val.len() - 1], 1024 * 1024 * 1024),
        _ => (val, 1),
    };
    let n = digits
        .parse::<u64>()
        .map_err(|_| format!("invalid size '{val}'"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("size '{val}' overflows"))
}

fn parse_bytes(val: &str) -> Result<u64, String> {
    parse_size(val).map_err(|e| format!("budget: {e} for 'mem'"))
}

#[derive(Debug)]
struct Inner {
    /// Abstract steps consumed so far.
    steps: AtomicU64,
    /// Step cap (`u64::MAX` when unbounded).
    step_cap: u64,
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// Memory high-water estimate in bytes (monotone; frees are not
    /// modelled — this tracks peak transient allocation, not live size).
    mem: AtomicU64,
    /// Memory cap (`u64::MAX` when unbounded).
    mem_cap: u64,
    /// Sticky exhaustion flag: once set, every pass degrades.
    exhausted: AtomicBool,
    /// Charge-call counter for amortized deadline checks.
    ticks: AtomicU64,
}

/// A shared, cheaply-clonable resource budget. See the crate docs for the
/// degradation contract.
///
/// All clones observe the same counters, so one budget can be threaded
/// through every pass of a compile and exhaust globally.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// `None` means unlimited: every operation is a no-op that reports
    /// "within budget", so the fast path costs one pointer test.
    inner: Option<Arc<Inner>>,
}

impl Budget {
    /// The unlimited budget: never charges, never exhausts. This is the
    /// default for every public compile entry point, and it leaves the
    /// compile bit-identical to one without budgeting.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// Builds a budget from a parsed spec. An unlimited spec yields
    /// [`Budget::unlimited`]. The deadline clock starts now.
    pub fn from_spec(spec: &BudgetSpec) -> Budget {
        if spec.is_unlimited() {
            return Budget::unlimited();
        }
        Budget {
            inner: Some(Arc::new(Inner {
                steps: AtomicU64::new(0),
                step_cap: spec.steps.unwrap_or(u64::MAX),
                deadline: spec.ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                mem: AtomicU64::new(0),
                mem_cap: spec.mem_bytes.unwrap_or(u64::MAX),
                exhausted: AtomicBool::new(false),
                ticks: AtomicU64::new(0),
            })),
        }
    }

    /// A budget bounded only by an abstract step count (deterministic: no
    /// wall clock involved — the form every reproducible test should use).
    pub fn steps(cap: u64) -> Budget {
        Budget::from_spec(&BudgetSpec {
            steps: Some(cap),
            ..BudgetSpec::default()
        })
    }

    /// Consumes `n` abstract steps. Returns `false` once the budget is
    /// exhausted (by steps, deadline, or memory) — callers then degrade.
    ///
    /// The step cap is exact: the charge that reaches the cap is the first
    /// to return `false`. The deadline is checked every
    /// [`DEADLINE_CHECK_PERIOD`] calls, so it has step-granular resolution.
    #[inline]
    pub fn charge(&self, n: u64) -> bool {
        let Some(inner) = &self.inner else {
            return true;
        };
        if inner.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        let used = inner
            .steps
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if used >= inner.step_cap {
            inner.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        if let Some(deadline) = inner.deadline {
            let t = inner.ticks.fetch_add(1, Ordering::Relaxed);
            if t % DEADLINE_CHECK_PERIOD == DEADLINE_CHECK_PERIOD - 1 && Instant::now() >= deadline
            {
                inner.exhausted.store(true, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// Adds `bytes` to the memory high-water estimate. Exhausts the budget
    /// when the estimate crosses the cap. Frees are not modelled: the
    /// estimate is the cumulative transient allocation of the analyses.
    #[inline]
    pub fn note_mem(&self, bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let used = inner
            .mem
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if used >= inner.mem_cap {
            inner.exhausted.store(true, Ordering::Relaxed);
        }
    }

    /// True once any resource limit has been hit (sticky). Passes consult
    /// this at their decision points; the unlimited budget always answers
    /// `false`.
    #[inline]
    pub fn exhausted(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.exhausted.load(Ordering::Relaxed),
        }
    }

    /// True when this is the unlimited budget.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// Abstract steps consumed so far (0 for the unlimited budget).
    pub fn steps_used(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.steps.load(Ordering::Relaxed))
    }

    /// The step cap, if one is set.
    pub fn step_cap(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.step_cap)
            .filter(|&c| c != u64::MAX)
    }

    /// Memory high-water estimate in bytes (0 for the unlimited budget).
    pub fn mem_used(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.mem.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge(1000));
        }
        b.note_mem(u64::MAX);
        assert!(!b.exhausted());
        assert_eq!(b.steps_used(), 0);
        assert!(b.is_unlimited());
    }

    #[test]
    fn step_cap_is_exact() {
        let b = Budget::steps(5);
        assert!(b.charge(1));
        assert!(b.charge(1));
        assert!(b.charge(1));
        assert!(b.charge(1));
        assert!(!b.charge(1), "the charge reaching the cap must fail");
        assert!(b.exhausted());
        assert!(!b.charge(1), "exhaustion is sticky");
    }

    #[test]
    fn bulk_charge_crossing_cap_exhausts() {
        let b = Budget::steps(10);
        assert!(b.charge(3));
        assert!(!b.charge(100));
        assert!(b.exhausted());
    }

    #[test]
    fn zero_step_budget_starts_exhausted_on_first_charge() {
        let b = Budget::steps(0);
        assert!(!b.charge(1));
        assert!(b.exhausted());
    }

    #[test]
    fn clones_share_state() {
        let a = Budget::steps(3);
        let b = a.clone();
        assert!(a.charge(2));
        assert!(!b.charge(2));
        assert!(a.exhausted() && b.exhausted());
    }

    #[test]
    fn mem_cap_exhausts() {
        let b = Budget::from_spec(&BudgetSpec {
            mem_bytes: Some(1024),
            ..BudgetSpec::default()
        });
        b.note_mem(512);
        assert!(!b.exhausted());
        b.note_mem(512);
        assert!(b.exhausted());
        assert_eq!(b.mem_used(), 1024);
        assert!(!b.charge(1));
    }

    #[test]
    fn deadline_exhausts() {
        let b = Budget::from_spec(&BudgetSpec {
            ms: Some(0),
            ..BudgetSpec::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        // The deadline is checked every DEADLINE_CHECK_PERIOD charges.
        let mut ok = true;
        for _ in 0..10 * DEADLINE_CHECK_PERIOD {
            ok = b.charge(0) && ok;
        }
        assert!(!ok);
        assert!(b.exhausted());
    }

    #[test]
    fn spec_parses_and_roundtrips() {
        let s = BudgetSpec::parse("steps=100, ms=50 ,mem=4m").unwrap();
        assert_eq!(s.steps, Some(100));
        assert_eq!(s.ms, Some(50));
        assert_eq!(s.mem_bytes, Some(4 * 1024 * 1024));
        let again = BudgetSpec::parse(&s.to_string()).unwrap();
        assert_eq!(s, again);
        assert_eq!(BudgetSpec::parse("mem=2k").unwrap().mem_bytes, Some(2048));
        assert_eq!(
            BudgetSpec::parse("mem=1g").unwrap().mem_bytes,
            Some(1 << 30)
        );
        assert_eq!(BudgetSpec::parse("mem=77").unwrap().mem_bytes, Some(77));
    }

    #[test]
    fn spec_rejects_garbage() {
        for bad in [
            "",
            " , ",
            "steps",
            "steps=abc",
            "frobs=3",
            "steps=1,steps=2",
            "ms=1,ms=2",
            "mem=1,mem=2",
            "mem=99999999999999999999g",
        ] {
            assert!(BudgetSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn from_unlimited_spec_is_unlimited() {
        assert!(Budget::from_spec(&BudgetSpec::default()).is_unlimited());
    }
}
