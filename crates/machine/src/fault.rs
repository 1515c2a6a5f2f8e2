//! Fault injection and retry policy for the communication simulator.
//!
//! The paper's cost model (§3) and runtime results (§5, Figure 10) assume a
//! perfectly reliable SP2/NOW interconnect. Real message-passing layers
//! absorb message loss, transient link degradation, and straggler
//! processors; this module models those effects so Figure-10-style runs can
//! be replayed under adversarial conditions:
//!
//! * [`FaultPlan`] — what goes wrong: per-transmission message-loss
//!   probability, per-phase transient bandwidth degradation, per-phase
//!   straggler slowdown, all driven by a seeded deterministic RNG
//!   ([`Rng64`]) so every run is reproducible.
//! * [`RetryPolicy`] — how the runtime recovers: a timeout derived from the
//!   network model's expected message time, exponential backoff with
//!   jitter, a bounded attempt budget, and a graceful-degradation mode that
//!   falls back from a combined message to per-section sends when the
//!   combined transfer repeatedly times out.
//!
//! [`crate::sim::simulate_with_faults`] executes a
//! [`crate::sim::CommProgram`] under a plan. A [`FaultPlan::is_quiet`] plan
//! takes the exact closed-form path of [`crate::sim::simulate`], so
//! zero-fault reports are bit-identical to the fault-free simulator.

use std::fmt;

use crate::net::NetworkModel;

/// Deterministic 64-bit generator (SplitMix64). Small, seedable, and
/// reproducible across platforms — the properties fault replay needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[-1, 1)`.
    pub fn jitter(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// How the simulated runtime recovers from lost or stalled transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Timeout as a multiple of the network model's expected time for the
    /// message being sent (never below one startup cost).
    pub timeout_mult: f64,
    /// Exponential backoff growth factor between attempts.
    pub backoff_factor: f64,
    /// Jitter applied to each backoff interval, as a fraction of it.
    pub jitter_frac: f64,
    /// Maximum transmission attempts per message before giving up.
    pub max_attempts: u32,
    /// When a combined (multi-piece) message keeps timing out, fall back
    /// to sending each packed section individually.
    pub fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_mult: 4.0,
            backoff_factor: 2.0,
            jitter_frac: 0.25,
            max_attempts: 5,
            fallback: true,
        }
    }
}

impl RetryPolicy {
    /// Retransmission timeout for a message whose expected end-to-end time
    /// on the current network is `expected_us`.
    pub fn timeout_us(&self, net: &NetworkModel, expected_us: f64) -> f64 {
        self.timeout_mult.max(1.0) * expected_us.max(net.startup_us)
    }

    /// Backoff wait after the `attempt`-th consecutive timeout (1-based),
    /// exponentially grown from `timeout_us` and jittered.
    pub fn backoff_us(&self, timeout_us: f64, attempt: u32, rng: &mut Rng64) -> f64 {
        let exp = self
            .backoff_factor
            .max(1.0)
            .powi(attempt.saturating_sub(1) as i32);
        let base = timeout_us * exp;
        (base * (1.0 + self.jitter_frac.clamp(0.0, 1.0) * rng.jitter())).max(0.0)
    }

    /// Consecutive timeouts of a combined message after which the
    /// per-section fallback (if enabled) kicks in: half the attempt budget,
    /// at least one.
    pub fn fallback_after(&self) -> u32 {
        (self.max_attempts.max(1) / 2).max(1)
    }

    /// The attempt budget as a loop bound (never zero).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// A reproducible description of the faults injected into one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same plan and program always yield the same report.
    pub seed: u64,
    /// Probability that any single transmission attempt is lost.
    pub msg_loss: f64,
    /// Probability that a communication phase runs over a degraded link.
    pub degrade_prob: f64,
    /// Bandwidth multiplier while degraded, in `(0, 1]`.
    pub degrade_factor: f64,
    /// Probability that a communication phase has a straggler processor.
    pub straggle_prob: f64,
    /// Phase slowdown factor when a straggler is present (≥ 1; the BSP
    /// barrier waits for the slowest processor).
    pub straggle_slowdown: f64,
    /// Recovery policy.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::quiet()
    }
}

impl FaultPlan {
    /// The fault-free plan: [`crate::sim::simulate_with_faults`] under this
    /// plan is bit-identical to [`crate::sim::simulate`].
    pub fn quiet() -> Self {
        FaultPlan {
            seed: 0,
            msg_loss: 0.0,
            degrade_prob: 0.0,
            degrade_factor: 1.0,
            straggle_prob: 0.0,
            straggle_slowdown: 1.0,
            retry: RetryPolicy::default(),
        }
    }

    /// A plan that only loses messages, with the default retry policy.
    pub fn with_loss(seed: u64, msg_loss: f64) -> Self {
        FaultPlan {
            seed,
            msg_loss,
            ..FaultPlan::quiet()
        }
    }

    /// True when the plan injects nothing (the simulator then takes the
    /// closed-form fault-free path).
    pub fn is_quiet(&self) -> bool {
        self.msg_loss <= 0.0 && self.degrade_prob <= 0.0 && self.straggle_prob <= 0.0
    }

    /// Checks that every probability is in `[0, 1]` and every factor is
    /// positive and sane.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let prob = |name: &str, v: f64| -> Result<(), FaultSpecError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(FaultSpecError::new(format!(
                    "`{name}` must be a probability in [0, 1], got {v}"
                )))
            }
        };
        prob("loss", self.msg_loss)?;
        prob("degrade probability", self.degrade_prob)?;
        prob("straggle probability", self.straggle_prob)?;
        if !(self.degrade_factor > 0.0 && self.degrade_factor <= 1.0) {
            return Err(FaultSpecError::new(format!(
                "`degrade` factor must be in (0, 1], got {}",
                self.degrade_factor
            )));
        }
        if self.straggle_slowdown < 1.0 {
            return Err(FaultSpecError::new(format!(
                "`straggle` slowdown must be ≥ 1, got {}",
                self.straggle_slowdown
            )));
        }
        if self.retry.max_attempts == 0 {
            return Err(FaultSpecError::new("`retries` must be at least 1"));
        }
        if self.retry.timeout_mult < 1.0 {
            return Err(FaultSpecError::new(format!(
                "`timeout` multiplier must be ≥ 1, got {}",
                self.retry.timeout_mult
            )));
        }
        Ok(())
    }

    /// Parses a `--faults` command-line spec: comma-separated `key=value`
    /// settings over [`FaultPlan::quiet`].
    ///
    /// ```text
    /// seed=42,loss=0.01,degrade=0.2:0.5,straggle=0.05:3,retries=5,
    /// timeout=4,backoff=2,jitter=0.25,fallback=on
    /// ```
    ///
    /// `degrade=p:f` degrades bandwidth to fraction `f` with per-phase
    /// probability `p`; `straggle=p:s` slows a phase by factor `s` with
    /// probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on unknown keys, malformed numbers, or
    /// out-of-range values.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::quiet();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item.split_once('=').ok_or_else(|| {
                FaultSpecError::new(format!("expected `key=value`, got `{item}`"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => plan.seed = parse_num::<u64>(key, value)?,
                "loss" => plan.msg_loss = parse_num::<f64>(key, value)?,
                "degrade" => {
                    let (p, f) = parse_pair(key, value, 0.5)?;
                    plan.degrade_prob = p;
                    plan.degrade_factor = f;
                }
                "straggle" => {
                    let (p, s) = parse_pair(key, value, 2.0)?;
                    plan.straggle_prob = p;
                    plan.straggle_slowdown = s;
                }
                "retries" => plan.retry.max_attempts = parse_num::<u32>(key, value)?,
                "timeout" => plan.retry.timeout_mult = parse_num::<f64>(key, value)?,
                "backoff" => plan.retry.backoff_factor = parse_num::<f64>(key, value)?,
                "jitter" => plan.retry.jitter_frac = parse_num::<f64>(key, value)?,
                "fallback" => {
                    plan.retry.fallback = match value {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => {
                            return Err(FaultSpecError::new(format!(
                                "`fallback` must be on/off, got `{other}`"
                            )))
                        }
                    }
                }
                other => {
                    return Err(FaultSpecError::new(format!(
                        "unknown fault key `{other}` (expected seed, loss, degrade, \
                         straggle, retries, timeout, backoff, jitter, or fallback)"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, FaultSpecError> {
    value
        .parse::<T>()
        .map_err(|_| FaultSpecError::new(format!("`{key}`: cannot parse `{value}` as a number")))
}

/// `p` or `p:x` — a probability with an optional second factor.
fn parse_pair(key: &str, value: &str, default_second: f64) -> Result<(f64, f64), FaultSpecError> {
    match value.split_once(':') {
        Some((p, x)) => Ok((
            parse_num::<f64>(key, p.trim())?,
            parse_num::<f64>(key, x.trim())?,
        )),
        None => Ok((parse_num::<f64>(key, value)?, default_second)),
    }
}

/// An invalid `--faults` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// Description of the problem.
    pub message: String,
}

impl FaultSpecError {
    fn new(message: impl Into<String>) -> Self {
        FaultSpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.message)
    }
}

impl std::error::Error for FaultSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let mut lo = 0u32;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                lo += 1;
            }
        }
        assert!((400..600).contains(&lo), "biased: {lo}/1000 below 0.5");
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=7, loss=0.01, degrade=0.2:0.5, straggle=0.05:3, retries=6, \
             timeout=3, backoff=1.5, jitter=0.1, fallback=off",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.msg_loss, 0.01);
        assert_eq!((p.degrade_prob, p.degrade_factor), (0.2, 0.5));
        assert_eq!((p.straggle_prob, p.straggle_slowdown), (0.05, 3.0));
        assert_eq!(p.retry.max_attempts, 6);
        assert_eq!(p.retry.timeout_mult, 3.0);
        assert_eq!(p.retry.backoff_factor, 1.5);
        assert_eq!(p.retry.jitter_frac, 0.1);
        assert!(!p.retry.fallback);
        assert!(!p.is_quiet());
    }

    #[test]
    fn parse_defaults_and_pairs() {
        let p = FaultPlan::parse("loss=0.05").unwrap();
        assert_eq!(p.msg_loss, 0.05);
        assert_eq!(p.retry.max_attempts, RetryPolicy::default().max_attempts);
        let q = FaultPlan::parse("degrade=0.3").unwrap();
        assert_eq!((q.degrade_prob, q.degrade_factor), (0.3, 0.5));
        assert!(FaultPlan::parse("").unwrap().is_quiet());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("loss=2").is_err());
        assert!(FaultPlan::parse("loss=abc").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("loss").is_err());
        assert!(FaultPlan::parse("retries=0").is_err());
        assert!(FaultPlan::parse("degrade=0.1:0").is_err());
        assert!(FaultPlan::parse("straggle=0.1:0.5").is_err());
        assert!(FaultPlan::parse("fallback=maybe").is_err());
    }

    #[test]
    fn backoff_grows_and_stays_positive() {
        let rp = RetryPolicy::default();
        let mut rng = Rng64::new(1);
        let t = 100.0;
        let mut prev = 0.0;
        for attempt in 1..=5 {
            let b = rp.backoff_us(t, attempt, &mut rng);
            assert!(b > 0.0);
            // Exponential growth dominates the ±25% jitter beyond doubling.
            if attempt > 1 {
                assert!(b > prev * 1.2, "attempt {attempt}: {b} ≤ {prev}");
            }
            prev = b;
        }
    }

    #[test]
    fn timeout_never_below_startup() {
        let net = crate::net::NetworkModel::sp2();
        let rp = RetryPolicy::default();
        assert!(rp.timeout_us(&net, 0.0) >= net.startup_us);
        assert!(rp.timeout_us(&net, 1000.0) >= 4.0 * 1000.0 - 1e-9);
    }
}
