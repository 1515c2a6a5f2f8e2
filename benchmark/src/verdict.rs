//! What the oracle step found, and how it travels.
//!
//! The oracles — an interpreter replay of every program, sizing and
//! calibration rounds against real servers — leave a process with a
//! high-water mark and a heap that the measured rounds would never reach
//! on their own. So the untraced run has them done by a child
//! (`benchmark prep <workload> <seed>`) and reads the verdict from the
//! child's standard output: `peak_rss_mb` is then the footprint of the
//! measured configuration and of nothing else.

use crate::served::CacheCounts;

/// The outcome of the oracle step of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Oracle-verified output digest per program (in-process workloads)
    /// or per timed request (served ones); `None` where an oracle
    /// objected, which fails every op on it.
    pub expected: Vec<Option<u64>>,
    /// What the oracles objected to (empty on a correct system).
    pub oracle_errors: Vec<String>,
    /// Geometric mean of simulated time over the distinct routines.
    pub sim_us_geomean: f64,
    /// Sum of static call sites over the distinct routines.
    pub static_msgs_total: u64,
    /// `serve`: the response-cache size the sizing round chose.
    pub cache_bytes: Option<u64>,
    /// `serve`: what the server's counters must read after a round.
    pub counts: Option<CacheCounts>,
}

impl Verdict {
    /// One `key values` line per field, an `error` line per objection.
    /// The geometric mean travels as its bits: it is exact.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "sim_us_geomean_bits {}\nstatic_msgs_total {}\n",
            self.sim_us_geomean.to_bits(),
            self.static_msgs_total
        );
        if let Some(bytes) = self.cache_bytes {
            s.push_str(&format!("cache_bytes {bytes}\n"));
        }
        if let Some(c) = self.counts {
            s.push_str(&format!("counts {} {} {}\n", c.hits, c.misses, c.evictions));
        }
        let digests: Vec<String> = self
            .expected
            .iter()
            .map(|d| d.map_or_else(|| "-".to_string(), |d| d.to_string()))
            .collect();
        s.push_str(&format!("expected {}\n", digests.join(" ")));
        for e in &self.oracle_errors {
            s.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        s
    }

    /// Reads [`Verdict::to_text`] back.
    ///
    /// # Errors
    ///
    /// Names the line that is not a verdict's, or the field that is
    /// missing.
    pub fn parse(text: &str) -> Result<Verdict, String> {
        let (mut geomean, mut msgs, mut expected) = (None, None, None);
        let mut v = Verdict {
            expected: Vec::new(),
            oracle_errors: Vec::new(),
            sim_us_geomean: 0.0,
            static_msgs_total: 0,
            cache_bytes: None,
            counts: None,
        };
        for line in text.lines() {
            let bad = || format!("not a verdict line: '{line}'");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let numbers: Result<Vec<u64>, _> = rest.split_whitespace().map(str::parse).collect();
            match (key, numbers.as_deref()) {
                ("error", _) => v.oracle_errors.push(rest.to_string()),
                ("expected", _) => {
                    let digests: Result<Vec<Option<u64>>, _> = rest
                        .split_whitespace()
                        .map(|d| {
                            if d == "-" {
                                Ok(None)
                            } else {
                                d.parse().map(Some)
                            }
                        })
                        .collect();
                    expected = Some(digests.map_err(|_| bad())?);
                }
                ("sim_us_geomean_bits", Ok(&[bits])) => geomean = Some(f64::from_bits(bits)),
                ("static_msgs_total", Ok(&[n])) => msgs = Some(n),
                ("cache_bytes", Ok(&[n])) => v.cache_bytes = Some(n),
                ("counts", Ok(&[hits, misses, evictions])) => {
                    v.counts = Some(CacheCounts {
                        hits,
                        misses,
                        evictions,
                    });
                }
                _ => return Err(bad()),
            }
        }
        v.sim_us_geomean = geomean.ok_or("verdict has no sim_us_geomean_bits")?;
        v.static_msgs_total = msgs.ok_or("verdict has no static_msgs_total")?;
        v.expected = expected.ok_or("verdict has no expected digests")?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_verdict_survives_the_trip() {
        let v = Verdict {
            expected: vec![Some(u64::MAX), None, Some(7)],
            oracle_errors: vec!["corpus3/comb: replay found 2 stale read(s)".into()],
            sim_us_geomean: 21858.798849878,
            static_msgs_total: 2148,
            cache_bytes: Some(1 << 20),
            counts: Some(CacheCounts {
                hits: 900,
                misses: 400,
                evictions: 151,
            }),
        };
        assert_eq!(Verdict::parse(&v.to_text()), Ok(v.clone()));
        let bare = Verdict {
            cache_bytes: None,
            counts: None,
            oracle_errors: Vec::new(),
            ..v
        };
        assert_eq!(Verdict::parse(&bare.to_text()), Ok(bare));
        assert!(Verdict::parse("expected 1 2\n").is_err());
        assert!(Verdict::parse("counts 1 2\n").is_err());
    }
}
