//! Parametric network and memory-copy models.
//!
//! A message of `b` bytes costs `startup + b / bw(b)` where the effective
//! bandwidth follows the classic half-performance-length curve
//! `bw(b) = peak · b / (b + n_half)`. Local buffer copies (`bcopy`) run at
//! cache bandwidth while the buffer fits in cache and at memory bandwidth
//! beyond — the cliff the paper's Figure 5 shows and that motivates the
//! 20 KB combining threshold (§4.7).

/// A machine model: network, memory copy, and CPU parameters.
///
/// Presets [`NetworkModel::sp2`] and [`NetworkModel::now_myrinet`] are
/// calibrated to the qualitative features the paper reports: the SP2 has
/// lower per-message overhead and higher bandwidth than the NOW (§5), and
/// both amortize most startup cost well below the cache limit (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Human-readable name.
    pub name: String,
    /// Per-message startup cost in microseconds (sender + receiver
    /// overhead plus latency).
    pub startup_us: f64,
    /// Asymptotic network bandwidth in MB/s.
    pub peak_bw_mb: f64,
    /// Half-performance message length in bytes.
    pub half_size: f64,
    /// `bcopy` bandwidth while buffers fit in cache, MB/s.
    pub bcopy_cache_mb: f64,
    /// `bcopy` bandwidth beyond the cache, MB/s.
    pub bcopy_mem_mb: f64,
    /// Data cache size in bytes.
    pub cache_bytes: u64,
    /// Sustained CPU floating-point rate in MFLOP/s.
    pub cpu_mflops: f64,
    /// Sustained memory bandwidth for streaming computation, MB/s.
    pub mem_bw_mb: f64,
}

impl NetworkModel {
    /// IBM SP2 with the MPL message-passing library (paper §3, Figure 5;
    /// Stunkel et al. and Snir et al. report ≈40 µs short-message latency
    /// and ≈35 MB/s sustained bandwidth for MPL on the SP2 high-performance
    /// switch).
    pub fn sp2() -> Self {
        NetworkModel {
            name: "SP2/MPL".into(),
            startup_us: 45.0,
            peak_bw_mb: 34.0,
            half_size: 3500.0,
            bcopy_cache_mb: 320.0,
            bcopy_mem_mb: 80.0,
            cache_bytes: 128 * 1024,
            cpu_mflops: 50.0,
            mem_bw_mb: 150.0,
        }
    }

    /// Berkeley NOW: SPARC workstations, Myrinet, MPICH (paper §3; Keeton
    /// et al. report high MPI overheads on this platform — roughly 3× the
    /// SP2's — with lower sustained bandwidth).
    pub fn now_myrinet() -> Self {
        NetworkModel {
            name: "NOW/MPICH".into(),
            startup_us: 600.0,
            peak_bw_mb: 12.0,
            half_size: 6000.0,
            bcopy_cache_mb: 180.0,
            bcopy_mem_mb: 45.0,
            cache_bytes: 64 * 1024,
            cpu_mflops: 30.0,
            mem_bw_mb: 80.0,
        }
    }

    /// Effective network bandwidth in MB/s for a message of `bytes`.
    pub fn bandwidth_mb(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.peak_bw_mb * bytes / (bytes + self.half_size)
    }

    /// End-to-end time of a single message in microseconds.
    pub fn msg_time_us(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return self.startup_us;
        }
        self.startup_us + bytes / self.bandwidth_mb(bytes).max(1e-9)
        // bytes / (MB/s) = microseconds, since 1 MB/s = 1 byte/µs.
    }

    /// `bcopy` bandwidth in MB/s for a buffer of `bytes`.
    fn bcopy_bw_mb(&self, bytes: f64) -> f64 {
        if bytes <= self.cache_bytes as f64 {
            self.bcopy_cache_mb
        } else {
            // Smooth-ish cliff: blend toward memory bandwidth.
            let over = bytes / self.cache_bytes as f64;
            let w = (1.0 / over).clamp(0.0, 1.0);
            self.bcopy_cache_mb * w + self.bcopy_mem_mb * (1.0 - w)
        }
    }

    /// Time to copy `bytes` locally (packing/unpacking combined messages),
    /// in microseconds.
    pub fn bcopy_time_us(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        bytes / self.bcopy_bw_mb(bytes)
    }

    /// Time to compute `flops` floating-point operations streaming
    /// `mem_bytes` from memory, in microseconds (roofline: the slower of
    /// compute and memory).
    pub fn compute_time_us(&self, flops: f64, mem_bytes: f64) -> f64 {
        let t_cpu = flops / self.cpu_mflops; // MFLOP / (MFLOP/s) = µs
        let t_mem = mem_bytes / self.mem_bw_mb;
        t_cpu.max(t_mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_monotone_and_saturating() {
        let m = NetworkModel::sp2();
        let mut prev = 0.0;
        for b in [64.0, 1024.0, 16384.0, 262144.0, 4194304.0] {
            let bw = m.bandwidth_mb(b);
            assert!(bw > prev, "bandwidth must grow with size");
            assert!(bw < m.peak_bw_mb);
            prev = bw;
        }
        assert!(m.bandwidth_mb(4194304.0) > 0.9 * m.peak_bw_mb);
    }

    #[test]
    fn sp2_beats_now_on_overhead_and_bandwidth() {
        let sp2 = NetworkModel::sp2();
        let now = NetworkModel::now_myrinet();
        assert!(sp2.startup_us < now.startup_us);
        assert!(sp2.peak_bw_mb > now.peak_bw_mb);
    }

    #[test]
    fn combining_two_small_messages_wins() {
        // The whole premise of §4.7: one 2b-byte message beats two b-byte
        // messages for small b.
        for m in [NetworkModel::sp2(), NetworkModel::now_myrinet()] {
            let b = 2048.0;
            let two = 2.0 * m.msg_time_us(b);
            let one = m.msg_time_us(2.0 * b) + 2.0 * m.bcopy_time_us(b);
            assert!(one < two, "{}: combining must win at {b} bytes", m.name);
        }
    }

    #[test]
    fn startup_amortizes_below_cache_limit() {
        // §3: "most of the message startup amortization benefits occur at
        // message sizes much smaller than the cache limit".
        let m = NetworkModel::sp2();
        let at_cache = m.cache_bytes as f64;
        let bw_at_tenth = m.bandwidth_mb(at_cache / 10.0);
        assert!(bw_at_tenth > 0.5 * m.peak_bw_mb);
    }

    #[test]
    fn bcopy_cliff_beyond_cache() {
        let m = NetworkModel::sp2();
        let small = m.bcopy_bw_mb(16.0 * 1024.0);
        let large = m.bcopy_bw_mb(8.0 * 1024.0 * 1024.0);
        assert!(small > 2.0 * large, "cache cliff must be visible");
    }

    #[test]
    fn compute_roofline() {
        let m = NetworkModel::sp2();
        // Compute-bound: many flops, few bytes.
        assert!(m.compute_time_us(1000.0, 8.0) > m.compute_time_us(10.0, 8.0));
        // Memory-bound: few flops, many bytes.
        let t = m.compute_time_us(1.0, 1_000_000.0);
        assert!((t - 1_000_000.0 / m.mem_bw_mb).abs() < 1e-9);
    }
}
