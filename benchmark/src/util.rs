//! Small pieces every part of the benchmark shares: CPU pinning, digests,
//! order statistics, seeded shuffles, `/proc` reads and the few JSON
//! fields the end-to-end path reads out of server responses.

use proptest::test_runner::TestRng;

// ---------------------------------------------------------------------------
// CPU pinning
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the CPU mask handed to the kernel (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU. Called first thing in `main`, before any thread or
/// child exists, so everything the benchmark starts inherits the mask.
/// `None` (not fatal) when the platform or the sandbox refuses.
pub fn pin_to_last_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1u64 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the byte length passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a, 64 bit. The benchmark keeps its own copy on purpose: the
/// repository's fingerprint functions are due to be merged (ROADMAP item
/// 3) and a verified digest must not move with them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Percentile of an ascending slice (`q` in 0..=1): the smallest sample
/// that more than `q` of the samples do not exceed (rank `floor(q n) + 1`).
///
/// Op lists are made of a few op types repeated, so the sorted per-op
/// times form clusters. Where `q n` is whole the rank above falls on the
/// *first* sample of the next cluster — the luckiest instance of its
/// type, which repeats well — where rank `ceil(q n)` would pick the
/// unluckiest instance of the cluster below, which does not (`kernels`:
/// 18 equal types, so p50 sits exactly on such an edge).
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).floor() as usize + 1;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's own spread measure.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

// ---------------------------------------------------------------------------
// Seeded order
// ---------------------------------------------------------------------------

/// Fisher-Yates shuffle driven by the repository's SplitMix64 generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

/// Peak resident set (`VmHWM`) of this process in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Response fields
// ---------------------------------------------------------------------------

/// Every string value stored under `"key":` in a JSON text, unescaped, in
/// document order. Enough for the flat objects the service writes: inside
/// a JSON string a quote is always escaped, so `"key":"` cannot occur in
/// one.
pub fn json_strings(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let mut s = String::new();
        let mut chars = rest.char_indices();
        let mut end = rest.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    end = i + 1;
                    break;
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).unwrap_or(0xfffd);
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some(other) => s.push(other),
                    None => {}
                },
                c => s.push(c),
            }
        }
        out.push(s);
        rest = &rest[end..];
    }
    out
}

/// Every number stored under `"key":` in a JSON text, in document order.
pub fn json_numbers(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = rest[at + needle.len()..].trim_start();
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..len].parse::<f64>() {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=54).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 28);
        assert_eq!(percentile_sorted(&v, 0.95), 52);
        assert_eq!(percentile_sorted(&v, 1.0), 54);
        assert_eq!(percentile_sorted(&[7], 0.95), 7);
    }

    #[test]
    fn json_fields_unescape() {
        let t = r#"{"id":1,"ok":true,"report":"a \"b\"\nA","sim":{"total_us":12.5,"n":64}}"#;
        assert_eq!(json_strings(t, "report"), vec!["a \"b\"\nA".to_string()]);
        assert_eq!(json_numbers(t, "total_us"), vec![12.5]);
        assert!(json_strings(t, "absent").is_empty());
    }
}
