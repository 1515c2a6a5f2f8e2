//! Seeded disk-fault injection for recovery property tests.
//!
//! A [`DiskFaultPlan`] deterministically mutates a real segment file the
//! way crashes and dying media do:
//!
//! * [`DiskFault::TornWrite`] — truncate at an arbitrary byte offset, the
//!   shape a crash mid-`write(2)` leaves behind,
//! * [`DiskFault::ShortWrite`] — chop a few bytes off the tail, a write
//!   that returned early,
//! * [`DiskFault::BitFlip`] — flip one bit anywhere, silent media
//!   corruption,
//! * [`DiskFault::ZeroRange`] — zero an aligned range, a page whose fsync
//!   the drive acknowledged but never performed.
//!
//! The plan is pure std (this crate has no dependencies) and draws from a
//! seeded SplitMix64 generator, so every damaged file is reproducible.

use std::fs::{self, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// The kinds of damage a [`DiskFaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Truncate the file at an arbitrary offset.
    TornWrite,
    /// Truncate a short suffix (1–32 bytes) off the tail.
    ShortWrite,
    /// Flip a single bit at an arbitrary offset.
    BitFlip,
    /// Zero a 256-byte-aligned range (up to 1 KiB), modeling a lost page.
    ZeroRange,
}

/// What one injection actually did, for assertion messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// The fault that was applied.
    pub kind: DiskFault,
    /// First byte affected.
    pub offset: u64,
    /// Bytes affected (for truncations: bytes removed).
    pub len: u64,
}

/// A deterministic source of disk damage: the same seed applied to the
/// same file bytes always injects the same corruption.
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    state: u64,
}

impl DiskFaultPlan {
    /// Creates a plan from a seed.
    pub fn new(seed: u64) -> Self {
        DiskFaultPlan {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// SplitMix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform pick in `[0, n)` — for choosing which segment file to
    /// damage. Returns 0 when `n` is 0.
    pub fn next_pick(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Injects a randomly chosen fault kind into `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error reading or mutating the file.
    pub fn inject(&mut self, path: &Path) -> io::Result<Corruption> {
        let kind = match self.below(4) {
            0 => DiskFault::TornWrite,
            1 => DiskFault::ShortWrite,
            2 => DiskFault::BitFlip,
            _ => DiskFault::ZeroRange,
        };
        self.inject_kind(path, kind)
    }

    /// Injects a specific fault kind into `path`. A zero-length file is
    /// left untouched (`len == 0` in the returned report).
    ///
    /// # Errors
    ///
    /// Returns any I/O error reading or mutating the file.
    pub fn inject_kind(&mut self, path: &Path, kind: DiskFault) -> io::Result<Corruption> {
        let file_len = fs::metadata(path)?.len();
        if file_len == 0 {
            return Ok(Corruption {
                kind,
                offset: 0,
                len: 0,
            });
        }
        match kind {
            DiskFault::TornWrite => {
                let offset = self.below(file_len);
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(offset)?;
                f.sync_all()?;
                Ok(Corruption {
                    kind,
                    offset,
                    len: file_len - offset,
                })
            }
            DiskFault::ShortWrite => {
                let cut = 1 + self.below(file_len.min(32));
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(file_len - cut)?;
                f.sync_all()?;
                Ok(Corruption {
                    kind,
                    offset: file_len - cut,
                    len: cut,
                })
            }
            DiskFault::BitFlip => {
                let offset = self.below(file_len);
                let bit = self.below(8) as u32;
                let mut f = OpenOptions::new().read(true).write(true).open(path)?;
                let mut byte = [0u8; 1];
                f.seek(SeekFrom::Start(offset))?;
                f.read_exact(&mut byte)?;
                byte[0] ^= 1 << bit;
                f.seek(SeekFrom::Start(offset))?;
                f.write_all(&byte)?;
                f.sync_all()?;
                Ok(Corruption {
                    kind,
                    offset,
                    len: 1,
                })
            }
            DiskFault::ZeroRange => {
                let offset = self.below(file_len) & !255;
                let len = (1 + self.below(1024)).min(file_len - offset);
                let mut f = OpenOptions::new().write(true).open(path)?;
                f.seek(SeekFrom::Start(offset))?;
                f.write_all(&vec![0u8; len as usize])?;
                f.sync_all()?;
                Ok(Corruption { kind, offset, len })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_file(tag: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "gcomm-store-fault-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn injections_are_deterministic() {
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        let a = tmp_file("det-a", &payload);
        let b = tmp_file("det-b", &payload);
        let ca = DiskFaultPlan::new(99).inject(&a).unwrap();
        let cb = DiskFaultPlan::new(99).inject(&b).unwrap();
        assert_eq!(ca, cb);
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        fs::remove_file(a).unwrap();
        fs::remove_file(b).unwrap();
    }

    #[test]
    fn each_kind_changes_the_file() {
        for (i, kind) in [
            DiskFault::TornWrite,
            DiskFault::ShortWrite,
            DiskFault::BitFlip,
            DiskFault::ZeroRange,
        ]
        .into_iter()
        .enumerate()
        {
            let payload: Vec<u8> = (0..1024u32).map(|v| (v % 250 + 1) as u8).collect();
            let path = tmp_file(&format!("kind-{i}"), &payload);
            let c = DiskFaultPlan::new(7 + i as u64)
                .inject_kind(&path, kind)
                .unwrap();
            assert!(c.len > 0, "{kind:?} reported a no-op");
            assert_ne!(
                fs::read(&path).unwrap(),
                payload,
                "{kind:?} changed nothing"
            );
            fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn empty_file_is_a_reported_noop() {
        let path = tmp_file("empty", b"");
        let c = DiskFaultPlan::new(1).inject(&path).unwrap();
        assert_eq!(c.len, 0);
        fs::remove_file(path).unwrap();
    }
}
