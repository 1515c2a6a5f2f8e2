//! Crash-safe segmented append-only record log.
//!
//! `gcomm-store` persists compile-cache entries so a restarted `gcommc
//! serve` process warms from disk instead of recompiling its whole
//! working set. The design goals, in order:
//!
//! 1. **Never serve a corrupt record.** Every record carries a checksum
//!    over its lengths, key, and value (FNV-1a with a SplitMix64
//!    finalizer). Recovery verifies it before an entry becomes visible; a
//!    mismatch quarantines the record — counted, truncated away, never
//!    returned.
//! 2. **Survive torn writes.** A crash mid-append leaves a partial record
//!    at the tail (or, via a lying filesystem, a zeroed page in the
//!    middle). The recovery scan stops at the first record that is
//!    incomplete or fails verification, truncates the segment there, and
//!    deletes all later segments, so the recovered state is always a
//!    prefix of the committed write sequence.
//! 3. **Bounded disk.** Appends go to a byte-capped active segment; on
//!    rotation, sealed segments are compacted latest-wins into one file
//!    via write-tmp → fsync → atomic-rename, crash-safe at every step.
//!
//! The log stores opaque byte strings — it knows nothing about compile
//! requests. `gcomm-serve` layers the content-addressed cache semantics on
//! top: the key is the canonical cache-key material and the value is the
//! rendered response payload, so recovered hits are bit-identical to cold
//! compiles by construction.
//!
//! On-disk record layout (all integers little-endian):
//!
//! ```text
//! magic     [4]  b"GCL1"
//! key_len   [4]  u32
//! val_len   [4]  u32
//! checksum  [8]  fnv1a(key_len ∥ val_len ∥ key ∥ value), SplitMix64-mixed
//! key       [key_len]
//! value     [val_len]
//! ```

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

pub mod fault;

/// First bytes of every record.
pub const MAGIC: [u8; 4] = *b"GCL1";

/// Bytes before the key: magic + two lengths + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 4 + 8;

const COMPACT_TMP: &str = "compact.tmp";

/// Record checksum: 64-bit FNV-1a over the length fields and payload,
/// passed through the SplitMix64 finalizer so single-bit flips anywhere in
/// the record avalanche across the whole word (plain FNV-1a of a short
/// tail-flip changes few high bits).
pub fn record_checksum(key: &[u8], value: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(key.len() as u32).to_le_bytes());
    eat(&(value.len() as u32).to_le_bytes());
    eat(key);
    eat(value);
    // SplitMix64 finalizer (same constants as `machine::fault::Rng64`).
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// When appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a completed append survives any crash.
    Always,
    /// fsync every `n` appends: bounds loss to the last `n - 1` records.
    Interval(u32),
    /// Never fsync on append (OS writeback only). Sealing and compaction
    /// still sync — segment structure stays crash-safe, only tail records
    /// are at risk.
    Off,
}

impl FsyncPolicy {
    /// Parses a `--persist-fsync` CLI value: `always`, `off`, or
    /// `interval:N` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on any other input.
    pub fn parse(spec: &str) -> Result<FsyncPolicy, String> {
        match spec {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            other => match other.strip_prefix("interval:") {
                Some(n) => match n.parse::<u32>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::Interval(n)),
                    _ => Err(format!("fsync interval must be a count ≥ 1, got `{n}`")),
                },
                None => Err(format!(
                    "unknown fsync policy `{other}` (expected always, off, or interval:N)"
                )),
            },
        }
    }
}

/// The spelling [`FsyncPolicy::parse`] reads back.
impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Off => f.write_str("off"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
        }
    }
}

/// Tuning for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Append durability policy.
    pub fsync: FsyncPolicy,
    /// Plausibility bound on each of key and value length. Recovery
    /// treats a header claiming more as corrupt instead of allocating it.
    pub max_record_bytes: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            max_record_bytes: 64 * 1024 * 1024,
        }
    }
}

/// What one [`Store::append`] did beyond writing the record, so callers
/// (the serve layer) can count fsyncs, rotations, and compactions without
/// this crate depending on the observability registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Appended {
    /// The record was fsynced before returning.
    pub fsynced: bool,
    /// The append sealed the active segment and opened a fresh one.
    pub rotated: bool,
    /// Rotation triggered a latest-wins compaction of sealed segments.
    pub compacted: bool,
}

/// Outcome of the recovery scan run by [`Store::open`].
#[derive(Debug, Default)]
pub struct Recovery {
    /// Live entries, latest-wins, ordered oldest → newest last write (so
    /// replaying them into an LRU leaves the newest entry most recent).
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// Checksum-valid records scanned (including superseded duplicates).
    pub records_ok: u64,
    /// Records dropped because they were incomplete on disk: a truncated
    /// header, a payload shorter than its header claims, or a foreign
    /// magic. The classic torn-write shapes.
    pub torn: u64,
    /// Records dropped because they were structurally complete but failed
    /// verification: a checksum mismatch or an implausible length field.
    /// These are quarantined — counted and truncated, never served.
    pub quarantined: u64,
    /// Segments present after the scan (sealed + active).
    pub segments: u64,
}

/// A segmented append-only log rooted at one directory.
///
/// Not internally synchronized — the serve layer wraps it in a `Mutex`
/// alongside the in-memory cache it shadows.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    active: File,
    active_index: u64,
    active_bytes: u64,
    appends_since_sync: u32,
}

impl Store {
    /// Opens (creating if necessary) the log in `dir`, running the
    /// recovery scan first: segments are read in order, the scan stops at
    /// the first torn or corrupt record, the damaged segment is truncated
    /// at that point, and every later segment is deleted — recovered state
    /// is a prefix of what was committed. A leftover `compact.tmp` from a
    /// crashed compaction is removed (the rename never happened, so the
    /// sealed segments it was replacing are still intact).
    ///
    /// # Errors
    ///
    /// Returns any I/O error creating, reading, or repairing the
    /// directory.
    pub fn open(dir: &Path, cfg: StoreConfig) -> io::Result<(Store, Recovery)> {
        fs::create_dir_all(dir)?;
        let tmp = dir.join(COMPACT_TMP);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }

        let mut recovery = Recovery::default();
        let segments = segment_indices(dir)?;
        let mut live: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut keep = segments.len();
        for (pos, &index) in segments.iter().enumerate() {
            let path = segment_path(dir, index);
            let scan = scan_segment(&path, cfg.max_record_bytes)?;
            recovery.records_ok += scan.records.len() as u64;
            live.extend(scan.records);
            if scan.clean {
                continue;
            }
            recovery.torn += u64::from(scan.torn);
            recovery.quarantined += u64::from(scan.quarantined);
            // Truncate the damaged segment at the last good record and
            // drop everything logged after it.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.valid_bytes)?;
            f.sync_all()?;
            for &later in &segments[pos + 1..] {
                fs::remove_file(segment_path(dir, later))?;
            }
            fsync_dir(dir)?;
            keep = pos + 1;
            break;
        }

        recovery.entries = latest_wins(live);
        let active_index = segments.get(keep.saturating_sub(1)).copied().unwrap_or(0);
        let active_index = if keep == 0 || active_index == 0 {
            1
        } else {
            active_index
        };
        let active_path = segment_path(dir, active_index);
        let fresh = !active_path.exists();
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        if fresh {
            fsync_dir(dir)?;
        }
        let active_bytes = active.metadata()?.len();
        recovery.segments = segment_indices(dir)?.len() as u64;

        Ok((
            Store {
                dir: dir.to_path_buf(),
                cfg,
                active,
                active_index,
                active_bytes,
                appends_since_sync: 0,
            },
            recovery,
        ))
    }

    /// Appends one record, then applies the fsync policy, byte-capped
    /// rotation, and (after rotation, when at least two sealed segments
    /// exist) latest-wins compaction.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when key or value exceeds
    /// [`StoreConfig::max_record_bytes`], or any I/O error writing.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> io::Result<Appended> {
        let max = self.cfg.max_record_bytes as usize;
        if key.len() > max || value.len() > max {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {}+{} bytes exceeds the {max}-byte record bound",
                    key.len(),
                    value.len()
                ),
            ));
        }
        let mut buf = Vec::with_capacity(HEADER_LEN + key.len() + value.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(&record_checksum(key, value).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        self.active.write_all(&buf)?;
        self.active_bytes += buf.len() as u64;

        let mut out = Appended::default();
        self.appends_since_sync += 1;
        let want_sync = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(n) => self.appends_since_sync >= n.max(1),
            FsyncPolicy::Off => false,
        };
        if want_sync {
            self.active.sync_all()?;
            self.appends_since_sync = 0;
            out.fsynced = true;
        }

        if self.active_bytes > self.cfg.segment_bytes {
            self.rotate()?;
            out.rotated = true;
            // Compaction needs two or more sealed segments to be worth a
            // rewrite; with one, the rename would be a copy of itself.
            if segment_indices(&self.dir)?.len() > 2 {
                self.compact_sealed()?;
                out.compacted = true;
            }
        }
        Ok(out)
    }

    /// Bytes in the active (unsealed) segment.
    pub fn active_bytes(&self) -> u64 {
        self.active_bytes
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Seals the active segment (final fsync unless the policy is `Off`)
    /// and opens the next one.
    fn rotate(&mut self) -> io::Result<()> {
        if self.cfg.fsync != FsyncPolicy::Off {
            self.active.sync_all()?;
        }
        self.active_index += 1;
        let path = segment_path(&self.dir, self.active_index);
        self.active = OpenOptions::new().create(true).append(true).open(&path)?;
        self.active_bytes = 0;
        self.appends_since_sync = 0;
        fsync_dir(&self.dir)?;
        Ok(())
    }

    /// Rewrites all sealed segments as one latest-wins segment. Crash-safe
    /// by construction: the merged file is written to `compact.tmp`,
    /// fsynced, atomically renamed over the *highest* sealed segment, and
    /// only then are the older sealed segments unlinked. A crash before
    /// the rename leaves the originals untouched (open() discards the
    /// tmp); a crash after it leaves stale older segments whose records
    /// the compacted segment supersedes — recovery's latest-wins replay
    /// yields the same live set either way.
    fn compact_sealed(&mut self) -> io::Result<()> {
        let sealed: Vec<u64> = segment_indices(&self.dir)?
            .into_iter()
            .filter(|&i| i != self.active_index)
            .collect();
        if sealed.len() < 2 {
            return Ok(());
        }
        let mut records = Vec::new();
        for &index in &sealed {
            let scan = scan_segment(&segment_path(&self.dir, index), self.cfg.max_record_bytes)?;
            records.extend(scan.records);
        }
        let live = latest_wins(records);

        let tmp = self.dir.join(COMPACT_TMP);
        let mut out = Vec::new();
        for (key, value) in &live {
            out.extend_from_slice(&MAGIC);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(&record_checksum(key, value).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        }
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        drop(f);

        let target = *sealed.last().expect("len checked ≥ 2");
        fs::rename(&tmp, segment_path(&self.dir, target))?;
        fsync_dir(&self.dir)?;
        for &index in &sealed[..sealed.len() - 1] {
            fs::remove_file(segment_path(&self.dir, index))?;
        }
        fsync_dir(&self.dir)?;
        Ok(())
    }
}

/// One scanned segment.
#[derive(Debug)]
struct SegmentScan {
    /// Valid records in write order.
    records: Vec<(Vec<u8>, Vec<u8>)>,
    /// The whole file verified.
    clean: bool,
    /// Scan stopped on an incomplete record (torn/short write).
    torn: bool,
    /// Scan stopped on a complete-looking record failing verification.
    quarantined: bool,
    /// Byte offset of the first bad record (file length when clean).
    valid_bytes: u64,
}

fn scan_segment(path: &Path, max_record_bytes: u32) -> io::Result<SegmentScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut records = Vec::new();
    let mut off = 0usize;
    let (mut torn, mut quarantined) = (false, false);
    while off < data.len() {
        let rest = &data[off..];
        if rest.len() < HEADER_LEN || rest[..4] != MAGIC {
            torn = true;
            break;
        }
        let key_len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let val_len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let stored = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        if key_len > max_record_bytes as usize || val_len > max_record_bytes as usize {
            quarantined = true;
            break;
        }
        let total = HEADER_LEN + key_len + val_len;
        if rest.len() < total {
            torn = true;
            break;
        }
        let key = &rest[HEADER_LEN..HEADER_LEN + key_len];
        let value = &rest[HEADER_LEN + key_len..total];
        if record_checksum(key, value) != stored {
            quarantined = true;
            break;
        }
        records.push((key.to_vec(), value.to_vec()));
        off += total;
    }
    Ok(SegmentScan {
        records,
        clean: !(torn || quarantined),
        torn,
        quarantined,
        valid_bytes: off as u64,
    })
}

/// Collapses a write-ordered record sequence to its live set: one entry
/// per key, holding the last-written value, ordered by last write.
fn latest_wins(records: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut slot: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut out: Vec<Option<(Vec<u8>, Vec<u8>)>> = Vec::with_capacity(records.len());
    for (key, value) in records {
        if let Some(&i) = slot.get(&key) {
            out[i] = None;
        }
        slot.insert(key.clone(), out.len());
        out.push(Some((key, value)));
    }
    out.into_iter().flatten().collect()
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// Paths of the segment files in `dir`, oldest first. Fault-injection
/// tests (and operators) use this to find the bytes to damage; ordinary
/// reads and writes go through [`Store::open`] / [`Store::append`].
///
/// # Errors
///
/// Returns any I/O error listing the directory.
pub fn segment_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(segment_indices(dir)?
        .into_iter()
        .map(|i| segment_path(dir, i))
        .collect())
}

/// Segment indices present in `dir`, ascending. Non-segment files are
/// ignored.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push(index);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// fsync the directory itself so renames and unlinks are durable.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gcomm-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Off,
            max_record_bytes: 4096,
        }
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let (mut s, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records_ok, 0);
        assert!(rec.entries.is_empty());
        s.append(b"k1", b"v1").unwrap();
        s.append(b"k2", b"v2").unwrap();
        s.append(b"k1", b"v1-new").unwrap();
        drop(s);
        let (_s, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records_ok, 3);
        assert_eq!((rec.torn, rec.quarantined), (0, 0));
        assert_eq!(
            rec.entries,
            vec![
                (b"k2".to_vec(), b"v2".to_vec()),
                (b"k1".to_vec(), b"v1-new".to_vec()),
            ],
            "latest wins, ordered by last write"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("interval:8"),
            Ok(FsyncPolicy::Interval(8))
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("interval:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn always_policy_reports_fsync_and_interval_batches() {
        let dir = tmp_dir("fsync");
        let cfg = StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::default()
        };
        let (mut s, _) = Store::open(&dir, cfg).unwrap();
        assert!(s.append(b"a", b"1").unwrap().fsynced);
        drop(s);
        let cfg = StoreConfig {
            fsync: FsyncPolicy::Interval(3),
            ..StoreConfig::default()
        };
        let (mut s, _) = Store::open(&dir, cfg).unwrap();
        assert!(!s.append(b"b", b"1").unwrap().fsynced);
        assert!(!s.append(b"c", b"1").unwrap().fsynced);
        assert!(s.append(b"d", b"1").unwrap().fsynced, "third append syncs");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_compaction_bound_segments() {
        let dir = tmp_dir("rotate");
        let (mut s, _) = Store::open(&dir, small_cfg()).unwrap();
        let mut rotated = 0;
        let mut compacted = 0;
        for i in 0..200 {
            // 16 hot keys, constantly rewritten: compaction has work.
            let key = format!("key-{:02}", i % 16);
            let val = format!("value-{i:04}-{}", "x".repeat(32));
            let a = s.append(key.as_bytes(), val.as_bytes()).unwrap();
            rotated += u32::from(a.rotated);
            compacted += u32::from(a.compacted);
        }
        assert!(rotated > 0, "256-byte segments must rotate");
        assert!(compacted > 0, "rotation must trigger compaction");
        let n = segment_indices(&dir).unwrap().len();
        assert!(n <= 3, "compaction failed to bound segments: {n}");
        drop(s);
        let (_s, rec) = Store::open(&dir, small_cfg()).unwrap();
        assert_eq!((rec.torn, rec.quarantined), (0, 0));
        assert_eq!(rec.entries.len(), 16);
        for (key, value) in &rec.entries {
            let k = String::from_utf8(key.clone()).unwrap();
            let v = String::from_utf8(value.clone()).unwrap();
            let i: usize = v[6..10].parse().unwrap();
            assert_eq!(k, format!("key-{:02}", i % 16), "wrong key/value pairing");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_second_recovery_is_idempotent() {
        let dir = tmp_dir("torn");
        let (mut s, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"k1", b"v1").unwrap();
        s.append(b"k2", b"v2").unwrap();
        drop(s);
        // Tear the second record: chop 3 bytes off the file tail.
        let path = segment_path(&dir, 1);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (_s, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records_ok, 1);
        assert_eq!((rec.torn, rec.quarantined), (1, 0));
        assert_eq!(rec.entries, vec![(b"k1".to_vec(), b"v1".to_vec())]);
        // The repair truncated the tail, so a second scan is clean.
        let (_s2, rec2) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!((rec2.torn, rec2.quarantined), (0, 0));
        assert_eq!(rec2.entries, rec.entries);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_quarantines_never_serves() {
        let dir = tmp_dir("flip");
        let (mut s, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"good", b"payload").unwrap();
        s.append(b"bad", b"payload").unwrap();
        drop(s);
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        // Flip one payload bit inside the second record's value.
        let second = HEADER_LEN + 4 + 7;
        let target = second + HEADER_LEN + 3 + 2;
        data[target] ^= 0x10;
        fs::write(&path, &data).unwrap();
        let (_s, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!((rec.torn, rec.quarantined), (0, 1));
        assert_eq!(rec.entries, vec![(b"good".to_vec(), b"payload".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn implausible_length_is_quarantined_not_allocated() {
        let dir = tmp_dir("length");
        let (mut s, _) = Store::open(&dir, small_cfg()).unwrap();
        s.append(b"k", b"v").unwrap();
        drop(s);
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        data[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &data).unwrap();
        let (_s, rec) = Store::open(&dir, small_cfg()).unwrap();
        assert_eq!((rec.torn, rec.quarantined), (0, 1));
        assert!(rec.entries.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_sealed_segment_drops_later_segments() {
        let dir = tmp_dir("prefix");
        let (mut s, _) = Store::open(&dir, small_cfg()).unwrap();
        for i in 0..40 {
            let key = format!("unique-key-{i:04}");
            s.append(key.as_bytes(), b"some value bytes").unwrap();
        }
        drop(s);
        let segs = segment_indices(&dir).unwrap();
        assert!(segs.len() >= 2, "need multiple segments for this test");
        // Corrupt the FIRST segment's first record checksum.
        let path = segment_path(&dir, segs[0]);
        let mut data = fs::read(&path).unwrap();
        data[12] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let (_s, rec) = Store::open(&dir, small_cfg()).unwrap();
        assert_eq!(rec.quarantined, 1);
        assert!(
            rec.entries.is_empty(),
            "everything after the first bad record is dropped"
        );
        assert!(
            segment_indices(&dir).unwrap().len() <= 2,
            "later segments must be deleted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_compact_tmp_is_discarded() {
        let dir = tmp_dir("tmp");
        let (mut s, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"k", b"v").unwrap();
        drop(s);
        fs::write(dir.join(COMPACT_TMP), b"half-written garbage").unwrap();
        let (_s, rec) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(!dir.join(COMPACT_TMP).exists());
        assert_eq!(rec.entries, vec![(b"k".to_vec(), b"v".to_vec())]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_is_rejected() {
        let dir = tmp_dir("oversize");
        let (mut s, _) = Store::open(&dir, small_cfg()).unwrap();
        let huge = vec![0u8; 5000];
        let err = s.append(b"k", &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }
}
