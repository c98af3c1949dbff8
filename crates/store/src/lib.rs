//! Append-only, crash-safe spill log for `fingerprint → assessment`
//! entries — the durable half of the server's result cache.
//!
//! # On-disk format
//!
//! A store is a directory of segment files named `seg-%016x.log`,
//! ordered by segment id. Each segment starts with a 5-byte header and
//! is followed by length-prefixed records, all encoded with the
//! project's own wire codec ([`recloud::wire`], little-endian):
//!
//! ```text
//! segment  := magic:u32 (0x5243_534C) version:u8 (1) record*
//! record   := len:u32 body checksum:u64      (len = |body| + 8)
//! body     := op:u8 key_lo:u64 key_hi:u64 payload?
//! payload  := score:f64 variance:f64 rounds:u64 successes:u64   (op = 1, Put)
//!             (absent for op = 2, Evict — a tombstone)
//! checksum := FNV-1a-64 over body
//! ```
//!
//! A `Put` record is 61 bytes framed, an `Evict` tombstone 29.
//!
//! # Crash safety
//!
//! The log is recovered, never validated: [`Store::open`] scans the
//! segments in id order and replays every record up to — exactly — the
//! longest valid prefix. The first torn, truncated, or
//! checksum-corrupt record ends the log: that segment is truncated to
//! the bytes before it and every later segment is deleted. Recovery
//! never fails on corrupt data and never panics; a store that lost its
//! tail simply remembers fewer entries.
//!
//! Replay semantics are last-write-wins: a later `Put` for the same
//! key supersedes an earlier one, an `Evict` drops the key. That makes
//! [compaction](Store::compact) trivially crash-safe — the compacted
//! segment gets the *next* segment id, so if a crash lands between the
//! rename and the old-segment deletes, replaying old-then-compacted
//! reproduces the same final state.
//!
//! # Rotation and compaction
//!
//! Appends go to the highest-id (active) segment; when a record would
//! push it past [`StoreConfig::segment_max_bytes`] a fresh segment is
//! started. [`Store::compact`] folds the whole log to its live set
//! (dropping superseded `Put`s and everything evicted), writes the
//! survivors to a single new segment via a `.tmp` + rename, and
//! deletes the old files.
//!
//! Compaction is also *size-triggered*: the store tracks its live key
//! set (`Put` inserts, `Evict` removes — exact, since records have
//! fixed sizes) and [`Store::append`] runs a compaction automatically
//! once the log holds at least [`StoreConfig::compact_min_bytes`] and
//! the live fraction drops below [`StoreConfig::compact_live_ratio`].
//! [`Store::compactions`] counts the passes for the server's
//! `store.compactions_total` counter.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use recloud::wire::ByteWriter;

/// Magic value opening every segment file (`"RCSL"` read as LE bytes).
pub const SEGMENT_MAGIC: u32 = 0x5243_534C;
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Bytes of segment header: magic + version.
pub const HEADER_LEN: usize = 5;
/// Upper bound accepted for a record's framed `len` field; anything
/// larger is treated as corruption (the real records are ≤ 61 bytes).
pub const MAX_RECORD_LEN: u32 = 1 << 16;
/// Framed size of a `Put` record: 4 (len) + 49 (body) + 8 (checksum).
pub const PUT_RECORD_LEN: u64 = 61;
/// Framed size of an `Evict` tombstone: 4 (len) + 17 (body) + 8 (checksum).
pub const EVICT_RECORD_LEN: u64 = 29;

const OP_PUT: u8 = 1;
const OP_EVICT: u8 = 2;
const PUT_BODY_LEN: usize = 49;
const EVICT_BODY_LEN: usize = 17;

/// One durable cache entry: the assessment fingerprint plus the fields
/// of the `AssessResponse` it maps to (the server re-derives the
/// transient `cached` flag on replay).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Assessment fingerprint (`recloud_assess::assessment_key`).
    pub key: u128,
    /// Estimated reliability.
    pub score: f64,
    /// Estimator variance.
    pub variance: f64,
    /// Monte-Carlo rounds behind the estimate.
    pub rounds: u64,
    /// Rounds in which the deployment survived.
    pub successes: u64,
}

/// One logical log operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Insert or supersede an entry.
    Put(Entry),
    /// Tombstone: the key was evicted from the cache.
    Evict(u128),
}

impl Op {
    /// The fingerprint this operation applies to.
    pub fn key(&self) -> u128 {
        match self {
            Op::Put(e) => e.key,
            Op::Evict(k) => *k,
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the active one would exceed this
    /// many bytes (header included).
    pub segment_max_bytes: u64,
    /// Auto-compaction floor: [`Store::append`] never compacts while
    /// the log is smaller than this (0 disables the size check, making
    /// the ratio alone decide; `u64::MAX` disables auto-compaction).
    pub compact_min_bytes: u64,
    /// Auto-compaction trigger: compact when `live_bytes / bytes`
    /// drops below this fraction (superseded puts and tombstones
    /// dominate the log).
    pub compact_live_ratio: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 4 << 20,
            compact_min_bytes: 64 << 10,
            compact_live_ratio: 0.5,
        }
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in log order; fold with last-write-wins.
    pub ops: Vec<Op>,
    /// Bytes cut from the first corrupt segment (torn tail, bad
    /// checksum, bad header …).
    pub truncated_bytes: u64,
    /// Segments after the corruption point that were deleted outright.
    pub segments_dropped: u64,
}

impl Recovery {
    /// Folds the op stream to its live set (last-write-wins), returning
    /// the entries in the order of their final write.
    pub fn live_entries(&self) -> Vec<Entry> {
        fold_live(&self.ops)
    }
}

/// Result of a [`Store::compact`] pass.
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// Entries that survived the fold.
    pub live_entries: u64,
    /// On-disk bytes before compaction.
    pub bytes_before: u64,
    /// On-disk bytes after compaction.
    pub bytes_after: u64,
    /// Old segment files deleted.
    pub segments_removed: u64,
}

/// An open append-only result store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    active: File,
    active_id: u64,
    active_len: u64,
    sealed_bytes: u64,
    /// Keys currently live (puts minus evicts) — exact, maintained on
    /// every append and rebuilt by recovery/compaction.
    live: HashSet<u128>,
    compactions: u64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, recovering the
    /// longest valid prefix of the log. Corrupt tails are truncated on
    /// disk, segments past the corruption point deleted, and leftover
    /// `.tmp` files from an interrupted compaction removed.
    pub fn open(dir: &Path, config: StoreConfig) -> io::Result<(Store, Recovery)> {
        fs::create_dir_all(dir)?;
        let mut segments = Vec::new();
        for dirent in fs::read_dir(dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                fs::remove_file(dirent.path())?;
            } else if let Some(id) = parse_segment_id(&name) {
                segments.push((id, dirent.path()));
            }
        }
        segments.sort_by_key(|(id, _)| *id);

        let mut recovery = Recovery::default();
        let mut corrupt_at = None;
        for (index, (_, path)) in segments.iter().enumerate() {
            let file = File::open(path)?;
            let file_len = file.metadata()?.len();
            let valid_len = scan_segment(file, |op| {
                recovery.ops.push(op);
                Ok(())
            })?;
            if valid_len < file_len {
                recovery.truncated_bytes = file_len - valid_len;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_len)?;
                corrupt_at = Some(index);
                break;
            }
        }
        if let Some(index) = corrupt_at {
            for (_, path) in segments.drain(index + 1..) {
                fs::remove_file(path)?;
                recovery.segments_dropped += 1;
            }
        }

        let (active_id, active_path) = match segments.last() {
            Some((id, path)) => (*id, path.clone()),
            None => {
                let path = dir.join(segment_file_name(0));
                write_empty_segment(&path)?;
                (0, path)
            }
        };
        let mut active = OpenOptions::new().read(true).write(true).open(&active_path)?;
        let mut active_len = active.seek(SeekFrom::End(0))?;
        if active_len < HEADER_LEN as u64 {
            // Header was part of the corrupt prefix; start the segment
            // over so future appends land in a well-formed file.
            active.set_len(0)?;
            active.seek(SeekFrom::Start(0))?;
            active.write_all(&segment_header())?;
            active_len = HEADER_LEN as u64;
        }
        let mut sealed_bytes = 0;
        for (_, path) in &segments[..segments.len().saturating_sub(1)] {
            sealed_bytes += fs::metadata(path)?.len();
        }
        let mut live = HashSet::new();
        for op in &recovery.ops {
            match op {
                Op::Put(e) => {
                    live.insert(e.key);
                }
                Op::Evict(key) => {
                    live.remove(key);
                }
            }
        }
        let store = Store {
            dir: dir.to_path_buf(),
            config,
            active,
            active_id,
            active_len,
            sealed_bytes,
            live,
            compactions: 0,
        };
        Ok((store, recovery))
    }

    /// Appends one operation, rotating segments as needed and running a
    /// size-triggered compaction when the live fraction of the log
    /// drops below [`StoreConfig::compact_live_ratio`]. Returns the
    /// framed bytes written.
    pub fn append(&mut self, op: &Op) -> io::Result<u64> {
        let record = encode_record(op);
        let len = record.len() as u64;
        if self.active_len > HEADER_LEN as u64
            && self.active_len + len > self.config.segment_max_bytes
        {
            self.rotate()?;
        }
        self.active.write_all(&record)?;
        self.active_len += len;
        match op {
            Op::Put(e) => {
                self.live.insert(e.key);
            }
            Op::Evict(key) => {
                self.live.remove(key);
            }
        }
        if self.should_compact() {
            self.compact()?;
        }
        Ok(len)
    }

    /// Keys currently live in the log (puts minus evicts).
    pub fn live_entries(&self) -> u64 {
        self.live.len() as u64
    }

    /// Exact on-disk bytes a compacted log would occupy: one header
    /// plus one fixed-size `Put` record per live key.
    pub fn live_bytes(&self) -> u64 {
        HEADER_LEN as u64 + self.live.len() as u64 * PUT_RECORD_LEN
    }

    /// Compaction passes completed so far (size-triggered and manual).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether the size/live-ratio auto-compaction thresholds currently
    /// hold: the log is at least `compact_min_bytes` and live data is
    /// under `compact_live_ratio` of it. Appends consult this
    /// internally; the serving layer polls it from a timer so a store
    /// that crossed the threshold via replay or eviction patterns no
    /// append revisits still gets compacted.
    pub fn should_compact(&self) -> bool {
        let total = self.bytes();
        total >= self.config.compact_min_bytes
            && (self.live_bytes() as f64) < self.config.compact_live_ratio * total as f64
    }

    /// Folds the log to its live set and rewrites it as one fresh
    /// segment (id `active + 1`, via `.tmp` + rename), then deletes the
    /// old segments. Crash-safe at every step: the compacted segment is
    /// *later* in the log, so last-write-wins replay of any surviving
    /// file combination reproduces the same state.
    ///
    /// The log is streamed twice — once to learn which write of each key
    /// is its last, once to copy exactly those records, in log order —
    /// so the pass holds an index of the live keys and two I/O buffers,
    /// never the log it is shrinking. It runs on a serving thread: what
    /// it allocates is the daemon's peak memory.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let bytes_before = self.bytes();
        let old = list_segments(&self.dir)?;
        let mut final_write: HashMap<u128, u64> = HashMap::with_capacity(self.live.len() + 1);
        let mut seq = 0;
        for (_, path) in &old {
            scan_segment(File::open(path)?, |op| {
                match op {
                    Op::Put(e) => final_write.insert(e.key, seq),
                    Op::Evict(key) => final_write.remove(&key),
                };
                seq += 1;
                Ok(())
            })?;
        }

        let next_id = self.active_id + 1;
        let final_path = self.dir.join(segment_file_name(next_id));
        let tmp_path = self.dir.join(format!("{}.tmp", segment_file_name(next_id)));
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        tmp.write_all(&segment_header())?;
        let mut seq = 0;
        for (_, path) in &old {
            scan_segment(File::open(path)?, |op| {
                // Never an `Evict`: only a `Put` leaves its position behind.
                if final_write.get(&op.key()) == Some(&seq) {
                    tmp.write_all(&encode_record(&op))?;
                }
                seq += 1;
                Ok(())
            })?;
        }
        tmp.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable before deleting the only other
        // copies of the data.
        File::open(&self.dir)?.sync_all()?;
        let mut segments_removed = 0;
        for (_, path) in &old {
            fs::remove_file(path)?;
            segments_removed += 1;
        }

        self.active = OpenOptions::new().read(true).write(true).open(&final_path)?;
        self.active_len = self.active.seek(SeekFrom::End(0))?;
        self.active_id = next_id;
        self.sealed_bytes = 0;
        self.live.clear();
        self.live.extend(final_write.keys());
        self.compactions += 1;
        Ok(CompactStats {
            live_entries: final_write.len() as u64,
            bytes_before,
            bytes_after: self.bytes(),
            segments_removed,
        })
    }

    /// Total on-disk bytes across every segment.
    pub fn bytes(&self) -> u64 {
        self.sealed_bytes + self.active_len
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of every segment file, in log (id) order.
    pub fn segment_paths(&self) -> io::Result<Vec<PathBuf>> {
        Ok(list_segments(&self.dir)?.into_iter().map(|(_, p)| p).collect())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.sealed_bytes += self.active_len;
        self.active_id += 1;
        let path = self.dir.join(segment_file_name(self.active_id));
        write_empty_segment(&path)?;
        self.active = OpenOptions::new().read(true).write(true).open(&path)?;
        self.active.seek(SeekFrom::End(0))?;
        self.active_len = HEADER_LEN as u64;
        Ok(())
    }
}

fn segment_file_name(id: u64) -> String {
    format!("seg-{id:016x}.log")
}

fn parse_segment_id(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for dirent in fs::read_dir(dir)? {
        let dirent = dirent?;
        if let Some(id) = parse_segment_id(&dirent.file_name().to_string_lossy()) {
            segments.push((id, dirent.path()));
        }
    }
    segments.sort_by_key(|(id, _)| *id);
    Ok(segments)
}

fn segment_header() -> [u8; HEADER_LEN] {
    let mut w = ByteWriter::with_capacity(HEADER_LEN);
    w.put_u32_le(SEGMENT_MAGIC);
    w.put_u8(SEGMENT_VERSION);
    let v = w.into_vec();
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&v);
    header
}

fn write_empty_segment(path: &Path) -> io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(&segment_header())?;
    file.sync_all()
}

/// FNV-1a over 64 bits — the per-record checksum.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn encode_record(op: &Op) -> Vec<u8> {
    let mut body = ByteWriter::with_capacity(PUT_BODY_LEN);
    match op {
        Op::Put(e) => {
            body.put_u8(OP_PUT);
            body.put_u64_le(e.key as u64);
            body.put_u64_le((e.key >> 64) as u64);
            body.put_f64_le(e.score);
            body.put_f64_le(e.variance);
            body.put_u64_le(e.rounds);
            body.put_u64_le(e.successes);
        }
        Op::Evict(key) => {
            body.put_u8(OP_EVICT);
            body.put_u64_le(*key as u64);
            body.put_u64_le((*key >> 64) as u64);
        }
    }
    let body = body.into_vec();
    let mut w = ByteWriter::with_capacity(4 + body.len() + 8);
    w.put_u32_le((body.len() + 8) as u32);
    w.put_slice(&body);
    w.put_u64_le(fnv1a_64(&body));
    w.into_vec()
}

fn decode_body(body: &[u8]) -> Option<Op> {
    // Little-endian 8-byte field `i` after the op byte; the lengths
    // matched below are what keep every index in range.
    let field = |i: usize| u64::from_le_bytes(body[1 + 8 * i..9 + 8 * i].try_into().unwrap());
    let key = || u128::from(field(0)) | (u128::from(field(1)) << 64);
    match (*body.first()?, body.len()) {
        (OP_PUT, PUT_BODY_LEN) => Some(Op::Put(Entry {
            key: key(),
            score: f64::from_bits(field(2)),
            variance: f64::from_bits(field(3)),
            rounds: field(4),
            successes: field(5),
        })),
        (OP_EVICT, EVICT_BODY_LEN) => Some(Op::Evict(key())),
        _ => None,
    }
}

/// `read_exact`, with the end of the file — clean or mid-record —
/// reported as `false` rather than as an error.
fn read_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Streams a segment's records to `visit` in log order until the first
/// torn / corrupt one and returns the bytes of valid prefix (less than the
/// file's length means corruption was hit). Corrupt data never fails the
/// scan, it just ends the valid prefix; an I/O error or `visit`'s does.
fn scan_segment(file: File, mut visit: impl FnMut(Op) -> io::Result<()>) -> io::Result<u64> {
    let mut reader = BufReader::new(file);
    let mut header = [0u8; HEADER_LEN];
    if !read_or_eof(&mut reader, &mut header)? || header != segment_header() {
        return Ok(0);
    }
    let mut valid_len = HEADER_LEN as u64;
    let mut record = Vec::new();
    loop {
        let mut frame = [0u8; 4];
        if !read_or_eof(&mut reader, &mut frame)? {
            break;
        }
        let len = u32::from_le_bytes(frame);
        if !(9..=MAX_RECORD_LEN).contains(&len) {
            break;
        }
        record.resize(len as usize, 0);
        if !read_or_eof(&mut reader, &mut record)? {
            break;
        }
        let (body, checksum) = record.split_at(len as usize - 8);
        if fnv1a_64(body) != u64::from_le_bytes(checksum.try_into().unwrap()) {
            break;
        }
        let Some(op) = decode_body(body) else {
            break;
        };
        visit(op)?;
        valid_len += 4 + u64::from(len);
    }
    Ok(valid_len)
}

fn fold_live(ops: &[Op]) -> Vec<Entry> {
    let mut live: HashMap<u128, (usize, Entry)> = HashMap::new();
    for (seq, op) in ops.iter().enumerate() {
        match op {
            Op::Put(e) => {
                live.insert(e.key, (seq, *e));
            }
            Op::Evict(key) => {
                live.remove(key);
            }
        }
    }
    let mut entries: Vec<(usize, Entry)> = live.into_values().collect();
    entries.sort_by_key(|(seq, _)| *seq);
    entries.into_iter().map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("recloud-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(key: u128, rounds: u64) -> Entry {
        Entry {
            key,
            score: 0.5 + (rounds as f64) * 1e-6,
            variance: 1e-4,
            rounds,
            successes: rounds / 2,
        }
    }

    #[test]
    fn record_sizes_are_pinned() {
        assert_eq!(encode_record(&Op::Put(entry(7, 10))).len() as u64, PUT_RECORD_LEN);
        assert_eq!(encode_record(&Op::Evict(7)).len() as u64, EVICT_RECORD_LEN);
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tempdir("roundtrip");
        let ops = vec![
            Op::Put(entry(1, 100)),
            Op::Put(entry(2, 200)),
            Op::Evict(1),
            Op::Put(entry(2, 300)),
        ];
        {
            let (mut store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
            assert!(recovery.ops.is_empty());
            for op in &ops {
                store.append(op).unwrap();
            }
        }
        let (store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovery.ops, ops);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.live_entries(), vec![entry(2, 300)]);
        assert_eq!(store.bytes(), HEADER_LEN as u64 + 3 * PUT_RECORD_LEN + EVICT_RECORD_LEN);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_the_log_over_segments() {
        let dir = tempdir("rotate");
        let config = StoreConfig {
            segment_max_bytes: HEADER_LEN as u64 + 2 * PUT_RECORD_LEN,
            ..StoreConfig::default()
        };
        let ops: Vec<Op> = (0..7).map(|i| Op::Put(entry(i, i as u64 * 10))).collect();
        {
            let (mut store, _) = Store::open(&dir, config).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
            assert_eq!(store.segment_paths().unwrap().len(), 4);
        }
        let (_, recovery) = Store::open(&dir, config).unwrap();
        assert_eq!(recovery.ops, ops);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let dir = tempdir("torn");
        let ops = vec![Op::Put(entry(1, 10)), Op::Put(entry(2, 20)), Op::Put(entry(3, 30))];
        let path = {
            let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
            store.segment_paths().unwrap()[0].clone()
        };
        // Cut the file mid-way through the third record.
        let full = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(full - 20).unwrap();
        let (mut store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovery.ops, ops[..2]);
        assert_eq!(recovery.truncated_bytes, PUT_RECORD_LEN - 20);
        // The store stays appendable after surgery.
        store.append(&Op::Put(entry(4, 40))).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovery.ops, vec![ops[0], ops[1], Op::Put(entry(4, 40))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_flip_drops_the_record_and_the_tail() {
        let dir = tempdir("flip");
        let ops = vec![Op::Put(entry(1, 10)), Op::Put(entry(2, 20)), Op::Put(entry(3, 30))];
        let path = {
            let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
            store.segment_paths().unwrap()[0].clone()
        };
        // Flip one bit inside the second record's body.
        let mut buf = fs::read(&path).unwrap();
        let offset = HEADER_LEN + PUT_RECORD_LEN as usize + 10;
        buf[offset] ^= 0x40;
        fs::write(&path, &buf).unwrap();
        let (_, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovery.ops, ops[..1]);
        assert_eq!(recovery.truncated_bytes, 2 * PUT_RECORD_LEN);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_middle_segment_drops_later_segments() {
        let dir = tempdir("midseg");
        let config = StoreConfig {
            segment_max_bytes: HEADER_LEN as u64 + 2 * PUT_RECORD_LEN,
            ..StoreConfig::default()
        };
        let ops: Vec<Op> = (0..6).map(|i| Op::Put(entry(i, i as u64))).collect();
        let paths = {
            let (mut store, _) = Store::open(&dir, config).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
            store.segment_paths().unwrap()
        };
        assert_eq!(paths.len(), 3);
        let mut buf = fs::read(&paths[1]).unwrap();
        let len = buf.len();
        buf[len - 1] ^= 0x01;
        fs::write(&paths[1], &buf).unwrap();
        let (store, recovery) = Store::open(&dir, config).unwrap();
        // Segment 0 fully, segment 1's first record, segment 2 deleted.
        assert_eq!(recovery.ops, ops[..3]);
        assert_eq!(recovery.segments_dropped, 1);
        assert_eq!(store.segment_paths().unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_superseded_and_evicted_keys() {
        let dir = tempdir("compact");
        let config = StoreConfig {
            segment_max_bytes: HEADER_LEN as u64 + 3 * PUT_RECORD_LEN,
            ..StoreConfig::default()
        };
        let (mut store, _) = Store::open(&dir, config).unwrap();
        for i in 0..4u128 {
            store.append(&Op::Put(entry(i, 1))).unwrap();
        }
        for i in 0..4u128 {
            store.append(&Op::Put(entry(i, 2))).unwrap();
        }
        store.append(&Op::Evict(0)).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_entries, 3);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        // Compacted state must replay identically.
        store.append(&Op::Put(entry(9, 9))).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir, config).unwrap();
        assert_eq!(
            recovery.live_entries(),
            vec![entry(1, 2), entry(2, 2), entry(3, 2), entry(9, 9)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_triggers_compaction_when_the_live_fraction_drops() {
        let dir = tempdir("autocompact");
        let config = StoreConfig {
            segment_max_bytes: 4 << 20,
            compact_min_bytes: HEADER_LEN as u64 + 8 * PUT_RECORD_LEN,
            compact_live_ratio: 0.5,
        };
        let (mut store, _) = Store::open(&dir, config).unwrap();
        // Supersede one key over and over: live stays at 1 entry while
        // the log grows, so the live fraction decays toward zero.
        for i in 0..16u64 {
            store.append(&Op::Put(entry(1, i))).unwrap();
        }
        assert!(store.compactions() >= 1, "auto-compaction never fired");
        assert_eq!(store.live_entries(), 1);
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        assert!(
            store.bytes() < config.compact_min_bytes,
            "compacted log holds one live record, got {} bytes",
            store.bytes()
        );
        // The compacted state replays the surviving entry.
        drop(store);
        let (store, recovery) = Store::open(&dir, config).unwrap();
        assert_eq!(recovery.live_entries(), vec![entry(1, 15)]);
        assert_eq!(store.live_entries(), 1, "recovery reseeds the live set");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_auto_compaction_never_fires() {
        let dir = tempdir("nocompact");
        let config = StoreConfig { compact_min_bytes: u64::MAX, ..StoreConfig::default() };
        let (mut store, _) = Store::open(&dir, config).unwrap();
        for i in 0..16u64 {
            store.append(&Op::Put(entry(1, i))).unwrap();
        }
        assert_eq!(store.compactions(), 0);
        assert_eq!(store.bytes(), HEADER_LEN as u64 + 16 * PUT_RECORD_LEN);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = tempdir("tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-0000000000000007.log.tmp"), b"half a compaction").unwrap();
        let (store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        assert!(!dir.join("seg-0000000000000007.log.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_yields_an_empty_but_usable_store() {
        let dir = tempdir("header");
        {
            let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
            store.append(&Op::Put(entry(1, 1))).unwrap();
        }
        let path = list_segments(&dir).unwrap()[0].1.clone();
        let mut buf = fs::read(&path).unwrap();
        buf[0] ^= 0xff;
        fs::write(&path, &buf).unwrap();
        let (mut store, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(recovery.ops.is_empty());
        assert_eq!(recovery.truncated_bytes, HEADER_LEN as u64 + PUT_RECORD_LEN);
        store.append(&Op::Put(entry(2, 2))).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(recovery.ops, vec![Op::Put(entry(2, 2))]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
