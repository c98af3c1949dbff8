//! Append-only, crash-safe spill log for `fingerprint → assessment`
//! entries — the durable half of the server's result cache.
//!
//! # On-disk format
//!
//! A store is one log file, [`LOG_FILE`], in its directory. The log
//! starts with a 5-byte header and is followed by length-prefixed
//! records, all encoded with the project's own wire codec
//! ([`recloud_sampling::wire`], little-endian):
//!
//! ```text
//! log      := magic:u32 (0x5243_534C) version:u8 (1) record*
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
//! The log is recovered, never validated: [`Store::open`] scans it and
//! replays every record up to — exactly — the longest valid prefix. The
//! first torn, truncated, or checksum-corrupt record ends the log: the
//! file is truncated to the bytes before it. Recovery never fails on
//! corrupt data and never panics; a store that lost its tail simply
//! remembers fewer entries.
//!
//! Replay semantics are last-write-wins: a later `Put` for the same
//! key supersedes an earlier one, an `Evict` drops the key.
//!
//! # Compaction
//!
//! [`Store::compact`] folds the log to its live set (dropping
//! superseded `Put`s and everything evicted), writes the survivors to
//! `<log>.tmp`, syncs it, renames it over the log and syncs the
//! directory. A crash before the rename leaves the old log and a stale
//! `.tmp`, which [`Store::open`] deletes; a crash after it leaves either
//! file under the log's name, and both replay to the same live set.
//!
//! Compaction is *size-triggered*: the store tracks its live key set
//! (`Put` inserts, `Evict` removes — exact, since records have fixed
//! sizes) and [`Store::append`] runs a compaction automatically once
//! the log holds at least [`StoreConfig::compact_min_bytes`] and the
//! live fraction drops below [`StoreConfig::compact_live_ratio`].
//! [`Store::compactions`] counts the passes for the server's
//! `store.compactions_total` counter.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use recloud_sampling::wire::ByteWriter;

/// Name of the log file inside a store directory.
pub const LOG_FILE: &str = "store.log";
/// Magic value opening the log (`"RCSL"` read as LE bytes).
pub const LOG_MAGIC: u32 = 0x5243_534C;
/// Current log format version.
pub const LOG_VERSION: u8 = 1;
/// Bytes of log header: magic + version.
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
        StoreConfig { compact_min_bytes: 64 << 10, compact_live_ratio: 0.5 }
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in log order; fold with last-write-wins.
    pub ops: Vec<Op>,
    /// Bytes cut from the log's tail (torn tail, bad checksum, bad
    /// header …).
    pub truncated_bytes: u64,
}

impl Recovery {
    /// Folds the op stream to its live set (last-write-wins), returning
    /// the entries in the order of their final write.
    pub fn live_entries(&self) -> Vec<Entry> {
        fold_live(&self.ops)
    }
}

/// An open append-only result store: one log file in one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    /// The log, opened for appending.
    log: File,
    len: u64,
    /// Keys currently live (puts minus evicts) — exact, maintained on
    /// every append and rebuilt by recovery/compaction.
    live: HashSet<u128>,
    compactions: u64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`, recovering the
    /// longest valid prefix of the log. A corrupt tail is truncated on
    /// disk and leftover `.tmp` files from an interrupted compaction
    /// removed.
    pub fn open(dir: &Path, config: StoreConfig) -> io::Result<(Store, Recovery)> {
        fs::create_dir_all(dir)?;
        for dirent in fs::read_dir(dir)? {
            let dirent = dirent?;
            if dirent.file_name().to_string_lossy().ends_with(".tmp") {
                fs::remove_file(dirent.path())?;
            }
        }

        let log =
            OpenOptions::new().read(true).append(true).create(true).open(dir.join(LOG_FILE))?;
        let file_len = log.metadata()?.len();
        let mut recovery = Recovery::default();
        let mut len = scan_log(&log, |op| {
            recovery.ops.push(op);
            Ok(())
        })?;
        recovery.truncated_bytes = file_len - len;
        if len < file_len {
            log.set_len(len)?;
        }
        if len == 0 {
            // A new log, or its header was part of the corrupt prefix:
            // start it over so appends land in a well-formed file.
            (&log).write_all(&log_header())?;
            log.sync_all()?;
            len = HEADER_LEN as u64;
        }
        let mut live = HashSet::new();
        for op in &recovery.ops {
            apply(&mut live, op);
        }
        let store = Store { dir: dir.to_path_buf(), config, log, len, live, compactions: 0 };
        Ok((store, recovery))
    }

    /// Appends one operation, running a size-triggered compaction when
    /// the live fraction of the log drops below
    /// [`StoreConfig::compact_live_ratio`]. Returns the framed bytes
    /// written.
    pub fn append(&mut self, op: &Op) -> io::Result<u64> {
        let record = encode_record(op);
        self.log.write_all(&record)?;
        self.len += record.len() as u64;
        apply(&mut self.live, op);
        if self.should_compact() {
            self.compact()?;
        }
        Ok(record.len() as u64)
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
    /// internally; the server consults it once after replaying the log
    /// at bind, the one state no append revisits.
    pub fn should_compact(&self) -> bool {
        let total = self.bytes();
        total >= self.config.compact_min_bytes
            && (self.live_bytes() as f64) < self.config.compact_live_ratio * total as f64
    }

    /// Folds the log to its live set and rewrites it: the survivors go
    /// to `<log>.tmp`, which is synced, renamed over the log, and made
    /// durable by syncing the directory. Until that rename the old log
    /// is untouched; after it, the old and the new file replay to the
    /// same live set.
    ///
    /// The log is streamed twice — once to learn which write of each key
    /// is its last, once to copy exactly those records, in log order —
    /// so the pass holds an index of the live keys and two I/O buffers,
    /// never the log it is shrinking. It runs on a serving thread: what
    /// it allocates is the daemon's peak memory.
    pub fn compact(&mut self) -> io::Result<()> {
        let path = self.dir.join(LOG_FILE);
        let mut final_write: HashMap<u128, u64> = HashMap::with_capacity(self.live.len() + 1);
        let mut seq = 0;
        scan_log(&File::open(&path)?, |op| {
            match op {
                Op::Put(e) => final_write.insert(e.key, seq),
                Op::Evict(key) => final_write.remove(&key),
            };
            seq += 1;
            Ok(())
        })?;

        let tmp_path = path.with_extension("log.tmp");
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        tmp.write_all(&log_header())?;
        let mut seq = 0;
        scan_log(&File::open(&path)?, |op| {
            // Never an `Evict`: only a `Put` leaves its position behind.
            if final_write.get(&op.key()) == Some(&seq) {
                tmp.write_all(&encode_record(&op))?;
            }
            seq += 1;
            Ok(())
        })?;
        tmp.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&tmp_path, &path)?;
        File::open(&self.dir)?.sync_all()?;

        self.log = OpenOptions::new().append(true).open(&path)?;
        self.len = self.log.metadata()?.len();
        self.live.clear();
        self.live.extend(final_write.keys());
        self.compactions += 1;
        Ok(())
    }

    /// On-disk bytes of the log.
    pub fn bytes(&self) -> u64 {
        self.len
    }
}

/// Applies one operation to a live key set.
fn apply(live: &mut HashSet<u128>, op: &Op) {
    match op {
        Op::Put(e) => {
            live.insert(e.key);
        }
        Op::Evict(key) => {
            live.remove(key);
        }
    }
}

fn log_header() -> [u8; HEADER_LEN] {
    let mut w = ByteWriter::with_capacity(HEADER_LEN);
    w.put_u32_le(LOG_MAGIC);
    w.put_u8(LOG_VERSION);
    let v = w.into_vec();
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&v);
    header
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

/// Streams the log's records to `visit` in log order until the first
/// torn / corrupt one and returns the bytes of valid prefix (less than the
/// file's length means corruption was hit). Corrupt data never fails the
/// scan, it just ends the valid prefix; an I/O error or `visit`'s does.
fn scan_log(file: &File, mut visit: impl FnMut(Op) -> io::Result<()>) -> io::Result<u64> {
    let mut reader = BufReader::new(file);
    let mut header = [0u8; HEADER_LEN];
    if !read_or_eof(&mut reader, &mut header)? || header != log_header() {
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

    /// Files in a store directory: the log, and nothing else.
    fn files_in(dir: &Path) -> usize {
        fs::read_dir(dir).unwrap().count()
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
    fn torn_tail_recovers_the_prefix() {
        let dir = tempdir("torn");
        let ops = vec![Op::Put(entry(1, 10)), Op::Put(entry(2, 20)), Op::Put(entry(3, 30))];
        {
            let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
        }
        let path = dir.join(LOG_FILE);
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
        {
            let (mut store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
            for op in &ops {
                store.append(op).unwrap();
            }
        }
        let path = dir.join(LOG_FILE);
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
    fn compaction_drops_superseded_and_evicted_keys() {
        let dir = tempdir("compact");
        let config = StoreConfig::default();
        let (mut store, _) = Store::open(&dir, config).unwrap();
        for i in 0..4u128 {
            store.append(&Op::Put(entry(i, 1))).unwrap();
        }
        for i in 0..4u128 {
            store.append(&Op::Put(entry(i, 2))).unwrap();
        }
        store.append(&Op::Evict(0)).unwrap();
        let bytes_before = store.bytes();
        store.compact().unwrap();
        assert_eq!(store.live_entries(), 3);
        assert!(store.bytes() < bytes_before);
        assert_eq!(store.bytes(), store.live_bytes());
        assert_eq!(files_in(&dir), 1);
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
        assert_eq!(files_in(&dir), 1);
        assert!(
            store.bytes() < config.compact_min_bytes,
            "compacted log holds one live record, got {} bytes",
            store.bytes()
        );
        // A manual pass on top, then a reopen: still one file, and the
        // compacted state replays the surviving entry.
        store.compact().unwrap();
        drop(store);
        let (store, recovery) = Store::open(&dir, config).unwrap();
        assert_eq!(recovery.live_entries(), vec![entry(1, 15)]);
        assert_eq!(store.live_entries(), 1, "recovery reseeds the live set");
        assert_eq!(files_in(&dir), 1);
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
        let (_store, _) = Store::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(files_in(&dir), 1);
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
        let path = dir.join(LOG_FILE);
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
