//! Property tests for store recovery: over random append sequences and
//! random crash/corruption points, replay must yield *exactly* the
//! longest valid prefix of the log — and never panic.
//!
//! The expected prefix is derived from the on-disk truth: after the
//! appends, the log is parsed (header + length-prefixed records) to map
//! every byte offset to the record it belongs to, so a torn tail or a
//! flipped bit has a deterministic expected outcome.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use recloud_sampling::proptest::{forall, Gen};
use recloud_sampling::{prop_assert, prop_assert_eq};
use recloud_store::{Entry, Op, Store, StoreConfig, HEADER_LEN, LOG_FILE};

fn tempdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("recloud-store-prop-{tag}-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn random_ops(g: &mut Gen, max: usize) -> Vec<Op> {
    g.vec_in(1..max, |g| {
        let key = u128::from(g.any_u64()) | (u128::from(g.u64_in(0..=7)) << 64);
        if g.usize_in(0..4) == 0 {
            Op::Evict(key)
        } else {
            let rounds = g.u64_in(1..=1_000_000);
            Op::Put(Entry {
                key,
                score: (rounds % 1000) as f64 / 1000.0,
                variance: (rounds % 97) as f64 * 1e-6,
                rounds,
                successes: rounds / 2,
            })
        }
    })
}

/// `(record start, record end)` for every record on disk, in log
/// order, parsed straight from the log file.
fn record_spans(path: &Path) -> Vec<(usize, usize)> {
    let buf = fs::read(path).unwrap();
    let mut spans = Vec::new();
    let mut pos = HEADER_LEN;
    while pos + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        assert!(pos + 4 + len <= buf.len(), "freshly written log is torn");
        spans.push((pos, pos + 4 + len));
        pos += 4 + len;
    }
    spans
}

fn write_log(dir: &Path, config: StoreConfig, ops: &[Op]) -> PathBuf {
    let (mut store, recovery) = Store::open(dir, config).unwrap();
    assert!(recovery.ops.is_empty());
    for op in ops {
        store.append(op).unwrap();
    }
    dir.join(LOG_FILE)
}

#[test]
fn torn_tail_recovers_exactly_the_contained_records() {
    forall("torn tail recovers longest valid prefix", |g| {
        let config = StoreConfig::default();
        let ops = random_ops(g, 40);
        let dir = tempdir("torn", g.seed());
        let path = write_log(&dir, config, &ops);
        let spans = record_spans(&path);

        // Cut the log at a uniformly random byte (possibly inside the
        // header, possibly a no-op cut at the full length).
        let full = fs::metadata(&path).unwrap().len() as usize;
        let cut = g.usize_in(0..full + 1);
        OpenOptions::new().write(true).open(&path).unwrap().set_len(cut as u64).unwrap();

        let expected: Vec<Op> = spans
            .iter()
            .zip(&ops)
            .filter(|((_, end), _)| cut >= HEADER_LEN && *end <= cut)
            .map(|(_, op)| *op)
            .collect();
        let (_, recovery) = Store::open(&dir, config).unwrap();
        prop_assert_eq!(recovery.ops, expected);
        fs::remove_dir_all(&dir).ok();
        Ok(())
    });
}

#[test]
fn bit_flip_recovers_exactly_the_records_before_it() {
    forall("bit flip recovers records strictly before it", |g| {
        let config = StoreConfig::default();
        let ops = random_ops(g, 40);
        let dir = tempdir("flip", g.seed());
        let path = write_log(&dir, config, &ops);
        let spans = record_spans(&path);

        // Flip one random bit anywhere in the log: header, length
        // prefix, body, or checksum are all fair game.
        let mut buf = fs::read(&path).unwrap();
        let offset = g.usize_in(0..buf.len());
        buf[offset] ^= 1 << g.usize_in(0..8);
        fs::write(&path, &buf).unwrap();

        // Expected: unless the flip hit the header, the records that
        // end at or before the flipped byte.
        let expected: Vec<Op> = spans
            .iter()
            .zip(&ops)
            .filter(|((_, end), _)| offset >= HEADER_LEN && *end <= offset)
            .map(|(_, op)| *op)
            .collect();
        let (_, recovery) = Store::open(&dir, config).unwrap();
        prop_assert_eq!(recovery.ops, expected);

        // Recovery is idempotent and the store stays appendable.
        let (mut store, again) = Store::open(&dir, config).unwrap();
        prop_assert_eq!(again.ops.len(), expected.len());
        prop_assert_eq!(again.truncated_bytes, 0);
        store.append(&Op::Evict(42)).map_err(|e| format!("append after recovery failed: {e}"))?;
        fs::remove_dir_all(&dir).ok();
        Ok(())
    });
}

#[test]
fn truncated_length_prefix_never_panics() {
    forall("truncated length prefix recovers cleanly", |g| {
        let config = StoreConfig::default();
        let ops = random_ops(g, 20);
        let dir = tempdir("lenprefix", g.seed());
        let path = write_log(&dir, config, &ops);
        let spans = record_spans(&path);

        // Cut 1..=3 bytes into a record's length prefix so the frame
        // header itself is torn.
        let victim = g.usize_in(0..spans.len());
        let (start, _) = spans[victim];
        let cut = start + g.usize_in(1..4);
        OpenOptions::new().write(true).open(&path).unwrap().set_len(cut as u64).unwrap();

        let (_, recovery) = Store::open(&dir, config).unwrap();
        prop_assert_eq!(recovery.ops, ops[..victim].to_vec());
        fs::remove_dir_all(&dir).ok();
        Ok(())
    });
}

#[test]
fn compaction_preserves_the_live_fold() {
    forall("compaction preserves last-write-wins fold", |g| {
        let config = StoreConfig::default();
        let ops = random_ops(g, 60);
        let dir = tempdir("compact", g.seed());
        let (mut store, _) = Store::open(&dir, config).unwrap();
        for op in &ops {
            store.append(op).unwrap();
        }
        let before = {
            let (_, r) = Store::open(&dir, config).unwrap();
            r.live_entries()
        };
        let bytes_before = store.bytes();
        store.compact().map_err(|e| format!("compact failed: {e}"))?;
        prop_assert!(store.bytes() <= bytes_before);
        prop_assert_eq!(store.bytes(), store.live_bytes());
        prop_assert_eq!(store.live_entries() as usize, before.len());
        drop(store);
        let (_, recovery) = Store::open(&dir, config).unwrap();
        prop_assert_eq!(recovery.live_entries(), before);
        prop_assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).ok();
        Ok(())
    });
}
