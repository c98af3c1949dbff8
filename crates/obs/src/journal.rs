//! A fixed-capacity lock-free ring-buffer event journal.
//!
//! ## Semantics
//!
//! Writers claim a slot with one `fetch_add` on the head counter and
//! publish the event through a per-slot sequence word (a seqlock built
//! entirely from atomics — no `unsafe`): the writer stores the odd
//! "in-progress" sequence, writes the payload fields, then stores the
//! even "published" sequence with `Release`. Readers load the sequence
//! before and after copying the payload and discard the slot if either
//! load is odd or the two differ, so a torn read can never surface. The
//! record path takes no lock and performs no allocation.
//!
//! Event kinds are interned `&'static str` names: [`Journal::kind_id`]
//! registers a name once (under a lock, at setup time) and returns a
//! copyable [`KindId`]; [`Journal::record`] takes the id, keeping the
//! hot path lock-free. The ring keeps the newest `capacity` events;
//! older events are silently overwritten (wraparound is part of the
//! contract and property-tested).
//!
//! Timestamps are microseconds since the UNIX epoch, computed as a
//! `SystemTime` base captured at journal creation plus a monotonic
//! `Instant` offset — monotone within one journal and comparable
//! across journals in the same process (the server merges its private
//! journal with the global one).

use crate::{push_json_f64, push_json_str, thread_ordinal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default journal capacity (events); must be a power of two.
pub const DEFAULT_CAPACITY: usize = 4096;

/// An interned event-kind identifier; cheap to copy and pass around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindId(u32);

/// One published journal event, as returned by [`Journal::tail`].
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (0-based, monotone per journal).
    pub seq: u64,
    /// Microseconds since the UNIX epoch.
    pub ts_micros: u64,
    /// Recording thread's dense ordinal (see `thread_ordinal`).
    pub thread: u64,
    /// Event kind name (resolved from the interned id).
    pub kind: String,
    /// First integer payload field (kind-specific meaning).
    pub v0: u64,
    /// Second integer payload field.
    pub v1: u64,
    /// First float payload field (kind-specific meaning).
    pub f0: f64,
    /// Second float payload field.
    pub f1: f64,
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"seq\":{},\"ts_us\":{},\"thread\":{},\"kind\":",
            self.seq, self.ts_micros, self.thread
        ));
        push_json_str(&mut out, &self.kind);
        out.push_str(&format!(",\"v0\":{},\"v1\":{},\"f0\":", self.v0, self.v1));
        push_json_f64(&mut out, self.f0);
        out.push_str(",\"f1\":");
        push_json_f64(&mut out, self.f1);
        out.push('}');
        out
    }
}

/// One ring slot: a sequence word plus the payload, all atomics so the
/// seqlock protocol needs no `unsafe`. Sequence states for the event
/// with global index `i`: `2*i + 1` while being written, `2*i + 2`
/// once published (0 means "never written").
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    thread: AtomicU64,
    kind: AtomicU64,
    v0: AtomicU64,
    v1: AtomicU64,
    f0_bits: AtomicU64,
    f1_bits: AtomicU64,
}

/// A fixed-capacity lock-free ring buffer of structured events.
pub struct Journal {
    head: AtomicU64,
    slots: Box<[Slot]>,
    kinds: RwLock<Vec<&'static str>>,
    epoch_base_micros: u64,
    start: Instant,
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal holding the newest `capacity` events
    /// (rounded up to a power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let epoch_base_micros =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            kinds: RwLock::new(Vec::new()),
            epoch_base_micros,
            start: Instant::now(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of events ever recorded (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Interns an event-kind name, returning a copyable id. Safe to
    /// call repeatedly (idempotent); takes a lock, so do it at setup
    /// time and keep the id, not per event.
    pub fn kind_id(&self, name: &'static str) -> KindId {
        if let Some(i) = self.kinds.read().unwrap().iter().position(|k| *k == name) {
            return KindId(i as u32);
        }
        let mut kinds = self.kinds.write().unwrap();
        if let Some(i) = kinds.iter().position(|k| *k == name) {
            return KindId(i as u32);
        }
        kinds.push(name);
        KindId((kinds.len() - 1) as u32)
    }

    /// Records one event. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, kind: KindId, v0: u64, v1: u64, f0: f64, f1: f64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
        slot.seq.store(2 * i + 1, Ordering::Relaxed);
        // Keep the payload stores from reordering before the odd
        // ("write in progress") sequence store.
        std::sync::atomic::fence(Ordering::Release);
        let ts = self.epoch_base_micros + self.start.elapsed().as_micros() as u64;
        slot.ts.store(ts, Ordering::Relaxed);
        slot.thread.store(thread_ordinal(), Ordering::Relaxed);
        slot.kind.store(kind.0 as u64, Ordering::Relaxed);
        slot.v0.store(v0, Ordering::Relaxed);
        slot.v1.store(v1, Ordering::Relaxed);
        slot.f0_bits.store(f0.to_bits(), Ordering::Relaxed);
        slot.f1_bits.store(f1.to_bits(), Ordering::Relaxed);
        slot.seq.store(2 * i + 2, Ordering::Release);
    }

    /// Returns up to the newest `n` published events, oldest first.
    /// Slots being concurrently overwritten are skipped, never torn.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let kinds: Vec<&'static str> = self.kinds.read().unwrap().clone();
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub((n as u64).min(cap));
        let mut out = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            let slot = &self.slots[(i as usize) & (self.slots.len() - 1)];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != 2 * i + 2 {
                continue; // unpublished, in-progress, or already overwritten
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let thread = slot.thread.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let v0 = slot.v0.load(Ordering::Relaxed);
            let v1 = slot.v1.load(Ordering::Relaxed);
            let f0 = f64::from_bits(slot.f0_bits.load(Ordering::Relaxed));
            let f1 = f64::from_bits(slot.f1_bits.load(Ordering::Relaxed));
            // Keep the payload loads from reordering after the
            // validating sequence re-load.
            std::sync::atomic::fence(Ordering::Acquire);
            let seq_after = slot.seq.load(Ordering::Relaxed);
            if seq_after != seq_before {
                continue; // overwritten while reading
            }
            let kind = kinds
                .get(kind as usize)
                .map(|k| (*k).to_string())
                .unwrap_or_else(|| format!("kind#{kind}"));
            out.push(Event { seq: i, ts_micros: ts, thread, kind, v0, v1, f0, f1 });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_tails_in_order() {
        let j = Journal::with_capacity(16);
        let k = j.kind_id("test.alpha");
        for i in 0..5u64 {
            j.record(k, i, i * 10, i as f64 / 2.0, 0.0);
        }
        let events = j.tail(10);
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[4].seq, 4);
        assert_eq!(events[3].v0, 3);
        assert_eq!(events[3].v1, 30);
        assert_eq!(events[3].f0, 1.5);
        assert_eq!(events[3].kind, "test.alpha");
        assert!(events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn wraparound_keeps_the_newest_events() {
        let j = Journal::with_capacity(8);
        let k = j.kind_id("test.wrap");
        for i in 0..100u64 {
            j.record(k, i, 0, 0.0, 0.0);
        }
        let events = j.tail(usize::MAX);
        assert_eq!(events.len(), 8, "ring holds exactly capacity");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<_>>());
        let last3 = j.tail(3);
        assert_eq!(last3.iter().map(|e| e.v0).collect::<Vec<_>>(), vec![97, 98, 99]);
    }

    #[test]
    fn kind_interning_is_idempotent() {
        let j = Journal::with_capacity(8);
        let a = j.kind_id("a");
        let b = j.kind_id("b");
        assert_ne!(a, b);
        assert_eq!(a, j.kind_id("a"));
        j.record(b, 7, 0, 0.0, 0.0);
        assert_eq!(j.tail(1)[0].kind, "b");
    }

    #[test]
    fn concurrent_writers_never_tear_a_read() {
        let j = Journal::with_capacity(64);
        let k = j.kind_id("test.concurrent");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        // Payload invariant: v1 == v0 * 3, f0 == v0 as f64.
                        let v = t * 1_000_000 + i;
                        j.record(k, v, v * 3, v as f64, -1.0);
                    }
                });
            }
            let j = &j;
            scope.spawn(move || {
                for _ in 0..200 {
                    for e in j.tail(64) {
                        assert_eq!(e.v1, e.v0 * 3, "torn read");
                        assert_eq!(e.f0, e.v0 as f64, "torn read");
                        assert_eq!(e.f1, -1.0);
                    }
                }
            });
        });
        assert_eq!(j.recorded(), 20_000);
    }

    #[test]
    fn json_lines_export_is_one_object_per_line() {
        let j = Journal::with_capacity(8);
        j.record(j.kind_id("x"), 1, 2, 0.5, f64::NAN);
        let lines: Vec<String> = j.tail(8).iter().map(Event::to_json_line).collect();
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].contains('\n'));
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"kind\":\"x\""));
        assert!(lines[0].contains("\"f1\":null"), "NaN renders as null: {}", lines[0]);
    }
}
