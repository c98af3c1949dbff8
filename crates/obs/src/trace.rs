//! Always-on distributed tracing: fixed-capacity span storage plus the
//! thread-local propagation context that lets layers far below the
//! server (the assessment driver's chunk loop) attach spans to the
//! request that caused them.
//!
//! ## Span model
//!
//! A *trace* is identified by a nonzero `u64` chosen by the originator
//! (the client). Within a trace, spans form a tree: every span has a
//! `u32` id and a `parent` id, with `parent == 0` marking the root.
//! Span ids are allocated from a per-trace counter seeded with an
//! *id base* — the server allocates from base 0, a remote client from
//! [`CLIENT_ID_BASE`] — so two processes can contribute spans to the
//! same trace without coordinating. Timestamps are absolute
//! microseconds ([`now_us`]): a Unix-epoch anchor captured once per
//! process plus a monotonic `Instant`, which keeps intervals exact
//! within a process and comparable across processes on one machine.
//!
//! ## Capacity and sampling
//!
//! The tracer is "sampled always-on": every traced request records,
//! but storage is a fixed pool of [`MAX_TRACES`] slots with
//! [`MAX_SPANS`] preallocated span records each. Claiming a slot when
//! the pool is full evicts the oldest claim; spans past a slot's
//! capacity are dropped and counted ([`Tracer::spans`] reports the
//! drop count). The record path takes one `Mutex` lock and writes into
//! preallocated storage — no allocation, no syscalls.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Traces the pool can hold concurrently before evicting old claims.
pub const MAX_TRACES: usize = 32;
/// Spans one trace can hold; later spans are dropped and counted.
pub const MAX_SPANS: usize = 512;
/// Span-id base a remote client allocates from, disjoint from the
/// server's base 0 so both sides of a connection can extend one trace
/// without coordinating ids.
pub const CLIENT_ID_BASE: u32 = 1 << 20;

/// One completed (or still-open, `end_us == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace; never 0.
    pub id: u32,
    /// Parent span id; 0 marks a root span.
    pub parent: u32,
    /// Stage name, e.g. `"queue.wait"` or `"assess.chunk"`.
    pub kind: &'static str,
    /// Absolute start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Absolute end; 0 while the span is still open.
    pub end_us: u64,
    /// First kind-specific tag (e.g. rounds for `assess.chunk`).
    pub v0: u64,
    /// Second kind-specific tag (e.g. chunk index).
    pub v1: u64,
}

/// The propagation context a thread carries while working on behalf of
/// a traced request: which trace, and which span is the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The trace being extended.
    pub trace_id: u64,
    /// Span to parent new child spans under.
    pub span: u32,
}

thread_local! {
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
}

/// The span context the current thread is working under, if any.
#[inline]
pub fn current_span() -> Option<SpanCtx> {
    CURRENT.with(|c| c.get())
}

/// Runs `f` with `ctx` as the thread's current span context, restoring
/// the previous context afterwards (also on panic).
pub fn with_current_span<R>(ctx: SpanCtx, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SpanCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(ctx))));
    f()
}

fn clock() -> &'static (u64, Instant) {
    static CLOCK: OnceLock<(u64, Instant)> = OnceLock::new();
    CLOCK.get_or_init(|| {
        let base =
            SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_micros() as u64;
        (base, Instant::now())
    })
}

/// Absolute microseconds since the Unix epoch, monotone within the
/// process (epoch anchor captured once + `Instant` elapsed).
pub fn now_us() -> u64 {
    let &(base, t0) = clock();
    base + t0.elapsed().as_micros() as u64
}

struct TraceSlot {
    /// 0 = free.
    trace_id: u64,
    /// Claim order, for oldest-first eviction.
    claimed_seq: u64,
    next_id: u32,
    finished: bool,
    dropped: u64,
    spans: Vec<SpanRecord>,
}

struct TracerInner {
    slots: Vec<TraceSlot>,
    seq: u64,
    latest_finished: u64,
}

/// Fixed-capacity span storage shared by every layer in the process.
///
/// All methods are cheap no-ops when the trace id is 0 / unknown, so
/// untraced requests pay only a branch.
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with its whole span pool preallocated.
    pub fn new() -> Self {
        let slots = (0..MAX_TRACES)
            .map(|_| TraceSlot {
                trace_id: 0,
                claimed_seq: 0,
                next_id: 0,
                finished: false,
                dropped: 0,
                spans: Vec::with_capacity(MAX_SPANS),
            })
            .collect();
        Tracer { inner: Mutex::new(TracerInner { slots, seq: 0, latest_finished: 0 }) }
    }

    /// Claims (or re-finds) the slot for `trace_id`, evicting the
    /// oldest claim when the pool is full. Idempotent: a second `begin`
    /// for a live trace keeps the existing slot and its id counter, so
    /// in-process client+server pairs share one id sequence.
    pub fn begin(&self, trace_id: u64, id_base: u32) {
        if trace_id == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(slot) = inner.slots.iter_mut().find(|s| s.trace_id == trace_id) {
            slot.claimed_seq = seq;
            return;
        }
        let slot = match inner.slots.iter_mut().find(|s| s.trace_id == 0) {
            Some(free) => free,
            None => inner.slots.iter_mut().min_by_key(|s| s.claimed_seq).expect("pool not empty"),
        };
        slot.trace_id = trace_id;
        slot.claimed_seq = seq;
        slot.next_id = id_base;
        slot.finished = false;
        slot.dropped = 0;
        slot.spans.clear();
    }

    /// Opens a span under `parent` (0 = root) and returns its id, or 0
    /// when the trace is unknown or tracing is off.
    pub fn start(&self, trace_id: u64, parent: u32, kind: &'static str) -> u32 {
        self.push(trace_id, parent, kind, now_us(), 0, 0, 0)
    }

    /// Closes an open span, stamping its end time.
    pub fn end(&self, trace_id: u64, span: u32) {
        self.end_with(trace_id, span, None);
    }

    /// Closes an open span, optionally setting its `(v0, v1)` tags.
    pub fn end_with(&self, trace_id: u64, span: u32, tags: Option<(u64, u64)>) {
        if trace_id == 0 || span == 0 {
            return;
        }
        let end_us = now_us();
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.slots.iter_mut().find(|s| s.trace_id == trace_id) else {
            return;
        };
        // Open spans are recent; scan from the back.
        if let Some(s) = slot.spans.iter_mut().rev().find(|s| s.id == span) {
            s.end_us = end_us;
            if let Some((v0, v1)) = tags {
                s.v0 = v0;
                s.v1 = v1;
            }
        }
    }

    /// Records an already-completed span in one call (an engine's timed
    /// chunk measures first, records after). Returns the span id.
    pub fn record(
        &self,
        trace_id: u64,
        parent: u32,
        kind: &'static str,
        start_us: u64,
        end_us: u64,
        v0: u64,
        v1: u64,
    ) -> u32 {
        self.push(trace_id, parent, kind, start_us, end_us, v0, v1)
    }

    fn push(
        &self,
        trace_id: u64,
        parent: u32,
        kind: &'static str,
        start_us: u64,
        end_us: u64,
        v0: u64,
        v1: u64,
    ) -> u32 {
        if trace_id == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.slots.iter_mut().find(|s| s.trace_id == trace_id) else {
            return 0;
        };
        if slot.spans.len() == MAX_SPANS {
            slot.dropped += 1;
            return 0;
        }
        slot.next_id += 1;
        let id = slot.next_id;
        slot.spans.push(SpanRecord { id, parent, kind, start_us, end_us, v0, v1 });
        id
    }

    /// Merges externally recorded spans (a client's TraceUpload) into
    /// the trace, keeping their ids as sent. Ignores unknown traces.
    pub fn absorb(&self, trace_id: u64, spans: &[SpanRecord]) {
        if trace_id == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.slots.iter_mut().find(|s| s.trace_id == trace_id) else {
            return;
        };
        for &s in spans {
            if slot.spans.len() == MAX_SPANS {
                slot.dropped += 1;
            } else {
                slot.spans.push(s);
            }
        }
    }

    /// Marks the trace complete; it becomes the "latest finished" trace
    /// that [`Tracer::latest_finished`] reports.
    pub fn finish(&self, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(slot) = inner.slots.iter_mut().find(|s| s.trace_id == trace_id) {
            slot.finished = true;
            inner.latest_finished = trace_id;
        }
    }

    /// The spans of a trace (in record order) plus its drop count, or
    /// `None` if the trace is unknown (never begun, or evicted).
    pub fn spans(&self, trace_id: u64) -> Option<(Vec<SpanRecord>, u64)> {
        let inner = self.inner.lock().unwrap();
        let slot = inner.slots.iter().find(|s| s.trace_id == trace_id && trace_id != 0)?;
        Some((slot.spans.clone(), slot.dropped))
    }

    /// The most recently finished trace id, if any trace ever finished.
    pub fn latest_finished(&self) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        (inner.latest_finished != 0).then_some(inner.latest_finished)
    }
}

/// The process-wide tracer every layer records into.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Stage names the reproduction's own layers record, interned for free.
const KNOWN_KINDS: [&str; 11] = [
    "client.request",
    "client.connect",
    "client.partial",
    "server.request",
    "queue.wait",
    "cache.lookup",
    "worker.exec",
    "engine.reseed",
    "assess.chunk",
    "store.append",
    "partial.emit",
];

/// Maps a wire-carried stage name onto the `&'static str` a
/// [`SpanRecord`] holds. Known stage names cost nothing; unknown ones go
/// into a small bounded side table (leaked once each), and past that
/// bound they all collapse to `"other"` — a hostile uploader cannot grow
/// process memory one span kind at a time.
pub fn intern_kind(kind: &str) -> &'static str {
    if let Some(k) = KNOWN_KINDS.iter().find(|k| **k == kind) {
        return k;
    }
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut extra = EXTRA.lock().unwrap();
    if let Some(k) = extra.iter().find(|k| **k == kind) {
        return k;
    }
    if extra.len() >= 64 {
        return "other";
    }
    let leaked: &'static str = Box::leak(kind.to_string().into_boxed_str());
    extra.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_with_ids_from_the_base() {
        let t = Tracer::new();
        t.begin(7, 0);
        let root = t.start(7, 0, "server.request");
        assert_eq!(root, 1);
        let child = t.start(7, root, "queue.wait");
        assert_eq!(child, 2);
        t.end(7, child);
        t.end_with(7, root, Some((42, 0)));
        t.finish(7);
        let (spans, dropped) = t.spans(7).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, "server.request");
        assert_eq!(spans[0].v0, 42);
        assert!(spans[0].end_us >= spans[0].start_us);
        assert_eq!(spans[1].parent, root);
        assert!(spans[1].end_us != 0);
        assert_eq!(t.latest_finished(), Some(7));
    }

    #[test]
    fn begin_is_idempotent_and_shares_the_id_sequence() {
        let t = Tracer::new();
        t.begin(9, 0);
        let a = t.start(9, 0, "a");
        t.begin(9, CLIENT_ID_BASE); // in-process second party: base ignored
        let b = t.start(9, a, "b");
        assert_eq!(b, a + 1, "second begin must not reset the id counter");
    }

    #[test]
    fn full_pool_evicts_the_oldest_claim() {
        let t = Tracer::new();
        for id in 1..=(MAX_TRACES as u64 + 1) {
            t.begin(id, 0);
            t.start(id, 0, "root");
        }
        assert!(t.spans(1).is_none(), "oldest claim evicted");
        assert!(t.spans(2).is_some());
        assert!(t.spans(MAX_TRACES as u64 + 1).is_some());
    }

    #[test]
    fn span_overflow_is_dropped_and_counted() {
        let t = Tracer::new();
        t.begin(3, 0);
        for _ in 0..(MAX_SPANS + 5) {
            t.start(3, 0, "s");
        }
        let (spans, dropped) = t.spans(3).unwrap();
        assert_eq!(spans.len(), MAX_SPANS);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn absorb_merges_foreign_spans_verbatim() {
        let t = Tracer::new();
        t.begin(4, 0);
        let server_root = t.start(4, CLIENT_ID_BASE + 1, "server.request");
        t.end(4, server_root);
        let client = SpanRecord {
            id: CLIENT_ID_BASE + 1,
            parent: 0,
            kind: "client.request",
            start_us: 1,
            end_us: 2,
            v0: 0,
            v1: 0,
        };
        t.absorb(4, &[client]);
        let (spans, _) = t.spans(4).unwrap();
        assert!(spans.contains(&client));
        assert_eq!(spans[0].parent, CLIENT_ID_BASE + 1, "server root hangs off the client span");
    }

    #[test]
    fn unknown_and_zero_traces_are_cheap_no_ops() {
        let t = Tracer::new();
        assert_eq!(t.start(0, 0, "x"), 0);
        assert_eq!(t.start(99, 0, "x"), 0, "never begun");
        t.end(99, 1);
        t.finish(99);
        assert!(t.spans(99).is_none());
        assert_eq!(t.latest_finished(), None);
    }

    #[test]
    fn with_current_span_restores_on_exit() {
        assert_eq!(current_span(), None);
        let ctx = SpanCtx { trace_id: 5, span: 2 };
        with_current_span(ctx, || {
            assert_eq!(current_span(), Some(ctx));
            with_current_span(SpanCtx { trace_id: 5, span: 3 }, || {
                assert_eq!(current_span().unwrap().span, 3);
            });
            assert_eq!(current_span(), Some(ctx));
        });
        assert_eq!(current_span(), None);
    }

    #[test]
    fn intern_kind_reuses_known_and_repeated_names() {
        let a = intern_kind("queue.wait");
        assert_eq!(a, "queue.wait");
        let b = intern_kind(&String::from("custom.stage"));
        let c = intern_kind(&String::from("custom.stage"));
        assert_eq!(b, "custom.stage");
        assert!(std::ptr::eq(b, c), "repeated unknown names intern to one allocation");
    }

    #[test]
    fn now_us_is_monotone_and_epoch_anchored() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        // Sanity: after 2020-01-01 in microseconds.
        assert!(a > 1_577_836_800_000_000);
    }
}
