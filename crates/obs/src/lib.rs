//! `recloud-obs`: always-on observability for the reCloud reproduction.
//!
//! Hand-rolled and std-only (consistent with the hermetic guard), this
//! crate provides three instruments plus the plumbing around them:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — sharded
//!   atomic counters, signed gauges, and fixed 64-bucket power-of-two
//!   latency histograms with p50/p90/p99/max readout. Every record path
//!   is lock-free and allocation-free so the instruments can stay on in
//!   the bit-sliced assessment hot path.
//! * **Journal** ([`Journal`]) — a fixed-capacity lock-free ring buffer
//!   of structured events (seqlock-validated slots, no `unsafe`), each
//!   rendered as one JSON line ([`Event::to_json_line`]) for post-mortem
//!   debugging of the daemon.
//! * **Traces** ([`trace::Tracer`]) — per-request causal span trees
//!   over fixed-capacity preallocated storage, propagated across
//!   layers via a thread-local [`trace::SpanCtx`] and across the wire
//!   via the RCS1 trace-context frame.
//!
//! Instruments live in a [`Registry`] keyed by name. Library layers
//! (assess, search) record into the process-wide [`global()`] registry;
//! the serving daemon owns a private registry per server instance so
//! tests can assert exact counter deltas. Snapshots of both merge into
//! one [`MetricsSnapshot`] for the RCS1 `MetricsDump` frame.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod journal;
mod metrics;
mod registry;
pub mod trace;

pub use journal::{Event, Journal, KindId};
pub use metrics::{bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{global, MetricsSnapshot, Registry};
pub use trace::{
    current_span, intern_kind, tracer, with_current_span, SpanCtx, SpanRecord, Tracer,
};

use std::sync::atomic::{AtomicU64, Ordering};

/// A small dense per-thread ordinal (0, 1, 2, ...) used to tag journal
/// events and pick counter shards. Unlike `std::thread::ThreadId`, it is
/// stable, compact, and available on stable Rust.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Append a JSON string literal (with escaping) to `out`.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render an `f64` the way the rest of the repo's hand-rolled JSON does:
/// finite values via `{:?}` (shortest round-trip), non-finite as `null`.
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ordinals_are_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal(), "stable within a thread");
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(mine, other);
    }

    #[test]
    fn json_string_escaping_covers_control_characters() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
