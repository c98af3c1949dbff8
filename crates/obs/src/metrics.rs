//! Lock-free, allocation-free metric instruments: sharded counters,
//! signed gauges, and fixed 64-bucket power-of-two histograms.
//!
//! ## Histogram bucket math
//!
//! Bucket `b` covers values `v` with `floor(log2(v)) == b`, i.e. the
//! half-open range `[2^b, 2^(b+1))`; zero is folded into bucket 0, so
//! bucket 0 covers `{0, 1}`. With 64 buckets the full `u64` range is
//! covered (`u64::MAX` lands in bucket 63). Quantiles are read out by
//! walking the cumulative bucket counts and reporting the bucket's
//! upper bound, clamped to the exact tracked maximum — a ≤2× relative
//! error bound, which is plenty for latency percentiles while keeping
//! the record path at two relaxed atomic RMWs plus a `fetch_max`.

use crate::thread_ordinal;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of counter shards; a small power of two so the shard pick is
/// a mask. Sized to cover the worker counts used by the daemon/benches
/// without making snapshots scan a large array.
const SHARDS: usize = 8;

/// A cache-line-padded atomic cell, so two shards never share a line.
#[derive(Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded per thread to avoid
/// cross-core cache-line bouncing on hot increments.
///
/// `add`/`inc` are lock-free and allocation-free (one relaxed
/// `fetch_add` on the caller's shard); `value()` sums the shards.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        let shard = (thread_ordinal() as usize) & (SHARDS - 1);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed gauge (set/add semantics), e.g. queue depth or cache bytes.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per `floor(log2(v))` for `v: u64`.
pub const BUCKETS: usize = 64;

/// Bucket index for a recorded value: `floor(log2(v))`, with 0 mapped
/// into bucket 0 (so bucket 0 holds `{0, 1}`).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b`: `2^(b+1) - 1` (saturating to
/// `u64::MAX` for bucket 63).
#[inline]
pub fn bucket_upper_bound(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

/// A fixed-layout log-bucketed histogram (HDR-style): 64 power-of-two
/// buckets plus exact count/sum/max, all relaxed atomics.
///
/// `record` is lock-free and allocation-free; snapshots are taken by
/// reading the buckets (racy reads are acceptable for monitoring — the
/// snapshot is a consistent-enough view, never torn per-cell).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An owned, immutable view of a [`Histogram`] with quantile readout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping add on overflow).
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Per-bucket counts; bucket `b` covers `[2^b, 2^(b+1))`.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { count: 0, sum: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Quantile readout: the upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q * count)`, clamped to the exact
    /// tracked maximum. Returns 0 for an empty histogram. Monotone in
    /// `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1).min(self.count);
        let mut cumulative = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= rank {
                return bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Renders the snapshot as a JSON object with sparse buckets
    /// (`[[bucket, count], ...]` — only non-zero buckets appear).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        ));
        let mut first = true;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{b},{c}]"));
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(42);
        g.add(-2);
        assert_eq!(g.value(), 40);
    }

    #[test]
    fn bucket_of_matches_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        for b in 0..BUCKETS {
            let lo = if b == 0 { 0 } else { 1u64 << b };
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(bucket_upper_bound(b)), b);
        }
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // True p50 is 500 (bucket 8, range 256..512 has upper bound
        // 511); the readout must be >= the true quantile and <= 2x it.
        let p50 = s.p50();
        assert!((500..=1000).contains(&p50), "p50 readout {p50}");
        assert!(s.p90() >= s.p50());
        assert!(s.p99() >= s.p90());
        assert!(s.quantile(1.0) == s.max, "p100 is the exact max");
        assert_eq!(s.mean(), 500.5);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_merge_is_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(300);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 300);
        assert_eq!(s.buckets[bucket_of(3)], 1);
        assert_eq!(s.buckets[bucket_of(300)], 1);
    }

    #[test]
    fn histogram_json_is_sparse_and_balanced() {
        let h = Histogram::new();
        h.record(5);
        h.record(5);
        let j = h.snapshot().to_json();
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("[2,2]"), "bucket 2 holds both fives: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
