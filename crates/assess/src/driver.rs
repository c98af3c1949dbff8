//! The resumable chunk driver — one state machine under every
//! assessment path.
//!
//! The paper's estimator is inherently incremental: R and the
//! conservative CIW (Eqs 1–3) are running statistics updated per chunk,
//! and §3.2's sequential stopping idea only pays off when callers can
//! observe the estimate *while it converges*. [`AssessmentDriver`] owns
//! everything those statistics need — the chunk layout, the per-chunk
//! seed derivation ([`Assessor::chunk_seed`]), the estimator state, and
//! the rounds counter — and yields a [`PartialEstimate`] after every chunk
//! it is fed. The chunk's stage timings and trace span are the executing
//! engine's to record ([`Assessor`]).
//!
//! Three consumers drive it:
//!
//! - [`Assessor::drive`] (serial) pulls tasks one at a time and feeds
//!   each result back immediately;
//! - [`crate::parallel::ParallelAssessor::assess`] drains `next_task`
//!   into its task channel up front and feeds the workers' results back
//!   in whatever order they finish them — the estimate is
//!   a pure function of the (rounds, successes) totals, so arrival order
//!   is irrelevant and parallel results stay bit-identical to serial;
//! - the serving daemon's streaming path forwards each partial over RCS1
//!   and stops feeding when the client cancels.
//!
//! Feeding may stop early (target CIW reached, client cancelled); the
//! driver then reports `is_complete() == false` and its estimate covers
//! exactly the rounds fed so far.

use crate::assessor::Assessor;
use recloud_obs::Counter;
use recloud_sampling::{ReliabilityEstimate, ResultAccumulator};
use std::sync::Arc;

/// A snapshot of the running estimate, yielded after every fed chunk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartialEstimate {
    /// Chunk index that was just fed.
    pub chunk: u32,
    /// Total chunks in the layout.
    pub chunks_total: u32,
    /// Rounds accumulated so far (monotonically nondecreasing).
    pub rounds_done: u64,
    /// Rounds the full request would run.
    pub rounds_total: u64,
    /// Running reliability estimate R (Eq 1).
    pub r: f64,
    /// Running 95% confidence-interval width (Eq 3).
    pub ciw: f64,
    /// True when a configured CIW target has been reached by `ciw` and the
    /// Wilson width (`ciw` is 0 while no round failed) — the driver's own
    /// stopping rule; consumers may also stop for their own reasons.
    pub stop_hint: bool,
}

/// One chunk of work, ready to hand to an executor (serial `run_chunk`,
/// a parallel worker's task channel, a server worker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkTask {
    /// Chunk index within the layout.
    pub chunk: u32,
    /// Sampler seed for the chunk, derived from the master seed.
    pub seed: u64,
    /// Rounds in this chunk.
    pub rounds: usize,
}

/// The `assess.rounds_total` counter and the rounds fed since it was
/// last added to: published once when the drive ends
/// ([`AssessmentDriver::flush`], or the driver's drop).
struct DriverInstruments {
    rounds_total: Arc<Counter>,
    rounds_batch: u64,
}

impl DriverInstruments {
    fn from_global() -> Self {
        let rounds_total = recloud_obs::global().counter("assess.rounds_total");
        DriverInstruments { rounds_total, rounds_batch: 0 }
    }

    fn flush(&mut self) {
        if self.rounds_batch != 0 {
            self.rounds_total.add(std::mem::take(&mut self.rounds_batch));
        }
    }
}

impl Drop for DriverInstruments {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Resumable assessment state machine: hand out [`ChunkTask`]s, feed
/// back per-chunk `(rounds, successes)` results, read a
/// [`PartialEstimate`] after every feed.
///
/// Task hand-out and result feeding are decoupled on purpose: a serial
/// consumer interleaves them one chunk at a time, a parallel master
/// drains every task up front and feeds results out of order.
pub struct AssessmentDriver {
    layout: Vec<(u32, usize)>,
    master_seed: u64,
    target_ciw: Option<f64>,
    /// Cursor over `layout` for `next_task`.
    next: usize,
    /// Chunks fed back so far.
    fed: usize,
    acc: ResultAccumulator,
    rounds_total: u64,
    obs: DriverInstruments,
}

impl AssessmentDriver {
    /// Creates a driver over an [`Assessor::chunk_layout`] (chunk ids must
    /// be dense from zero — the layout's own invariant). A `target_ciw`
    /// arms the driver's stopping rule: partials report `stop_hint` once
    /// the running CIW₉₅ and the Wilson width both drop to the target.
    pub fn new(layout: Vec<(u32, usize)>, master_seed: u64, target_ciw: Option<f64>) -> Self {
        let rounds_total = layout.iter().map(|(_, n)| *n as u64).sum();
        AssessmentDriver {
            layout,
            master_seed,
            target_ciw,
            next: 0,
            fed: 0,
            acc: ResultAccumulator::new(),
            rounds_total,
            obs: DriverInstruments::from_global(),
        }
    }

    /// Starts the driver over for `rounds` rounds in chunks of
    /// `chunk_rounds` ([`Assessor::chunk_layout`]'s cut), in the memory and
    /// with the instrument handles it already has.
    pub(crate) fn restart(
        &mut self,
        chunk_rounds: usize,
        rounds: usize,
        master_seed: u64,
        target_ciw: Option<f64>,
    ) {
        Assessor::layout_into(chunk_rounds, rounds, &mut self.layout);
        (self.master_seed, self.target_ciw) = (master_seed, target_ciw);
        (self.next, self.fed) = (0, 0);
        self.acc = ResultAccumulator::new();
        self.rounds_total = rounds as u64;
    }

    /// Makes the chunks fed so far visible in the registry. A dropped
    /// driver does this by itself; one kept for the next drive is flushed
    /// by whoever keeps it.
    pub(crate) fn flush(&mut self) {
        self.obs.flush();
    }

    /// Next chunk of work, or `None` when every chunk has been handed out.
    pub fn next_task(&mut self) -> Option<ChunkTask> {
        let (chunk, rounds) = *self.layout.get(self.next)?;
        self.next += 1;
        Some(ChunkTask { chunk, seed: Assessor::chunk_seed(self.master_seed, chunk), rounds })
    }

    /// Feeds one chunk's result back and returns the updated running
    /// estimate. Chunks may arrive in any order; the estimate is a pure
    /// function of the accumulated totals.
    pub fn feed(&mut self, chunk: u32, rounds: u64, successes: u64) -> PartialEstimate {
        self.acc.push_batch(rounds, successes);
        self.fed += 1;
        self.obs.rounds_batch += rounds;
        let estimate = self.acc.estimate();
        let ciw = estimate.ciw95();
        let width = ciw.max(wilson_width95(estimate.rounds, estimate.successes));
        PartialEstimate {
            chunk,
            chunks_total: self.layout.len() as u32,
            rounds_done: self.acc.rounds(),
            rounds_total: self.rounds_total,
            r: estimate.score,
            ciw,
            stop_hint: self.target_ciw.is_some_and(|t| width <= t),
        }
    }

    /// The running estimate over every chunk fed so far.
    pub fn estimate(&self) -> ReliabilityEstimate {
        self.acc.estimate()
    }

    /// Rounds accumulated so far.
    pub fn rounds_done(&self) -> u64 {
        self.acc.rounds()
    }

    /// Rounds the full layout covers.
    pub fn rounds_total(&self) -> u64 {
        self.rounds_total
    }

    /// Number of chunks in the layout.
    pub fn chunks_total(&self) -> usize {
        self.layout.len()
    }

    /// True once every chunk in the layout has been fed back.
    pub fn is_complete(&self) -> bool {
        self.fed == self.layout.len()
    }
}

/// Width of the 95 % Wilson score interval for `successes` of `rounds`:
/// z²/(n + z²), about 3.84/n, when no round failed; a little under Eq 3's
/// once a few dozen have.
fn wilson_width95(rounds: u64, successes: u64) -> f64 {
    let (n, p, z) = (rounds as f64, successes as f64 / rounds as f64, 1.96);
    2.0 * z / (1.0 + z * z / n) * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(chunks: &[usize]) -> Vec<(u32, usize)> {
        chunks.iter().enumerate().map(|(i, &n)| (i as u32, n)).collect()
    }

    #[test]
    fn tasks_cover_the_layout_in_order_with_derived_seeds() {
        let mut d = AssessmentDriver::new(layout(&[100, 100, 50]), 42, None);
        assert_eq!(d.rounds_total(), 250);
        assert_eq!(d.chunks_total(), 3);
        let tasks: Vec<ChunkTask> = std::iter::from_fn(|| d.next_task()).collect();
        assert_eq!(tasks.len(), 3);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.chunk, i as u32);
            assert_eq!(t.seed, Assessor::chunk_seed(42, i as u32));
        }
        assert_eq!(tasks[2].rounds, 50);
        assert!(d.next_task().is_none(), "layout is exhausted");
    }

    #[test]
    fn partials_are_monotone_and_match_the_accumulated_totals() {
        let mut d = AssessmentDriver::new(layout(&[100, 100, 50]), 1, None);
        let p1 = d.feed(0, 100, 90);
        assert_eq!((p1.rounds_done, p1.rounds_total), (100, 250));
        assert!(!p1.stop_hint, "no target armed");
        let p2 = d.feed(2, 50, 50); // out of order on purpose
        assert_eq!(p2.rounds_done, 150);
        assert!(p2.rounds_done > p1.rounds_done);
        let p3 = d.feed(1, 100, 100);
        assert_eq!(p3.rounds_done, 250);
        assert!(d.is_complete());
        // The running estimate is the plain totals ratio (Eq 1).
        assert_eq!(d.estimate().successes, 240);
        assert_eq!(p3.r, 240.0 / 250.0);
        assert_eq!(p3.ciw, d.estimate().ciw95());
    }

    #[test]
    fn stop_hint_fires_exactly_when_the_target_is_reached() {
        // An all-successes stream has CIW 0 from the first chunk, which
        // proves nothing: it stops once the Wilson width, z²/(n + z²), is
        // down to the target.
        let mut d = AssessmentDriver::new(layout(&[10, 10_000, 10]), 1, Some(1e-3));
        let p = d.feed(0, 10, 10);
        assert_eq!(p.ciw, 0.0);
        assert!(!p.stop_hint, "10 rounds without a failure cannot satisfy a 1e-3 CIW");
        let p = d.feed(1, 10_000, 10_000);
        assert!(p.stop_hint, "3.84 / 10,014 <= 1e-3");
        assert!(!d.is_complete(), "stopping early leaves the layout unfinished");
        let wilson = wilson_width95(d.rounds_done(), d.rounds_done());
        assert!((wilson - 3.8416 / (10_010.0 + 3.8416)).abs() < 1e-15, "{wilson}");

        // A mixed stream only reaches a loose target once n is large.
        let mut d = AssessmentDriver::new(layout(&[10, 100_000]), 1, Some(0.01));
        let p = d.feed(0, 10, 9);
        assert!(!p.stop_hint, "10 rounds cannot satisfy a 1e-2 CIW");
        let p = d.feed(1, 100_000, 90_000);
        assert!(p.stop_hint, "ciw {} <= 0.01", p.ciw);
    }

    #[test]
    fn feed_order_does_not_change_the_estimate() {
        let chunks: Vec<(u32, u64, u64)> = (0..8).map(|i| (i, 1000, 990 - i as u64)).collect();
        let mut fwd = AssessmentDriver::new(layout(&[1000; 8]), 3, None);
        let mut rev = AssessmentDriver::new(layout(&[1000; 8]), 3, None);
        for &(c, r, s) in &chunks {
            fwd.feed(c, r, s);
        }
        for &(c, r, s) in chunks.iter().rev() {
            rev.feed(c, r, s);
        }
        assert_eq!(fwd.estimate().score.to_bits(), rev.estimate().score.to_bits());
        assert_eq!(fwd.estimate().variance.to_bits(), rev.estimate().variance.to_bits());
    }
}
