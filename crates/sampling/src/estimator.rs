//! Reliability estimation with rigorous error bounds (§3.2.2, Eqs 1–3).
//!
//! Route-and-check produces a result list `L = {d₁ … dₙ}` with `dᵢ = 1` when
//! the deployment plan survives round `i`. The reliability score is the
//! mean `R = Σdᵢ / n` (Eq 1); the variance of the estimate is conservatively
//! `V = Var[L] / n` (Eq 2 — conservative because dagger sampling's variance
//! reduction makes the true estimator variance smaller); and the 95%
//! confidence-interval width is `CIW = 4·√V` (Eq 3, the ±2σ band of the
//! normal limit given by the CLT).
//!
//! [`ResultAccumulator`] ingests per-round verdicts (optionally merged from
//! parallel workers) in O(1) memory via Welford-style moment tracking —
//! for 0/1 data, tracking the success count is exact and sufficient.

use crate::wide::WideWord;

/// Streaming accumulator over per-round 0/1 verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultAccumulator {
    rounds: u64,
    successes: u64,
}

impl ResultAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one round's verdict.
    #[inline]
    pub fn push(&mut self, reliable: bool) {
        self.rounds += 1;
        self.successes += reliable as u64;
    }

    /// Records one 256-round verdict wide word from the 256-lane
    /// route-and-check path: lane r of `mask` is round r's verdict, of
    /// which only the low `n` lanes are valid.
    ///
    /// # Panics
    /// Panics if `n > 256`.
    #[inline]
    pub fn push_wide(&mut self, mask: WideWord, n: u32) {
        assert!(n <= WideWord::LANES as u32, "a verdict wide word holds at most 256 rounds");
        let valid = WideWord::lane_mask(n as usize);
        self.rounds += n as u64;
        self.successes += (mask & valid).count_ones() as u64;
    }

    /// Records a pre-aggregated batch (what a parallel worker returns).
    pub fn push_batch(&mut self, rounds: u64, successes: u64) {
        assert!(successes <= rounds, "more successes than rounds");
        self.rounds += rounds;
        self.successes += successes;
    }

    /// Merges another accumulator (the MapReduce "reduce" step).
    pub fn merge(&mut self, other: &ResultAccumulator) {
        self.rounds += other.rounds;
        self.successes += other.successes;
    }

    /// Rounds ingested so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Successful rounds ingested so far.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Finalizes into an estimate.
    ///
    /// # Panics
    /// Panics if no rounds were ingested — a reliability score over zero
    /// rounds is meaningless and would hide a configuration bug.
    pub fn estimate(&self) -> ReliabilityEstimate {
        assert!(self.rounds > 0, "cannot estimate reliability from zero rounds");
        let n = self.rounds as f64;
        let r = self.successes as f64 / n;
        // For 0/1 data, Var[L] = mean(L²) − mean(L)² = r − r² = r(1 − r).
        // (Population variance, as in the paper's Eq 2.)
        let var_l = r * (1.0 - r);
        let v = var_l / n;
        ReliabilityEstimate {
            score: r,
            variance: v,
            rounds: self.rounds,
            successes: self.successes,
        }
    }
}

/// The 95 % Wilson score interval of a `score` measured over `rounds`
/// rounds, as (centre, half-width). Unlike Eq 3's interval it keeps a
/// width when no round failed: its lower end is then n/(n + z²), not 1.
pub fn wilson95(score: f64, rounds: u64) -> (f64, f64) {
    let (n, p, z) = (rounds as f64, score, 1.96);
    let d = 1.0 + z * z / n;
    let half = z / d * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt();
    ((p + z * z / (2.0 * n)) / d, half)
}

/// A finalized reliability assessment of one deployment plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliabilityEstimate {
    /// The reliability score `R` (Eq 1): estimated probability that at
    /// least K of N instances are alive (or that the application structure
    /// holds, for complex apps).
    pub score: f64,
    /// Conservative estimator variance `V = Var[L]/n` (Eq 2).
    pub variance: f64,
    /// Number of route-and-check rounds behind this estimate.
    pub rounds: u64,
    /// Number of surviving rounds.
    pub successes: u64,
}

impl ReliabilityEstimate {
    /// 95% confidence-interval width, `CIW = 4·√V` (Eq 3). The true score
    /// lies within `score ± CIW/2` with 95% confidence.
    pub fn ciw95(&self) -> f64 {
        4.0 * self.variance.sqrt()
    }

    /// Expected annual downtime implied by the score, in hours — the paper
    /// reports plans this way ("99.62% reliability, i.e. 33.3 hours of
    /// downtime per year").
    pub fn annual_downtime_hours(&self) -> f64 {
        (1.0 - self.score) * 365.25 * 24.0
    }

    /// "Number of nines" of the score (e.g. 0.999 → 3.0). Useful for the
    /// order-of-magnitude comparisons in §3.3.2.
    pub fn nines(&self) -> f64 {
        if self.score >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - self.score).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_is_mean_of_result_list() {
        let mut acc = ResultAccumulator::new();
        for i in 0..10 {
            acc.push(i < 9);
        }
        let est = acc.estimate();
        assert!((est.score - 0.9).abs() < 1e-12);
        assert_eq!(est.rounds, 10);
        assert_eq!(est.successes, 9);
    }

    #[test]
    fn variance_matches_closed_form() {
        // 9 ones and 1 zero: Var[L] = 0.9*0.1 = 0.09; V = 0.009.
        let mut acc = ResultAccumulator::new();
        acc.push_batch(10, 9);
        let est = acc.estimate();
        assert!((est.variance - 0.009).abs() < 1e-12);
        assert!((est.ciw95() - 4.0 * 0.009f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ciw_shrinks_like_inverse_sqrt_n() {
        let mut small = ResultAccumulator::new();
        small.push_batch(1_000, 999);
        let mut big = ResultAccumulator::new();
        big.push_batch(100_000, 99_900);
        // Same score (0.999), 100x rounds -> 10x smaller CIW.
        let ratio = small.estimate().ciw95() / big.estimate().ciw95();
        assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn push_wide_equals_bit_pushes() {
        let mask = WideWord([0xDEAD_BEEF_0123_4567, !0, 0, 0x8000_0000_0000_0001]);
        for n in [1u32, 63, 64, 65, 128, 255, 256] {
            let mut wide = ResultAccumulator::new();
            wide.push_wide(mask, n);
            let mut bits = ResultAccumulator::new();
            for r in 0..n as usize {
                bits.push((mask.word(r / 64) >> (r % 64)) & 1 == 1);
            }
            assert_eq!(wide, bits, "n={n}");
        }
        // Garbage above the valid lanes must not count.
        let mut acc = ResultAccumulator::new();
        acc.push_wide(WideWord::ONES, 70);
        assert_eq!(acc.rounds(), 70);
        assert_eq!(acc.successes(), 70);
    }

    #[test]
    #[should_panic(expected = "at most 256 rounds")]
    fn push_wide_rejects_oversized() {
        ResultAccumulator::new().push_wide(WideWord::ZERO, 257);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = ResultAccumulator::new();
        let mut b = ResultAccumulator::new();
        let mut whole = ResultAccumulator::new();
        for i in 0..100 {
            let ok = i % 7 != 0;
            if i < 50 {
                a.push(ok)
            } else {
                b.push(ok)
            }
            whole.push(ok);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn perfect_and_zero_scores() {
        let mut acc = ResultAccumulator::new();
        acc.push_batch(100, 100);
        let est = acc.estimate();
        assert_eq!(est.score, 1.0);
        assert_eq!(est.variance, 0.0);
        assert_eq!(est.ciw95(), 0.0);
        assert_eq!(est.nines(), f64::INFINITY);

        let mut acc = ResultAccumulator::new();
        acc.push_batch(100, 0);
        assert_eq!(acc.estimate().score, 0.0);
    }

    #[test]
    fn downtime_conversions_match_paper_examples() {
        // §4.2.2: 99.62% ≈ 33.3 h/yr, 99.97% ≈ 2.6 h/yr.
        let est = ReliabilityEstimate { score: 0.9962, variance: 0.0, rounds: 1, successes: 1 };
        assert!((est.annual_downtime_hours() - 33.3).abs() < 0.1);
        let est = ReliabilityEstimate { score: 0.9997, variance: 0.0, rounds: 1, successes: 1 };
        assert!((est.annual_downtime_hours() - 2.63).abs() < 0.05);
    }

    #[test]
    fn nines_reflects_order_of_magnitude() {
        let e1 = ReliabilityEstimate { score: 0.99, variance: 0.0, rounds: 1, successes: 1 };
        let e2 = ReliabilityEstimate { score: 0.999, variance: 0.0, rounds: 1, successes: 1 };
        assert!((e1.nines() - 2.0).abs() < 1e-9);
        assert!((e2.nines() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero rounds")]
    fn empty_estimate_panics() {
        ResultAccumulator::new().estimate();
    }

    #[test]
    #[should_panic(expected = "more successes than rounds")]
    fn bad_batch_panics() {
        ResultAccumulator::new().push_batch(5, 6);
    }
}
