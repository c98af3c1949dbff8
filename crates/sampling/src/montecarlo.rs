//! Strawman Monte-Carlo sampler (§3.2.1).
//!
//! One uniform draw per component per round: if `r < p` the component is
//! failed in that round. This is the approach the state-of-the-art INDaaS
//! system uses, and the baseline that Figure 7 compares dagger sampling
//! against. With `C` components and `X` rounds it performs `C × X` draws,
//! which is what makes it "unsuitable ... especially in large data
//! centers". Like the dagger sampler, every component draws from its own
//! `derive_seed(seed, c)` stream.

use crate::rng::{derive_seed, Rng};
use crate::Sampler;

/// Monte-Carlo failure-state generator.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloSampler {
    seed: u64,
}

impl MonteCarloSampler {
    /// Creates a sampler with the given seed.
    pub fn seeded(seed: u64) -> Self {
        MonteCarloSampler { seed }
    }
}

impl Sampler for MonteCarloSampler {
    fn sample_row(&self, c: usize, p: f64, _s_max: usize, rounds: usize, row: &mut [u64]) {
        debug_assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        row.fill(0);
        if p <= 0.0 {
            return;
        }
        let mut rng = Rng::new(derive_seed(self.seed, c as u64));
        for round in 0..rounds {
            if rng.next_f64() < p {
                row[round / 64] |= 1u64 << (round % 64);
            }
        }
    }

    fn name(&self) -> &'static str {
        "monte-carlo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BitMatrix;

    #[test]
    fn zero_probability_never_fails() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(1, 10_000);
        s.sample_into(&[0.0], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn unit_probability_always_fails() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(1, 1_000);
        s.sample_into(&[1.0], &mut m);
        assert_eq!(m.total_failures(), 1_000);
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let mut s = MonteCarloSampler::seeded(99);
        let mut m = BitMatrix::new(2, 100_000);
        s.sample_into(&[0.01, 0.25], &mut m);
        let f0 = m.row(0).count_ones() as f64 / 100_000.0;
        let f1 = m.row(1).count_ones() as f64 / 100_000.0;
        assert!((f0 - 0.01).abs() < 0.002, "f0={f0}");
        assert!((f1 - 0.25).abs() < 0.01, "f1={f1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut m1 = BitMatrix::new(3, 512);
        let mut m2 = BitMatrix::new(3, 512);
        MonteCarloSampler::seeded(5).sample_into(&[0.1, 0.5, 0.9], &mut m1);
        MonteCarloSampler::seeded(5).sample_into(&[0.1, 0.5, 0.9], &mut m2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn resampling_overwrites_previous_states() {
        let mut s = MonteCarloSampler::seeded(7);
        let mut m = BitMatrix::new(1, 1_000);
        s.sample_into(&[1.0], &mut m);
        s.sample_into(&[0.0], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    #[should_panic(expected = "component count")]
    fn shape_mismatch_panics() {
        let mut s = MonteCarloSampler::seeded(1);
        let mut m = BitMatrix::new(2, 10);
        s.sample_into(&[0.5], &mut m);
    }
}
