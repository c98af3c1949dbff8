//! Extended dagger sampling (§3.2.2, Fig 4).
//!
//! A real data center mixes components with different failure probabilities
//! and therefore different dagger cycle lengths. The extension (following
//! Rios et al. [63], as the paper does) runs the *original* dagger sampler
//! independently per component, concatenating each component's cycles, and
//! **resets every component's cycle at the end of the longest dagger
//! cycle** `s_max = max_i ⌊1/p_i⌋`. Cycles cut off by the reset are simply
//! truncated; a failure drawn into a discarded round is dropped. Every
//! surviving round is still covered by exactly one subinterval of mass
//! `p_i`, so the per-round failure fraction remains `p_i` — no bias.
//!
//! "Independently per component" is taken literally: component `c` draws
//! from its own stream `derive_seed(seed, c)`, so its row does not depend
//! on which other components are sampled, nor on how many rounds beyond
//! its own are asked for (see [`Sampler::sample_row`]). A row is generated
//! macro-cycle by macro-cycle; callers that want to bound memory sample
//! one macro-cycle-aligned block at a time (see
//! [`ExtendedDaggerSampler::macro_cycle`]).

use crate::dagger::DaggerCycle;
use crate::rng::{derive_seed, Rng};
use crate::Sampler;

/// Extended dagger failure-state generator.
#[derive(Clone, Copy, Debug)]
pub struct ExtendedDaggerSampler {
    seed: u64,
}

impl ExtendedDaggerSampler {
    /// Creates a sampler with the given seed.
    pub fn seeded(seed: u64) -> Self {
        ExtendedDaggerSampler { seed }
    }

    /// The macro-cycle length for a probability vector: the longest dagger
    /// cycle among components that can fail. Returns 1 if nothing can fail.
    pub fn macro_cycle(probs: &[f64]) -> usize {
        probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| DaggerCycle::new(p).s as usize)
            .max()
            .unwrap_or(1)
    }

    /// Expected number of uniform draws per component per round — the
    /// efficiency headline of Fig 7. For Monte-Carlo this is 1.0.
    pub fn draws_per_component_round(probs: &[f64]) -> f64 {
        let s_max = Self::macro_cycle(probs) as f64;
        if probs.is_empty() {
            return 0.0;
        }
        let total: f64 = probs
            .iter()
            .map(|&p| {
                if p <= 0.0 {
                    0.0
                } else {
                    let s = DaggerCycle::new(p).s as f64;
                    (s_max / s).ceil() / s_max
                }
            })
            .sum();
        total / probs.len() as f64
    }
}

impl Sampler for ExtendedDaggerSampler {
    fn sample_row(&self, c: usize, p: f64, s_max: usize, rounds: usize, row: &mut [u64]) {
        debug_assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        row.fill(0);
        if p <= 0.0 {
            return;
        }
        let mut rng = Rng::new(derive_seed(self.seed, c as u64));
        let cycle = DaggerCycle::new(p);
        let s = cycle.s as usize;
        let mut block_start = 0;
        while block_start < rounds {
            // One macro-cycle: this component's own cycles, truncated at
            // s_max (and at the row end).
            let block_len = s_max.min(rounds - block_start);
            let mut sub_start = 0;
            while sub_start < block_len {
                let sub_len = s.min(block_len - sub_start);
                if let Some(offset) = cycle.draw(&mut rng) {
                    if (offset as usize) < sub_len {
                        let round = block_start + sub_start + offset as usize;
                        row[round / 64] |= 1u64 << (round % 64);
                    }
                    // Failures drawn past the truncation are discarded
                    // rounds (Fig 4), intentionally dropped.
                }
                sub_start += s;
            }
            block_start += s_max;
        }
    }

    fn name(&self) -> &'static str {
        "dagger"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::BitMatrix;

    #[test]
    fn macro_cycle_is_longest_cycle() {
        // p = 0.008 -> s = 125; p = 0.01 -> s = 100; p = 0.3 -> s = 3.
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.01, 0.008, 0.3]), 125);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.5]), 2);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.0]), 1);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[]), 1);
    }

    #[test]
    fn at_most_one_failure_per_own_cycle() {
        // Dagger property: within any aligned own-cycle window the
        // component fails at most once.
        let p = 0.2; // s = 5
        let mut sampler = ExtendedDaggerSampler::seeded(3);
        let mut m = BitMatrix::new(1, 10_000);
        sampler.sample_into(&[p], &mut m);
        let row = m.row(0);
        for w in (0..10_000).step_by(5) {
            let fails: usize = (w..(w + 5).min(10_000)).filter(|&r| row.get(r)).count();
            assert!(fails <= 1, "window at {w} had {fails} failures");
        }
    }

    #[test]
    fn single_component_rate_is_p() {
        let mut sampler = ExtendedDaggerSampler::seeded(4);
        let mut m = BitMatrix::new(1, 500_000);
        sampler.sample_into(&[0.01], &mut m);
        let frac = m.row(0).count_ones() as f64 / 500_000.0;
        assert!((frac - 0.01).abs() < 0.001, "rate {frac}");
    }

    #[test]
    fn mixed_probabilities_stay_unbiased_under_truncation() {
        // Components with s = 100 and s = 125: the s = 100 component gets
        // truncated at every macro boundary; its rate must remain p.
        let probs = [0.01, 0.008];
        let mut sampler = ExtendedDaggerSampler::seeded(5);
        let rounds = 1_000_000;
        let mut m = BitMatrix::new(2, rounds);
        sampler.sample_into(&probs, &mut m);
        for (i, &p) in probs.iter().enumerate() {
            let frac = m.row(i).count_ones() as f64 / rounds as f64;
            assert!((frac - p).abs() < 0.0008, "component {i}: rate {frac} vs p={p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let probs = [0.01, 0.3, 0.07];
        let mut m1 = BitMatrix::new(3, 4_096);
        let mut m2 = BitMatrix::new(3, 4_096);
        ExtendedDaggerSampler::seeded(9).sample_into(&probs, &mut m1);
        ExtendedDaggerSampler::seeded(9).sample_into(&probs, &mut m2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn draw_count_headline_matches_intuition() {
        // All components at p = 0.01: one draw covers 100 rounds.
        let d = ExtendedDaggerSampler::draws_per_component_round(&[0.01; 8]);
        assert!((d - 0.01).abs() < 1e-12, "{d}");
        // Monte-Carlo equivalent would be 1.0; mixed case sits in between.
        let d2 = ExtendedDaggerSampler::draws_per_component_round(&[0.5, 0.01]);
        assert!(d2 > 0.01 && d2 < 1.0, "{d2}");
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let mut sampler = ExtendedDaggerSampler::seeded(1);
        let mut m = BitMatrix::new(2, 0);
        sampler.sample_into(&[0.5, 0.5], &mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn high_probability_components_fail_every_cycle() {
        // p = 1.0 -> s = 1, fails in every round.
        let mut sampler = ExtendedDaggerSampler::seeded(2);
        let mut m = BitMatrix::new(1, 1_000);
        sampler.sample_into(&[1.0], &mut m);
        assert_eq!(m.total_failures(), 1_000);
    }
}
