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
//!
//! The row writer places every draw the same way — index clamped into the
//! (possibly truncated) cycle, a 0/1 bit ORed in unconditionally — because
//! with mixed probabilities whether a draw survives the truncation is not
//! predictable: a component with `s < s_max` ends every macro-cycle in a
//! cycle of `s_max mod s` rounds. The bits are those of the branching loop
//! written from `DaggerCycle::draw`, which this module's tests keep as the
//! oracle.

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
    ///
    /// # Panics
    /// Panics if any probability exceeds 1 (see [`DaggerCycle::new`]).
    pub fn macro_cycle(probs: &[f64]) -> usize {
        // Four independent running extremes: one pair would chain every
        // `min`/`max` on the one before it. An entry that is not positive
        // (or NaN) leaves `smallest` alone through the infinity and
        // `largest` through `max` against a start of 0.
        let (mut smallest, mut largest) = ([f64::INFINITY; 4], [0.0f64; 4]);
        let mut update = |lane: usize, p: f64| {
            smallest[lane] = smallest[lane].min(if p > 0.0 { p } else { f64::INFINITY });
            largest[lane] = largest[lane].max(p);
        };
        let mut fours = probs.chunks_exact(4);
        for four in &mut fours {
            for (lane, &p) in four.iter().enumerate() {
                update(lane, p);
            }
        }
        for &p in fours.remainder() {
            update(0, p);
        }
        let smallest = smallest.into_iter().fold(f64::INFINITY, f64::min);
        let largest = largest.into_iter().fold(0.0, f64::max);
        if largest == 0.0 {
            return 1;
        }
        // max_i ⌊1/p_i⌋ = ⌊1/min_i p_i⌋ exactly: correctly rounded division
        // and floor are both monotone, so one cycle is built, not one per
        // event. An out-of-range vector still panics on its largest entry.
        DaggerCycle::new(if largest > 1.0 { largest } else { smallest }).s as usize
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
        let s = DaggerCycle::new(p).s as usize;
        let mut block_start = 0;
        while block_start < rounds {
            // One macro-cycle: this component's own cycles, truncated at
            // s_max (and at the row end).
            let block_len = s_max.min(rounds - block_start);
            let mut sub_start = 0;
            while sub_start < block_len {
                let sub_len = s.min(block_len - sub_start);
                // The draw of Fig 3 (`DaggerCycle::draw`), placed with no
                // branch on it: a cycle cut to `s_max mod s` rounds hits
                // with probability `(s_max mod s) / s`, a coin the branch
                // predictor loses (module docs).
                let idx = (rng.next_f64() / p) as u32 as usize;
                // `idx < sub_len <= s` covers the remainder section too.
                // Failures drawn past the truncation are discarded rounds
                // (Fig 4), intentionally dropped.
                let hit = (idx < sub_len) as u64;
                // A miss ORs a 0 into the cycle's last round: `sub_len >= 1`
                // in here, so the clamped index never leaves the row.
                let round = block_start + sub_start + idx.min(sub_len - 1);
                row[round / 64] |= hit << (round % 64);
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
    use crate::proptest::{forall, Gen};
    use crate::state::BitMatrix;
    use crate::{prop_assert, prop_assert_eq};

    /// The row writer as it was before the draw was placed without a
    /// branch, written from [`DaggerCycle::draw`]: the reference
    /// [`ExtendedDaggerSampler::sample_row`] must match word for word.
    fn branching_row(seed: u64, c: usize, p: f64, s_max: usize, rounds: usize, row: &mut [u64]) {
        row.fill(0);
        if p <= 0.0 {
            return;
        }
        let mut rng = Rng::new(derive_seed(seed, c as u64));
        let cycle = DaggerCycle::new(p);
        let s = cycle.s as usize;
        let mut block_start = 0;
        while block_start < rounds {
            let block_len = s_max.min(rounds - block_start);
            let mut sub_start = 0;
            while sub_start < block_len {
                let sub_len = s.min(block_len - sub_start);
                if let Some(offset) = cycle.draw(&mut rng) {
                    if (offset as usize) < sub_len {
                        let round = block_start + sub_start + offset as usize;
                        row[round / 64] |= 1u64 << (round % 64);
                    }
                }
                sub_start += s;
            }
            block_start += s_max;
        }
    }

    /// Samples one row both ways into slices one word wider than `rounds`
    /// needs, pre-filled with ones: the words must agree and every bit
    /// from `rounds` on — the spare word included — must be clear.
    fn check_against_branching(
        seed: u64,
        c: usize,
        p: f64,
        s_max: usize,
        rounds: usize,
    ) -> Result<(), String> {
        let words = rounds.div_ceil(64) + 1;
        let (mut want, mut got) = (vec![!0u64; words], vec![!0u64; words]);
        branching_row(seed, c, p, s_max, rounds, &mut want);
        ExtendedDaggerSampler::seeded(seed).sample_row(c, p, s_max, rounds, &mut got);
        prop_assert_eq!(got, want, "seed={seed} c={c} p={p} s_max={s_max} rounds={rounds}");
        let past_the_end = (rounds..words * 64).any(|r| (got[r / 64] >> (r % 64)) & 1 == 1);
        prop_assert!(!past_the_end, "bit set from round {rounds} on: p={p} s_max={s_max}");
        Ok(())
    }

    #[test]
    fn row_writer_matches_the_branching_loop_on_a_grid() {
        // Cycles of 1 and 2, Fig 3's p = 0.3, the paper-default band
        // (s = 81..164 under s_max = 178..222) and the clamped extremes.
        for p in [1.0, 0.5, 0.3, 0.02, 0.0123, 0.01, 0.008, 0.0061, 0.002, 0.0001] {
            let s = DaggerCycle::new(p).s as usize;
            for s_max in [s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, 178, 196, 222, 10_000] {
                if s_max < s {
                    continue;
                }
                for rounds in [0, 1, 63, 64, 65, s_max - 1, s_max, s_max + 1, 2_304, 2_560, 2_561] {
                    for seed in 0..200 {
                        check_against_branching(seed, seed as usize * 7, p, s_max, rounds)
                            .unwrap_or_else(|e| panic!("{e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn row_writer_matches_the_branching_loop_on_random_shapes() {
        forall("sample_row == the branching loop", |g| {
            // Half the cases from the band the served models live in.
            let p = if g.any_bool() {
                crate::testing::normal_probability(g.rng(), 0.009, 0.0015)
            } else {
                g.f64_in(0.0001..1.0)
            };
            let s = DaggerCycle::new(p).s as usize;
            let s_max = s + g.usize_in(0..2 * s + 2);
            let rounds = g.usize_in(0..3 * s_max.min(2_000) + 2);
            for _ in 0..8 {
                check_against_branching(g.any_u64(), g.usize_in(0..30_000), p, s_max, rounds)?;
            }
            Ok(())
        });
    }

    #[test]
    fn macro_cycle_is_longest_cycle() {
        // p = 0.008 -> s = 125; p = 0.01 -> s = 100; p = 0.3 -> s = 3.
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.01, 0.008, 0.3]), 125);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.5]), 2);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[0.0]), 1);
        assert_eq!(ExtendedDaggerSampler::macro_cycle(&[]), 1);
    }

    #[test]
    fn macro_cycle_equals_the_per_event_maximum() {
        // One division for the smallest p instead of one per event.
        let per_event = |probs: &[f64]| {
            probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| DaggerCycle::new(p).s as usize)
                .max()
                .unwrap_or(1)
        };
        let draw = |g: &mut Gen| match g.usize_in(0..8) {
            0 => 0.0,
            1 => 1.0,
            2 => crate::testing::normal_probability(g.rng(), 0.008, 0.001),
            3 => crate::testing::normal_probability(g.rng(), 0.01, 0.001),
            // Neighbours of a cycle boundary: 1/p just above or below n.
            4 => (1.0 / g.usize_in(1..5_000) as f64) * (1.0 + (g.f64_in(-2.0..2.0) * 1e-15)),
            _ => g.f64_in(0.0..1.0),
        };
        forall("macro_cycle == max of per-event cycles", |g| {
            let probs = g.vec_in(0..40, draw);
            prop_assert_eq!(ExtendedDaggerSampler::macro_cycle(&probs), per_event(&probs));
            Ok(())
        });
        for probs in [&[1.0][..], &[0.0, 1.0, 0.0], &[0.0; 5], &[0.0, 0.0001, 0.9999]] {
            assert_eq!(ExtendedDaggerSampler::macro_cycle(probs), per_event(probs), "{probs:?}");
        }
        // Lengths 0–9 take every remainder of the four-lane pass: the
        // smallest entry, and a non-positive one, in every position.
        for len in 0..10 {
            for at in 0..len {
                let mut probs = vec![0.01; len];
                probs[at] = 0.002;
                assert_eq!(ExtendedDaggerSampler::macro_cycle(&probs), 500, "{probs:?}");
                probs[at] = 0.0;
                assert_eq!(ExtendedDaggerSampler::macro_cycle(&probs), per_event(&probs));
            }
        }
        forall("macro_cycle == max of per-event cycles, lengths 0-9", |g| {
            let probs = g.vec_in(0..10, draw);
            prop_assert_eq!(ExtendedDaggerSampler::macro_cycle(&probs), per_event(&probs));
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "0 < p <= 1 (got 1.5)")]
    fn macro_cycle_rejects_a_probability_above_one() {
        ExtendedDaggerSampler::macro_cycle(&[0.01, 1.5, 0.0, 0.008]);
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
