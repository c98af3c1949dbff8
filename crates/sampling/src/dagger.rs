//! Original dagger sampling for a single component (§3.2.2, Fig 3).
//!
//! For a component with failure probability `p`, let `s = ⌊1/p⌋`. The unit
//! interval is split into `s` subintervals of length `p` plus a remainder
//! of length `1 − s·p`. One uniform draw `r` then decides the component's
//! failure states for an entire *dagger cycle* of `s` rounds:
//!
//! * `r` in the i-th subinterval → failed in round `i`, alive in the rest;
//! * `r` in the remainder → alive in all `s` rounds.
//!
//! The expected per-round failure fraction is exactly `p` (each round is
//! covered by exactly one subinterval of mass `p`), so the remainder
//! introduces no bias — while one draw replaces `s` draws. For the
//! "fairly reliable" components of real data centers (p ≈ 1%), that is a
//! ~100× reduction in random-number generations, which is where Figure 7's
//! speedup comes from.

/// Per-component dagger-cycle parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DaggerCycle {
    /// Failure probability.
    pub p: f64,
    /// Cycle length `s = ⌊1/p⌋` (≥ 1 since p ≤ 1).
    pub s: u32,
}

impl DaggerCycle {
    /// Computes the cycle for probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p ≤ 1`: dagger sampling is defined for components
    /// that *can* fail; never-failing components shouldn't be sampled at
    /// all (the assessment pipeline skips them).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "dagger sampling needs 0 < p <= 1 (got {p})");
        let s = (1.0 / p).floor() as u32;
        // Guard the p = tiny edge: s*p may exceed 1 only by float error.
        DaggerCycle { p, s: s.max(1) }
    }

    /// Draws one dagger cycle: returns the round index (within `0..s`) in
    /// which the component fails, or `None` if it stays alive for the whole
    /// cycle (the draw hit the remainder section).
    ///
    /// This is the Fig 3 reference, compiled for tests only. The extended
    /// sampler's row writer ([`crate::ExtendedDaggerSampler`]) does the
    /// same arithmetic inline, folded into its truncation test, and is
    /// checked against this function bit for bit.
    #[cfg(test)]
    pub fn draw(&self, rng: &mut crate::rng::Rng) -> Option<u32> {
        let r = rng.next_f64();
        let idx = (r / self.p) as u32;
        (idx < self.s).then_some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn cycle_lengths_match_paper_examples() {
        // Fig 3: p = 0.3 -> 3 subintervals + 0.1 remainder.
        assert_eq!(DaggerCycle::new(0.3).s, 3);
        assert_eq!(DaggerCycle::new(0.01).s, 100);
        assert_eq!(DaggerCycle::new(0.008).s, 125);
        assert_eq!(DaggerCycle::new(1.0).s, 1);
        assert_eq!(DaggerCycle::new(0.5).s, 2);
    }

    #[test]
    fn paper_worked_examples() {
        // Fig 3a: p = 0.3, r = 0.4 lands in the 2nd subinterval (index 1).
        let c = DaggerCycle::new(0.3);
        assert_eq!((0.4f64 / c.p) as u32, 1);
        // Fig 3b: p = 0.3, r = 0.95 lands in the remainder -> alive cycle.
        assert!((0.95f64 / c.p) as u32 >= c.s);
    }

    #[test]
    fn draw_distribution_is_uniform_over_rounds_plus_remainder() {
        let c = DaggerCycle::new(0.3);
        let mut rng = Rng::new(17);
        let n = 300_000;
        let mut counts = [0usize; 4]; // rounds 0..3 + remainder bucket
        for _ in 0..n {
            match c.draw(&mut rng) {
                Some(i) => counts[i as usize] += 1,
                None => counts[3] += 1,
            }
        }
        for (i, &count) in counts.iter().take(3).enumerate() {
            let frac = count as f64 / n as f64;
            assert!((frac - 0.3).abs() < 0.01, "round {i}: {frac}");
        }
        let rem = counts[3] as f64 / n as f64;
        assert!((rem - 0.1).abs() < 0.01, "remainder: {rem}");
    }

    #[test]
    fn per_round_failure_rate_is_p() {
        // The core unbiasedness claim: expected failures per round = p,
        // despite one draw covering s rounds.
        let p = 0.013;
        let c = DaggerCycle::new(p);
        let mut rng = Rng::new(23);
        let cycles = 200_000;
        let mut failures = 0usize;
        for _ in 0..cycles {
            if c.draw(&mut rng).is_some() {
                failures += 1;
            }
        }
        let per_round = failures as f64 / (cycles as f64 * c.s as f64);
        assert!((per_round - p).abs() < 0.0005, "per-round rate {per_round}");
    }

    #[test]
    #[should_panic(expected = "0 < p <= 1")]
    fn zero_probability_rejected() {
        DaggerCycle::new(0.0);
    }

    #[test]
    #[should_panic(expected = "0 < p <= 1")]
    fn over_unit_probability_rejected() {
        DaggerCycle::new(1.5);
    }
}
