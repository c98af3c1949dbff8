#![warn(missing_docs)]

//! # recloud-sampling
//!
//! Failure-state sampling and statistics substrate for the reCloud
//! reproduction.
//!
//! The paper assesses a deployment plan by generating failure states for
//! every infrastructure component over many rounds and counting the rounds
//! in which the plan survives (§3.2). This crate owns everything up to (but
//! not including) the route-and-check step:
//!
//! * a deterministic, seedable random generator built from scratch
//!   (SplitMix64 seeding + Xoshiro256++ stream, plus Box–Muller normals) —
//!   [`rng`];
//! * dense failure-state storage as bit matrices — [`state`];
//! * the strawman **Monte-Carlo sampler** used by INDaaS (§3.2.1) —
//!   [`montecarlo`];
//! * the original **dagger sampler** (§3.2.2, Fig 3) — [`dagger`];
//! * the **extended dagger sampler** that resets all dagger cycles at the
//!   end of the longest cycle (Fig 4) — [`extended`];
//! * reliability estimation with the paper's conservative variance and the
//!   95% confidence-interval width, Eqs (1)–(3) — [`estimator`].
//!
//! Every sampler implements the [`Sampler`] trait so that assessment code
//! can swap Monte-Carlo for dagger sampling with one constructor change —
//! which is precisely the reCloud-vs-INDaaS comparison of Figure 7.
//!
//! Being the workspace's foundation crate (std-only, no dependencies), it
//! also hosts the hermetic-build substrates that replaced the former
//! external crates:
//!
//! * [`wire`] — `Bytes`/`ByteWriter`/`ByteReader` byte buffers (was
//!   `bytes`);
//! * [`proptest`] — a seeded `forall` property-test runner (was the
//!   `proptest` crate).

pub mod dagger;
pub mod estimator;
pub mod extended;
pub mod montecarlo;
pub mod proptest;
pub mod rng;
pub mod state;
#[doc(hidden)]
pub mod testing;
pub mod wide;
pub mod wire;

pub use dagger::DaggerCycle;
pub use estimator::{wilson95, ReliabilityEstimate, ResultAccumulator};
pub use extended::ExtendedDaggerSampler;
pub use montecarlo::MonteCarloSampler;
pub use rng::{derive_seed, Rng};
pub use state::{BitMatrix, BitRow};
pub use wide::WideWord;

/// A failure-state generator: fills a component × round bit matrix where a
/// set bit means "failed in that round".
///
/// Implementations must be deterministic for a given seed and must preserve
/// the defining statistical property: across many rounds, component `i`
/// fails in a fraction `p[i]` of rounds in expectation.
pub trait Sampler {
    /// Generates component `c`'s failure states over the first `rounds`
    /// rounds into `row` (one bit per round, at least `rounds` bits long),
    /// overwriting it; bits from `rounds` on are cleared.
    ///
    /// The row is a pure function of `derive_seed(seed, c)`, `p`, `s_max`
    /// (the macro-cycle of the whole probability vector, see
    /// [`ExtendedDaggerSampler::macro_cycle`]) and `rounds` — no other
    /// component's row enters — and a row sampled for `n` rounds equals
    /// the `n`-round prefix of the same row sampled for more. Those two
    /// properties are what let the assessor sample only the rows a plan
    /// can read, and stop a short chunk at its own round count.
    fn sample_row(&self, c: usize, p: f64, s_max: usize, rounds: usize, row: &mut [u64]);

    /// Generates failure states for all components over `matrix.rounds()`
    /// rounds, overwriting `matrix`: [`Sampler::sample_row`] for every row.
    /// `probs[i]` is component `i`'s failure probability; the matrix must
    /// have exactly `probs.len()` rows.
    fn sample_into(&mut self, probs: &[f64], matrix: &mut BitMatrix) {
        assert_eq!(
            probs.len(),
            matrix.components(),
            "probability vector and matrix disagree on component count"
        );
        let s_max = ExtendedDaggerSampler::macro_cycle(probs);
        let rounds = matrix.rounds();
        for (c, &p) in probs.iter().enumerate() {
            self.sample_row(c, p, s_max, rounds, matrix.row_words_mut(c));
        }
    }

    /// Human-readable name for reports ("monte-carlo" / "dagger").
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Shared statistical check: the empirical failure fraction of every
    /// component must approach its probability.
    fn check_unbiased(sampler: &mut dyn Sampler, probs: &[f64], rounds: usize, tol: f64) {
        let mut m = BitMatrix::new(probs.len(), rounds);
        sampler.sample_into(probs, &mut m);
        for (i, &p) in probs.iter().enumerate() {
            let fails = m.row(i).count_ones();
            let frac = fails as f64 / rounds as f64;
            assert!(
                (frac - p).abs() < tol,
                "{}: component {i} p={p} measured {frac} (tol {tol})",
                sampler.name()
            );
        }
    }

    #[test]
    fn both_samplers_are_unbiased() {
        let probs = [0.01, 0.3, 0.008, 0.17, 0.5];
        check_unbiased(&mut MonteCarloSampler::seeded(11), &probs, 200_000, 0.01);
        check_unbiased(&mut ExtendedDaggerSampler::seeded(11), &probs, 200_000, 0.01);
    }

    /// What lets a short tail chunk stop at its own round count, and a
    /// cached row serve a shorter follow-up request: the `n`-round row is
    /// the `n`-round prefix of the full-chunk row, bit for bit, with
    /// nothing set beyond `n`.
    #[test]
    fn short_rows_are_prefixes_of_long_rows() {
        let chunk_rounds = 2_560;
        let samplers: [&dyn Sampler; 2] =
            [&ExtendedDaggerSampler::seeded(17), &MonteCarloSampler::seeded(17)];
        // s = 125 (the macro-cycle), 100 (truncated every macro-cycle), 3, 1.
        let probs = [0.008, 0.01, 0.3, 1.0];
        let s_max = ExtendedDaggerSampler::macro_cycle(&probs);
        for sampler in samplers {
            for (c, &p) in probs.iter().enumerate() {
                let mut full = vec![0u64; chunk_rounds / 64];
                sampler.sample_row(c, p, s_max, chunk_rounds, &mut full);
                for n in [0usize, 1, 63, 64, 65, 124, 125, 126, 257, 2_320, 2_559] {
                    let mut short = vec![!0u64; chunk_rounds / 64];
                    sampler.sample_row(c, p, s_max, n, &mut short);
                    for round in 0..chunk_rounds {
                        let bit = |row: &[u64]| (row[round / 64] >> (round % 64)) & 1 == 1;
                        let want = round < n && bit(&full);
                        assert_eq!(
                            bit(&short),
                            want,
                            "{} c={c} n={n} round {round}",
                            sampler.name()
                        );
                    }
                }
            }
        }
    }

    /// Per-component streams: a row does not depend on which other
    /// components are sampled, and `sample_into` is the row function
    /// applied to every row.
    #[test]
    fn rows_are_independent_of_the_rest_of_the_matrix() {
        let probs = [0.01, 0.0, 0.3, 0.008, 0.17];
        let s_max = ExtendedDaggerSampler::macro_cycle(&probs);
        let rounds = 700;
        let mut dagger = ExtendedDaggerSampler::seeded(23);
        let mut mc = MonteCarloSampler::seeded(23);
        let samplers: [&mut dyn Sampler; 2] = [&mut dagger, &mut mc];
        for sampler in samplers {
            let mut m = BitMatrix::new(probs.len(), rounds);
            sampler.sample_into(&probs, &mut m);
            for (c, &p) in probs.iter().enumerate().rev() {
                let mut row = vec![0u64; m.words_per_row()];
                sampler.sample_row(c, p, s_max, rounds, &mut row);
                assert_eq!(row, m.row_words(c), "{} row {c}", sampler.name());
            }
            assert_eq!(m.row(1).count_ones(), 0, "p = 0 never fails");
        }
    }
}
