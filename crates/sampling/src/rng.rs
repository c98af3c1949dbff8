//! Deterministic random-number generation, built from scratch.
//!
//! Reliability assessment must be reproducible: the same seed must produce
//! the same reliability score on every platform, or the search (§3.3) and
//! the tests become undebuggable. We therefore avoid external RNG crates
//! and implement two small, well-studied generators:
//!
//! * **SplitMix64** — used only to expand a 64-bit seed into the 256-bit
//!   Xoshiro state (the construction recommended by the Xoshiro authors);
//! * **Xoshiro256++** — the workhorse stream; passes BigCrush, 2⁵⁶ period,
//!   sub-nanosecond per call.
//!
//! On top of the uniform stream we provide Box–Muller normal deviates,
//! which §4.1 needs to draw per-component failure probabilities from
//! N(0.008, 0.001) / N(0.01, 0.001).

/// Xoshiro256++ pseudo-random generator with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box–Muller deviate.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed is fine, including
    /// zero (SplitMix64 expansion guarantees a non-degenerate state).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s, spare_normal: None }
    }

    /// Next uniform 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; (1/2^53) granularity, never returns 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift method,
    /// bias negligible for the bounds used here).
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Standard normal deviate via Box–Muller (cached pair).
    pub fn next_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let (z_cos, z_sin) = box_muller(u1, u2);
        self.spare_normal = Some(z_sin);
        z_cos
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn next_normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_normal()
    }

    /// Samples `n` distinct indices from `0..pool` (partial Fisher–Yates on
    /// an index map; O(n) memory).
    ///
    /// # Panics
    /// Panics if `n > pool`.
    pub fn sample_distinct(&mut self, pool: usize, n: usize) -> Vec<usize> {
        assert!(n <= pool, "cannot sample {n} distinct values from {pool}");
        // Sparse Fisher-Yates: only touched slots are materialized.
        let mut swapped: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let j = i + self.next_below(pool - i);
            let vj = *swapped.get(&j).unwrap_or(&j);
            let vi = *swapped.get(&i).unwrap_or(&i);
            out.push(vj);
            swapped.insert(j, vi);
        }
        out
    }
}

/// Derives an independent 64-bit seed for stream `stream` of a master
/// seed: one SplitMix64-style avalanche over `(master, stream)`.
///
/// This is the single seed-derivation rule of the whole system. The
/// assessor derives per-chunk sampler seeds with it (chunk index as the
/// stream), and the serving layer derives per-request seeds from a client
/// session seed with it (request ordinal as the stream) — so a request
/// stream is reproducible end to end from one master seed, yet no two
/// streams share sampler state.
///
/// Streams are statistically independent: the avalanche decorrelates even
/// adjacent `(master, stream)` pairs, and distinctness over contiguous
/// stream ranges is pinned by tests.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Box–Muller pair of two uniforms through libm, `(r·cos θ, r·sin θ)`
/// with `r = √(−2 ln u1)` and `θ = 2π·u2`, for `u1 ∈ (0, 1]`:
/// [`Rng::next_normal`] returns the first and keeps the second as its
/// spare. The one definition of those deviates — any faster kernel must
/// reproduce what this returns.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Rng::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normals_have_right_moments() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normals_are_box_muller_pairs_of_consecutive_uniforms() {
        let (mut normals, mut uniforms) = (Rng::new(6), Rng::new(6));
        for _ in 0..10_000 {
            let u1 = 1.0 - uniforms.next_f64();
            let (z_cos, z_sin) = box_muller(u1, uniforms.next_f64());
            assert_eq!(normals.next_normal().to_bits(), z_cos.to_bits());
            assert_eq!(normals.next_normal().to_bits(), z_sin.to_bits());
        }
    }

    #[test]
    fn sample_distinct_yields_distinct_in_range() {
        let mut rng = Rng::new(8);
        for _ in 0..100 {
            let s = rng.sample_distinct(50, 12);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 12);
            assert!(s.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn sample_distinct_full_pool_is_permutation() {
        let mut rng = Rng::new(8);
        let mut s = rng.sample_distinct(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn sample_distinct_overdraw_panics() {
        Rng::new(1).sample_distinct(3, 4);
    }

    #[test]
    fn derive_seed_is_deterministic_and_stream_distinct() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        // Contiguous streams of one master never collide (the assessor
        // relies on this for chunk independence, the server for request
        // independence).
        let mut seeds: Vec<u64> = (0..1_000).map(|s| derive_seed(99, s)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1_000);
        // Different masters diverge on the same stream.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn derive_seed_streams_are_uncorrelated_rng_roots() {
        let mut a = Rng::new(derive_seed(5, 0));
        let mut b = Rng::new(derive_seed(5, 1));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
