//! Failure-probability assignment.
//!
//! Cloud providers measure each component's downtime within a window and
//! derive `p = downtime / windowLength` (§2.1). Lacking a production feed,
//! we reproduce the paper's evaluation setting (§4.1): every switch fails
//! with probability drawn from N(0.008, 0.001), every other fallible
//! component from N(0.01, 0.001), all rounded to four decimal places. The
//! external world never fails (it is the observer, not a component).
//!
//! §3.4 ("limited dependency information") is covered too: when no
//! probabilities are available, a uniform default keeps reCloud's
//! shared-dependency avoidance working, merely without calibrated numbers.

use recloud_sampling::rng::{box_muller, Rng};
use recloud_topology::{ComponentKind, Topology};

/// How to assign per-component failure probabilities.
#[derive(Clone, Debug)]
pub enum ProbabilityConfig {
    /// The paper's §4.1 setting: switches ~ N(0.008, 0.001), all other
    /// fallible components ~ N(0.01, 0.001), rounded to 4 decimals.
    PaperDefault,
    /// Custom normal distributions per class.
    Normal {
        /// Mean/std for switches.
        switch: (f64, f64),
        /// Mean/std for everything else fallible.
        other: (f64, f64),
    },
    /// Every fallible component gets the same probability — the §3.4
    /// fallback when no measurements exist.
    Uniform(f64),
    /// Per-kind fixed values; kinds not listed fall back to `default`.
    PerKind {
        /// (kind, probability) table.
        table: Vec<(ComponentKind, f64)>,
        /// Probability for kinds not in the table.
        default: f64,
    },
}

impl ProbabilityConfig {
    /// Materializes the probability vector for a topology; index = raw
    /// component id. The `External` component always gets probability 0.
    ///
    /// Deterministic for a given `seed`.
    pub fn assign(&self, topology: &Topology, seed: u64) -> Vec<f64> {
        let mut probs = vec![0.0; topology.num_components()];
        self.fill(topology, seed, &mut probs);
        probs
    }

    /// Writes the assignment for `(topology, seed)` over `probs`, one
    /// entry per topology component: the one draw routine behind
    /// [`ProbabilityConfig::assign`] and [`crate::FaultModel::redraw`].
    /// The draws come from one sequential stream in component order, so a
    /// refilled vector equals a freshly assigned one bit for bit — and
    /// equals, bit for bit, one `recloud_sampling::testing::
    /// normal_probability` call per fallible component, which is what
    /// [`draw_block`] computes faster.
    pub(crate) fn fill(&self, topology: &Topology, seed: u64, probs: &mut [f64]) {
        assert_eq!(probs.len(), topology.num_components(), "one probability per component");
        let (switch, other) = match self {
            ProbabilityConfig::PaperDefault => ((0.008, 0.001), (0.01, 0.001)),
            ProbabilityConfig::Normal { switch, other } => (*switch, *other),
            ProbabilityConfig::Uniform(p) => return fill_fixed(topology, probs, |_| *p),
            ProbabilityConfig::PerKind { table, default } => {
                return fill_fixed(topology, probs, |kind| {
                    table.iter().find(|(k, _)| *k == kind).map_or(*default, |(_, p)| *p)
                })
            }
        };
        let mut rng = Rng::new(seed);
        let mut components = topology.components().iter().enumerate();
        let mut index = [0usize; 2 * PAIRS];
        let (mut mean, mut sd, mut out) = ([0.0; 2 * PAIRS], [0.0; 2 * PAIRS], [0.0; 2 * PAIRS]);
        let (mut u1, mut u2) = ([0.0; PAIRS], [0.0; PAIRS]);
        loop {
            // The next 64 fallible components take the next 64 deviates;
            // an `External` draws nothing, so a pair may straddle it.
            let mut len = 0;
            while len < 2 * PAIRS {
                let Some((i, c)) = components.next() else { break };
                if c.kind == ComponentKind::External {
                    probs[i] = 0.0;
                    continue;
                }
                (mean[len], sd[len]) = if c.kind.is_switch() { switch } else { other };
                index[len] = i;
                len += 1;
            }
            if len == 0 {
                return;
            }
            let pairs = len.div_ceil(2);
            for (u1, u2) in u1[..pairs].iter_mut().zip(&mut u2[..pairs]) {
                // `Rng::next_normal`'s two draws, in its order.
                *u1 = 1.0 - rng.next_f64();
                *u2 = rng.next_f64();
            }
            draw_block(&u1[..pairs], &u2[..pairs], &mean[..len], &sd[..len], &mut out[..len]);
            for (&i, &p) in index[..len].iter().zip(&out[..len]) {
                probs[i] = p;
            }
        }
    }
}

/// `value(kind)` for every component but `External`, which gets 0; draws
/// nothing.
fn fill_fixed(topology: &Topology, probs: &mut [f64], value: impl Fn(ComponentKind) -> f64) {
    for (p, c) in probs.iter_mut().zip(topology.components()) {
        *p = if c.kind == ComponentKind::External { 0.0 } else { value(c.kind) };
    }
}

/// Box–Muller pairs per block of [`ProbabilityConfig::fill`]: 64 deviates,
/// every buffer a stack array.
const PAIRS: usize = 32;

/// The largest `|z − z_libm|` [`normal_pairs`] may make, `z_libm` being
/// what [`box_muller`] returns for the same uniforms, over every pair the
/// stream can draw; `kernel_stays_within_z_err` pins it. The worst
/// measured is 1.41·10⁻¹⁴, at `u1 ≈ √½` where the series (`ATANH`) is
/// weakest.
const Z_ERR: f64 = 5e-14;

/// Half-width, in units of `10⁴·|sd|`, of the band around a half-integer
/// in which [`rounded`] leaves a deviate to libm: a thousand times
/// [`Z_ERR`].
const Z_MARGIN: f64 = 1_000.0 * Z_ERR;

/// 1.5·2⁵²: for `|x| < 2⁵¹`, `(x + ROUND) − ROUND` is `x` rounded to the
/// nearest integer, ties to even, and its bit pattern's low bits are that
/// integer's.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `2 atanh f / (2f)` in `s = f²`: `1/(2n + 1)`, eight terms. The first one
/// left out moves `ln` by `2|f|¹⁷/17 ≤ 1.2·10⁻¹⁴` at `|f| = 0.1716`, where
/// `r ≥ 0.83`.
const ATANH: [f64; 8] =
    [1.0, 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0, 1.0 / 9.0, 1.0 / 11.0, 1.0 / 13.0, 1.0 / 15.0];

/// `cos y` in `y²` (Taylor, `(−1)ⁿ/(2n)!`); on `|y| ≤ π/4` the first term
/// left out is below `2·10⁻¹⁸`.
const COS: [f64; 9] = [
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// `sin y / y` in `y²` (Taylor, `(−1)ⁿ/(2n + 1)!`); on `|y| ≤ π/4` the first
/// term left out is below `5·10⁻¹⁷`.
const SIN: [f64; 8] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];

/// `c[0] + v·(c[1] + v·(c[2] + …))`.
#[inline(always)]
fn horner<const N: usize>(v: f64, c: &[f64; N]) -> f64 {
    c[..N - 1].iter().rev().fold(c[N - 1], |acc, &c| acc * v + c)
}

/// `ln x` for a positive normal `x`, without a branch: `x = 2ᵏ·m` with
/// `m ∈ [√½, √2)` — adding `1.0 − √½` as bit patterns carries into the
/// exponent exactly when `x`'s mantissa is at least `√2`, and adding `√½`
/// back to the low 52 bits rebuilds `m` — then `ln m = 2 atanh f`,
/// `f = (m − 1)/(m + 1)`, `|f| ≤ 0.1716`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const SQRT_HALF: u64 = 0x3FE6_A09E_667F_3BCD;
    const ONE: u64 = 0x3FF0_0000_0000_0000;
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    let bits = x.to_bits().wrapping_add(ONE - SQRT_HALF);
    // The biased exponent spliced into 2⁵²'s mantissa reads 2⁵² + e exactly.
    let k = f64::from_bits(TWO_52 | (bits >> 52)) - (f64::from_bits(TWO_52) + 1023.0);
    let m = f64::from_bits((bits & ((1 << 52) - 1)) + SQRT_HALF);
    let f = (m - 1.0) / (m + 1.0);
    k * std::f64::consts::LN_2 + 2.0 * f * horner(f * f, &ATANH)
}

/// `(cos 2πu, sin 2πu)` for `u ∈ [0, 1)`, without a branch: `4u = q + t`
/// with `q` the nearest integer and `|t| ≤ ½`, both exact, so
/// `2πu = q·π/2 + y` with `|y| ≤ π/4`, where the Taylor series converge;
/// the quadrant `q` then swaps the two and flips signs.
#[inline(always)]
fn cos_sin_turns(u: f64) -> (f64, f64) {
    let shifted = 4.0 * u + ROUND;
    let q = shifted.to_bits();
    let y = (4.0 * u - (shifted - ROUND)) * std::f64::consts::FRAC_PI_2;
    let y2 = y * y;
    let (c, s) = (horner(y2, &COS).to_bits(), (y * horner(y2, &SIN)).to_bits());
    // A quarter turn maps (c, s) to (−s, c): odd q swaps, q mod 4 ∈ {1, 2}
    // negates the cosine, q mod 4 ∈ {2, 3} the sine.
    let swap = 0u64.wrapping_sub(q & 1);
    let cos = ((c & !swap) | (s & swap)) ^ (((q + 1) & 2) << 62);
    let sin = ((s & !swap) | (c & swap)) ^ ((q & 2) << 62);
    (f64::from_bits(cos), f64::from_bits(sin))
}

/// The Box–Muller pair of every lane, `z[2i] = r·cos θ` and
/// `z[2i + 1] = r·sin θ` for `(u1[i], u2[i])`: [`box_muller`] computed
/// without libm and without a branch, within [`Z_ERR`] of it for every
/// `u1 ∈ [2⁻⁵³, 1]`, `u2 ∈ [0, 1)`.
fn normal_pairs(u1: &[f64], u2: &[f64], z: &mut [f64]) {
    for ((pair, &u1), &u2) in z.chunks_exact_mut(2).zip(u1).zip(u2) {
        let r = (-2.0 * ln(u1)).sqrt();
        let (cos, sin) = cos_sin_turns(u2);
        pair[0] = r * cos;
        pair[1] = r * sin;
    }
}

/// `x.round()` for `x = (mean + sd·z_libm)·10⁴` — the integer
/// `normal_probability` rounds to — computed from the kernel's `z`, or
/// `None` where that `z` cannot decide it.
///
/// Only the unit interval around an integer that `x` falls in matters.
/// Let `x` come from libm's `z` and `x'` from the kernel's `z' = z + δ`,
/// `|δ| ≤ Z_ERR`, `|z|, |z'| < 9` (`r ≤ √(106 ln 2) = 8.58` for
/// `u1 ≥ 2⁻⁵³`). Exactly, the two differ by `10⁴·|sd|·|δ|`; each of the
/// three rounded operations moves its result by at most 2⁻⁵³ of it, which
/// adds at most `3.01·2⁻⁵³·10⁴·(|mean| + 9|sd|)` per side. The margin
/// below is that bound with 1,000× (`Z_MARGIN`) on the first term and
/// 2.6× (`16·2⁻⁵³`) on the second, so a lane at least `margin` inside its
/// interval rounds the same from either `z`, and the trick's ties-to-even
/// never differs from `round`'s ties-away: a tie is never that far inside.
/// A NaN, infinite or huge `x` (`|x| ≥ 2⁵¹`, where `margin ≥ 4`) never
/// passes the comparison.
#[inline(always)]
fn rounded(z: f64, mean: f64, sd: f64) -> Option<f64> {
    let x = (mean + sd * z) * 10_000.0;
    let n = (x + ROUND) - ROUND;
    let spread = mean.abs() + 9.0 * sd.abs();
    let margin = 10_000.0 * (sd.abs() * Z_MARGIN + spread * (8.0 * f64::EPSILON));
    ((x - n).abs() <= 0.5 - margin).then_some(n)
}

/// The probabilities of the `mean.len()` deviates the pairs
/// `(u1[i], u2[i])` make — deviate `j` is pair `j / 2`'s cos half for even
/// `j`, its sin half for odd `j`, drawn from N(`mean[j]`, `sd[j]`) — rounded
/// as `normal_probability` rounds: from the kernel's deviate wherever
/// [`rounded`] decides, from libm's ([`box_muller`]) where it does not.
fn draw_block(u1: &[f64], u2: &[f64], mean: &[f64], sd: &[f64], out: &mut [f64]) {
    let mut z = [0.0; 2 * PAIRS];
    normal_pairs(u1, u2, &mut z[..2 * u1.len()]);
    // Branch-free: an undecided deviate is left NaN, which a decided one
    // never is.
    let mut decided = true;
    for ((n, &z), (&m, &s)) in out.iter_mut().zip(&z).zip(mean.iter().zip(sd)) {
        let rounded = rounded(z, m, s);
        decided &= rounded.is_some();
        *n = rounded.unwrap_or(f64::NAN);
    }
    if !decided {
        for (j, n) in out.iter_mut().enumerate().filter(|(_, n)| n.is_nan()) {
            let (z_cos, z_sin) = box_muller(u1[j / 2], u2[j / 2]);
            *n = ((mean[j] + sd[j] * [z_cos, z_sin][j % 2]) * 10_000.0).round();
        }
    }
    for p in out {
        *p = (*p / 10_000.0).clamp(0.0001, 0.9999);
    }
}

/// Derives a failure probability from a measured downtime within a window
/// (§2.1: `p = downtime / windowLength`). Units cancel; both arguments must
/// use the same unit.
///
/// # Panics
/// Panics if `window` is not positive or `downtime` is negative or exceeds
/// the window.
pub fn downtime_ratio(downtime: f64, window: f64) -> f64 {
    assert!(window > 0.0, "window must be positive");
    assert!((0.0..=window).contains(&downtime), "downtime must lie within [0, window]");
    downtime / window
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::prop_assert_eq;
    use recloud_sampling::proptest::{forall, Gen};
    use recloud_sampling::testing::normal_probability;
    use recloud_topology::{FatTreeParams, Scale, TopologyBuilder};

    /// The assignment as one `normal_probability` call per fallible
    /// component, in component order: the oracle `fill` must equal bit for
    /// bit.
    fn sequential(config: &ProbabilityConfig, topology: &Topology, seed: u64) -> Vec<u64> {
        let (switch, other) = match config {
            ProbabilityConfig::PaperDefault => ((0.008, 0.001), (0.01, 0.001)),
            ProbabilityConfig::Normal { switch, other } => (*switch, *other),
            _ => unreachable!("the oracle covers the drawn configurations"),
        };
        let mut rng = Rng::new(seed);
        let draw = |kind: ComponentKind, rng: &mut Rng| {
            if kind == ComponentKind::External {
                0.0
            } else {
                let (m, s) = if kind.is_switch() { switch } else { other };
                normal_probability(rng, m, s)
            }
        };
        topology.components().iter().map(|c| draw(c.kind, &mut rng).to_bits()).collect()
    }

    fn filled(config: &ProbabilityConfig, topology: &Topology, seed: u64) -> Vec<u64> {
        config.assign(topology, seed).into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn fill_matches_the_sequential_draws_bit_for_bit() {
        let config = ProbabilityConfig::PaperDefault;
        for (scale, seeds) in
            [(Scale::Tiny, 2_000), (Scale::Small, 2_000), (Scale::Medium, 2_000), (Scale::Large, 5)]
        {
            let t = scale.build();
            for seed in (0..seeds).map(|s| recloud_sampling::derive_seed(0x5EED, s)) {
                assert_eq!(
                    filled(&config, &t, seed),
                    sequential(&config, &t, seed),
                    "{scale} {seed}"
                );
            }
        }
    }

    /// `before` fallible components, the external world, a border switch
    /// and `after` more: a pair of deviates straddles `External` whenever
    /// `before` is odd, and `before + after + 1` takes both parities and
    /// every position against the 64-deviate block.
    fn external_mid_list(before: usize, after: usize) -> Topology {
        const KINDS: [ComponentKind; 5] = [
            ComponentKind::Host,
            ComponentKind::EdgeSwitch,
            ComponentKind::PowerSupply,
            ComponentKind::Switch,
            ComponentKind::Link,
        ];
        let mut b = TopologyBuilder::new();
        for i in 0..before {
            b.add(KINDS[i % KINDS.len()]);
        }
        b.external();
        let border = b.add(ComponentKind::BorderSwitch);
        b.mark_border(border);
        for i in 0..after {
            b.add(KINDS[(i + 2) % KINDS.len()]);
        }
        b.build()
    }

    #[test]
    fn fill_matches_the_sequential_draws_around_a_mid_list_external() {
        let configs = [
            ProbabilityConfig::PaperDefault,
            ProbabilityConfig::Normal { switch: (0.3, 0.2), other: (-0.01, 0.05) },
        ];
        for before in [0, 1, 2, 3, 31, 62, 63, 64, 65, 100] {
            for after in [0, 1, 2, 61, 62, 63, 64, 127] {
                let t = external_mid_list(before, after);
                for config in &configs {
                    for seed in 0..20 {
                        assert_eq!(
                            filled(config, &t, seed),
                            sequential(config, &t, seed),
                            "{config:?} before={before} after={after} seed={seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fill_matches_the_sequential_draws_for_any_normal_config() {
        let class = |g: &mut Gen| {
            let mean = match g.usize_in(0..5) {
                0 => 0.01,
                // A negative mean: every draw hits the lower clamp.
                1 => -g.f64_in(0.0..0.05),
                // Means on a rounding tie, which sd = 0 keeps there.
                2 => (g.usize_in(0..20) as f64 + 0.5) / 10_000.0,
                3 => g.f64_in(0.0..1.0),
                _ => g.f64_in(-1e6..1e6),
            };
            let sd = match g.usize_in(0..4) {
                0 => 0.0,
                1 => 0.2,
                2 => 0.001,
                _ => g.f64_in(0.0..0.05),
            };
            (mean, sd)
        };
        forall("fill == sequential normal_probability, Normal configs", |g| {
            let config = ProbabilityConfig::Normal { switch: class(g), other: class(g) };
            let t = match g.usize_in(0..3) {
                0 => FatTreeParams::new(4).build(),
                1 => Scale::Tiny.build(),
                _ => external_mid_list(g.usize_in(0..80), g.usize_in(0..80)),
            };
            let seed = g.any_u64();
            prop_assert_eq!(filled(&config, &t, seed), sequential(&config, &t, seed), "{config:?}");
            Ok(())
        });
    }

    /// The worst `|z − z_libm|` of [`normal_pairs`] over `(u1, u2)`.
    fn worst_z_error(pairs: &[(f64, f64)]) -> (f64, (f64, f64)) {
        let mut worst = (0.0, (0.0, 0.0));
        for block in pairs.chunks(PAIRS) {
            let (u1, u2): (Vec<f64>, Vec<f64>) = block.iter().copied().unzip();
            let mut z = [0.0; 2 * PAIRS];
            normal_pairs(&u1, &u2, &mut z);
            for (i, &(u1, u2)) in block.iter().enumerate() {
                let (z_cos, z_sin) = box_muller(u1, u2);
                for err in [(z[2 * i] - z_cos).abs(), (z[2 * i + 1] - z_sin).abs()] {
                    // A NaN sticks: nothing compares greater than it.
                    if err.is_nan() || err > worst.0 {
                        worst = (err, (u1, u2));
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn kernel_stays_within_z_err() {
        // Z_MARGIN, not Z_ERR, decides which lanes fall back; `rounded`
        // derives the band from it. The bound must sit far below it.
        const { assert!(Z_MARGIN >= 1_000.0 * Z_ERR) };
        let mut rng = Rng::new(0xB0C5);
        let mut pairs: Vec<(f64, f64)> =
            (0..1_000_000).map(|_| (1.0 - rng.next_f64(), rng.next_f64())).collect();
        // The edges: the largest r, a power of two, both sides of the
        // exponent split's √½ (the largest |f|), the smallest nonzero r and
        // r = 0, against every octant boundary of θ and its neighbours.
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        let u1s = [
            f64::EPSILON / 2.0,
            0.5,
            sqrt_half.next_down(),
            sqrt_half,
            sqrt_half.next_up(),
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ];
        for u1 in u1s {
            for k in 0..=8 {
                let u2 = k as f64 / 8.0;
                for u2 in [u2.next_down(), u2, u2.next_up()] {
                    if (0.0..1.0).contains(&u2) {
                        pairs.push((u1, u2));
                    }
                }
            }
        }
        let (worst, at) = worst_z_error(&pairs);
        assert!(worst <= Z_ERR, "|z − z_libm| = {worst:e} at (u1, u2) = {at:?}");
    }

    #[test]
    fn deviates_next_to_a_rounding_tie_fall_back_to_libm() {
        let mut rng = Rng::new(0x71E);
        let mut crossings = 0;
        for case in 0..2_000 {
            let (mean, sd) = [(0.008, 0.001), (0.01, 0.001), (0.5, 0.05), (0.01, 0.2)][case % 4];
            let half = (case / 4) % 2;
            // Every third pair at the exponent split, where the kernel errs most.
            let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
            let u1 = match case % 6 {
                0 => sqrt_half.next_down(),
                3 => sqrt_half,
                _ => 1.0 - rng.next_f64(),
            };
            let x = |u2: f64| {
                let (z_cos, z_sin) = box_muller(u1, u2);
                (mean + sd * [z_cos, z_sin][half]) * 10_000.0
            };
            let mut lo = rng.next_f64() * (63.0 / 64.0);
            let mut hi = lo + 1.0 / 64.0;
            let tie = (x(lo).min(x(hi)) - 0.5).ceil() + 0.5;
            if tie > x(lo).max(x(hi)) {
                continue;
            }
            // Bisect u2 down to adjacent floats on the two sides of the tie.
            loop {
                let mid = lo + (hi - lo) / 2.0;
                if mid <= lo || mid >= hi {
                    break;
                }
                if (x(mid) >= tie) == (x(lo) >= tie) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let nearest = if (x(lo) - tie).abs() <= (x(hi) - tie).abs() { lo } else { hi };
            assert!((x(nearest) - tie).abs() < 1e-9, "x = {} at tie {tie}", x(nearest));
            let mut z = [0.0; 2];
            normal_pairs(&[u1], &[nearest], &mut z);
            assert_eq!(rounded(z[half], mean, sd), None, "x = {} is in the band", x(nearest));
            for u2 in [lo, hi] {
                let mut out = [0.0; 2];
                draw_block(&[u1], &[u2], &[mean; 2], &[sd; 2], &mut out);
                let want = ((x(u2).round()) / 10_000.0).clamp(0.0001, 0.9999);
                assert_eq!(out[half].to_bits(), want.to_bits(), "u1={u1} u2={u2} {mean} {sd}");
            }
            crossings += 1;
        }
        assert!(crossings >= 1_000, "only {crossings} brackets held a tie");
    }

    #[test]
    fn paper_default_distributions() {
        let t = FatTreeParams::new(8).build();
        let probs = ProbabilityConfig::PaperDefault.assign(&t, 42);
        assert_eq!(probs.len(), t.num_components());
        let mut sw = Vec::new();
        let mut other = Vec::new();
        for c in t.components() {
            let p = probs[c.id.index()];
            if c.kind == ComponentKind::External {
                assert_eq!(p, 0.0);
            } else if c.kind.is_switch() {
                sw.push(p);
            } else {
                other.push(p);
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean(&sw) - 0.008).abs() < 0.001, "switch mean {}", mean(&sw));
        assert!((mean(&other) - 0.01).abs() < 0.001, "other mean {}", mean(&other));
        // All rounded to 4 decimals.
        for &p in sw.iter().chain(other.iter()) {
            assert!((p * 10_000.0 - (p * 10_000.0).round()).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let t = FatTreeParams::new(4).build();
        let a = ProbabilityConfig::PaperDefault.assign(&t, 7);
        let b = ProbabilityConfig::PaperDefault.assign(&t, 7);
        assert_eq!(a, b);
        let c = ProbabilityConfig::PaperDefault.assign(&t, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_covers_every_fallible_component() {
        let t = FatTreeParams::new(4).build();
        let probs = ProbabilityConfig::Uniform(0.02).assign(&t, 0);
        for c in t.components() {
            let expected = if c.kind == ComponentKind::External { 0.0 } else { 0.02 };
            assert_eq!(probs[c.id.index()], expected);
        }
    }

    #[test]
    fn per_kind_table_with_default() {
        let t = FatTreeParams::new(4).build();
        let cfg = ProbabilityConfig::PerKind {
            table: vec![(ComponentKind::Host, 0.05), (ComponentKind::PowerSupply, 0.002)],
            default: 0.01,
        };
        let probs = cfg.assign(&t, 0);
        for c in t.components() {
            let expected = match c.kind {
                ComponentKind::External => 0.0,
                ComponentKind::Host => 0.05,
                ComponentKind::PowerSupply => 0.002,
                _ => 0.01,
            };
            assert_eq!(probs[c.id.index()], expected, "{c}");
        }
    }

    #[test]
    fn downtime_ratio_basic() {
        // 8.8 hours of annual downtime (the popularity study's figure).
        let p = downtime_ratio(8.8, 365.25 * 24.0);
        assert!((p - 0.001).abs() < 0.0003);
    }

    #[test]
    #[should_panic(expected = "within")]
    fn downtime_ratio_rejects_excess() {
        downtime_ratio(2.0, 1.0);
    }
}
