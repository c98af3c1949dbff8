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

use recloud_sampling::rng::{normal_probability, Rng};
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
    /// refilled vector equals a freshly assigned one bit for bit.
    pub(crate) fn fill(&self, topology: &Topology, seed: u64, probs: &mut [f64]) {
        assert_eq!(probs.len(), topology.num_components(), "one probability per component");
        let mut rng = Rng::new(seed);
        for (p, c) in probs.iter_mut().zip(topology.components()) {
            *p = if c.kind == ComponentKind::External {
                0.0
            } else {
                match self {
                    ProbabilityConfig::PaperDefault => {
                        if c.kind.is_switch() {
                            normal_probability(&mut rng, 0.008, 0.001)
                        } else {
                            normal_probability(&mut rng, 0.01, 0.001)
                        }
                    }
                    ProbabilityConfig::Normal { switch, other } => {
                        let (m, s) = if c.kind.is_switch() { *switch } else { *other };
                        normal_probability(&mut rng, m, s)
                    }
                    ProbabilityConfig::Uniform(p) => *p,
                    ProbabilityConfig::PerKind { table, default } => table
                        .iter()
                        .find(|(k, _)| *k == c.kind)
                        .map(|(_, p)| *p)
                        .unwrap_or(*default),
                }
            };
        }
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
    use recloud_topology::FatTreeParams;

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
