//! Input generators. Every op's input is a pure function of
//! `(workload seed, op index)`, so the same seed gives the same inputs
//! whatever the op count, thread interleaving or run length.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_sampling::{derive_seed, Rng};
use recloud_topology::ComponentId;

/// Seed of everything a workload keeps *fixed* across workload seeds: the
/// fault model of the in-process workloads and every plan set. Fixing the
/// plans is what makes the answers' pooled downtime comparable between
/// runs with different `--seed`s.
pub const FIXED_SEED: u64 = 0x5EED_F17E_D5EE_D001;

/// The `j`-th plan of a workload's fixed plan universe.
pub fn universe_plan(spec: &ApplicationSpec, hosts: &[ComponentId], j: u64) -> DeploymentPlan {
    DeploymentPlan::random(spec, hosts, &mut Rng::new(derive_seed(FIXED_SEED, j)))
}

/// A plan's hosts as the wire wants them.
pub fn assignments(plan: &DeploymentPlan) -> Vec<Vec<u32>> {
    (0..plan.num_components())
        .map(|c| plan.hosts_of(c).iter().map(|h| h.index() as u32).collect())
        .collect()
}

/// Uniform draw in [0, 1) owned by op `op` of workload seed `seed`.
pub fn op_unit(seed: u64, op: u64) -> f64 {
    Rng::new(derive_seed(seed, op)).next_f64()
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in [0, 1) maps to.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::Scale;

    #[test]
    fn zipf_draws_depend_only_on_seed_and_op_index() {
        let z = Zipf::new(16_384, 1.0);
        let short: Vec<usize> = (0..100).map(|op| z.rank(op_unit(7, op))).collect();
        let long: Vec<usize> = (0..10_000).map(|op| z.rank(op_unit(7, op))).collect();
        assert_eq!(short[..], long[..100], "op count must not change earlier draws");
        let other: Vec<usize> = (0..100).map(|op| z.rank(op_unit(8, op))).collect();
        assert_ne!(short, other, "another seed gives another stream");
    }

    #[test]
    fn zipf_is_heavy_headed_and_in_range() {
        let z = Zipf::new(1_000, 1.0);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 999);
        let draws = 50_000u64;
        let head = (0..draws).filter(|&op| z.rank(op_unit(3, op)) < 10).count();
        // H(10)/H(1000) = 2.929/7.485 = 0.391
        let share = head as f64 / draws as f64;
        assert!((share - 0.391).abs() < 0.01, "top-10 share {share}");
    }

    #[test]
    fn plan_universe_is_fixed_and_addressable_in_any_order() {
        let topo = Scale::Tiny.build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let forward: Vec<_> =
            (0..32).map(|j| assignments(&universe_plan(&spec, topo.hosts(), j))).collect();
        for j in (0..32).rev() {
            assert_eq!(assignments(&universe_plan(&spec, topo.hosts(), j)), forward[j as usize]);
        }
        assert_ne!(forward[0], forward[1]);
        assert!(forward.iter().all(|a| a.len() == 1 && a[0].len() == 3));
    }
}
