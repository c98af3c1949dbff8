//! Multi-objective optimization (§3.3.3, Eq 7).
//!
//! "Rather than considering only the reliability score ... reCloud can
//! generate a holistic measure M by combining the reliability score of a
//! deployment plan and the utility score of the deployment plan":
//! M = a·reliability + b·utility. The evaluation's utility is host
//! workload — a plan on idle hosts is worth more to the provider — with
//! equal weights a = b (§4.2.2).

use recloud_apps::{DeploymentPlan, WorkloadMap};
use recloud_topology::{distance, Topology};

/// Scores a (plan, reliability) pair into the measure the search drives.
pub trait Objective {
    /// The holistic measure M for a plan whose assessed reliability is
    /// `reliability`. Higher is better.
    fn measure(&self, plan: &DeploymentPlan, reliability: f64) -> f64;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Reliability is the only objective (the §4.2.3 performance experiments
/// and the default deployment scenario).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReliabilityObjective;

impl Objective for ReliabilityObjective {
    fn measure(&self, _plan: &DeploymentPlan, reliability: f64) -> f64 {
        reliability
    }

    fn name(&self) -> &'static str {
        "reliability"
    }
}

/// Eq 7: M = a·reliability + b·utility, with utility = 1 − average
/// workload of the plan's hosts (idle hosts are useful hosts).
#[derive(Clone, Debug)]
pub struct HolisticObjective {
    /// Reliability weight a.
    pub a: f64,
    /// Utility weight b.
    pub b: f64,
    workload: WorkloadMap,
}

impl HolisticObjective {
    /// Builds the objective with explicit weights.
    ///
    /// # Panics
    /// Panics if either weight is negative or both are zero.
    pub fn new(a: f64, b: f64, workload: WorkloadMap) -> Self {
        assert!(a >= 0.0 && b >= 0.0, "weights must be non-negative");
        assert!(a + b > 0.0, "at least one weight must be positive");
        HolisticObjective { a, b, workload }
    }

    /// The paper's evaluation setting: equal weights (§4.2.2). Weights are
    /// normalized to sum to 1 so M stays in [0, 1].
    pub fn equal_weights(workload: WorkloadMap) -> Self {
        Self::new(0.5, 0.5, workload)
    }

    /// The utility term of a plan: 1 − mean workload of its hosts.
    pub fn utility(&self, plan: &DeploymentPlan) -> f64 {
        1.0 - self.workload.average(plan.all_hosts())
    }

    /// Read access to the workload map (e.g. for near-real-time updates
    /// between searches).
    pub fn workload(&self) -> &WorkloadMap {
        &self.workload
    }
}

impl Objective for HolisticObjective {
    fn measure(&self, plan: &DeploymentPlan, reliability: f64) -> f64 {
        self.a * reliability + self.b * self.utility(plan)
    }

    fn name(&self) -> &'static str {
        "holistic"
    }
}

/// Application-performance objective (§3.3.3: "some application
/// components may need to be co-located as they frequently interact"):
/// M = a·reliability + b·proximity, where proximity = 1 − mean pairwise
/// hop distance of the plan's hosts normalized by the topology diameter.
///
/// Reliability pulls instances *apart* (distinct pods, distinct power
/// supplies); proximity pulls them *together* — combining the two exposes
/// exactly the trade-off the paper motivates multi-objective search with.
#[derive(Clone, Debug)]
pub struct LatencyObjective {
    /// Reliability weight a.
    pub a: f64,
    /// Proximity weight b.
    pub b: f64,
    topology: Topology,
    diameter: f64,
}

impl LatencyObjective {
    /// Builds the objective with explicit weights.
    ///
    /// # Panics
    /// Panics if either weight is negative or both are zero.
    pub fn new(a: f64, b: f64, topology: &Topology) -> Self {
        assert!(a >= 0.0 && b >= 0.0, "weights must be non-negative");
        assert!(a + b > 0.0, "at least one weight must be positive");
        let diameter = distance::diameter_bound(topology) as f64;
        LatencyObjective { a, b, topology: topology.clone(), diameter }
    }

    /// Equal weights, normalized into [0, 1].
    pub fn equal_weights(topology: &Topology) -> Self {
        Self::new(0.5, 0.5, topology)
    }

    /// The proximity term of a plan: 1 at zero mean distance, 0 at the
    /// diameter bound.
    pub fn proximity(&self, plan: &DeploymentPlan) -> f64 {
        let hosts: Vec<_> = plan.all_hosts().collect();
        let mean = distance::mean_pairwise_distance(&self.topology, &hosts);
        (1.0 - mean / self.diameter).clamp(0.0, 1.0)
    }
}

impl Objective for LatencyObjective {
    fn measure(&self, plan: &DeploymentPlan, reliability: f64) -> f64 {
        self.a * reliability + self.b * self.proximity(plan)
    }

    fn name(&self) -> &'static str {
        "latency"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_apps::ApplicationSpec;
    use recloud_topology::FatTreeParams;

    #[test]
    fn reliability_objective_is_identity() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
        assert_eq!(ReliabilityObjective.measure(&plan, 0.97), 0.97);
    }

    #[test]
    fn holistic_prefers_idle_hosts_at_equal_reliability() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let m = t.fat_tree().unwrap();
        let busy_hosts = vec![m.host(0, 0, 0), m.host(1, 0, 0)];
        let idle_hosts = vec![m.host(2, 0, 0), m.host(2, 1, 0)];
        let mut w = WorkloadMap::uniform(&t, 0.2);
        for &h in &busy_hosts {
            w.set(h, 0.8);
        }
        let obj = HolisticObjective::equal_weights(w);
        let busy = DeploymentPlan::new(&spec, vec![busy_hosts]);
        let idle = DeploymentPlan::new(&spec, vec![idle_hosts]);
        assert!(obj.measure(&idle, 0.99) > obj.measure(&busy, 0.99));
        // Utility term is 1 - average load.
        assert!((obj.utility(&idle) - 0.8).abs() < 1e-12);
        assert!((obj.utility(&busy) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn weights_trade_off() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 1);
        let h = t.hosts()[0];
        let mut w = WorkloadMap::uniform(&t, 0.0);
        w.set(h, 1.0); // fully loaded host: utility 0
        let plan = DeploymentPlan::new(&spec, vec![vec![h]]);
        let rel_heavy = HolisticObjective::new(1.0, 0.0, w.clone());
        let util_heavy = HolisticObjective::new(0.0, 1.0, w);
        assert_eq!(rel_heavy.measure(&plan, 0.9), 0.9);
        assert_eq!(util_heavy.measure(&plan, 0.9), 0.0);
    }

    #[test]
    fn equal_weights_keep_measure_in_unit_interval() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 3);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..3].to_vec()]);
        let obj = HolisticObjective::equal_weights(WorkloadMap::paper_default(&t, 1));
        for r in [0.0, 0.5, 0.9999, 1.0] {
            let m = obj.measure(&plan, r);
            assert!((0.0..=1.0).contains(&m), "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn zero_weights_rejected() {
        let t = FatTreeParams::new(4).build();
        HolisticObjective::new(0.0, 0.0, WorkloadMap::uniform(&t, 0.1));
    }

    #[test]
    fn latency_objective_prefers_colocated_plans_at_equal_reliability() {
        let t = FatTreeParams::new(4).build();
        let m = t.fat_tree().unwrap();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let near = DeploymentPlan::new(&spec, vec![vec![m.host(0, 0, 0), m.host(0, 0, 1)]]);
        let far = DeploymentPlan::new(&spec, vec![vec![m.host(0, 0, 0), m.host(2, 1, 1)]]);
        let obj = LatencyObjective::equal_weights(&t);
        assert!(obj.measure(&near, 0.99) > obj.measure(&far, 0.99));
        // Proximity is 1 - mean/diameter: same-edge = 1 - 2/6, cross = 0.
        assert!((obj.proximity(&near) - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
        assert!(obj.proximity(&far) < 1e-12);
    }

    #[test]
    fn latency_objective_trades_off_against_reliability() {
        let t = FatTreeParams::new(4).build();
        let m = t.fat_tree().unwrap();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let near = DeploymentPlan::new(&spec, vec![vec![m.host(0, 0, 0), m.host(0, 0, 1)]]);
        let far = DeploymentPlan::new(&spec, vec![vec![m.host(0, 0, 0), m.host(2, 1, 1)]]);
        // With a big enough reliability edge, the far plan must win even
        // under the latency objective.
        let obj = LatencyObjective::equal_weights(&t);
        assert!(obj.measure(&far, 0.999) > obj.measure(&near, 0.2));
    }
}
