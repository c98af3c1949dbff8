//! The event-driven availability simulator.
//!
//! Every fallible event (topology component or auxiliary dependency)
//! runs an alternating renewal process; a binary-heap event queue drives
//! the simulation from transition to transition. At each transition the
//! affected component's raw state flips, the fault-tree-dependent
//! effective states are incrementally recomputed (only the components
//! whose trees reference the flipped event), and the application's
//! structural requirement is re-checked. Time between transitions is
//! credited to up- or downtime according to the check before the
//! transition.
//!
//! This is the ground-truth *dynamic* model: the static pipeline's
//! reliability score must match the simulator's long-run availability
//! when per-component unavailabilities are matched (tests and the
//! cross-validation in `tests/` assert this).

use crate::process::ComponentProcess;
use crate::report::AvailabilityReport;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::StructureChecker;
use recloud_faults::FaultModel;
use recloud_routing::make_router;
use recloud_sampling::{BitMatrix, Rng};
use recloud_topology::{ComponentId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation controls.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Simulated horizon, in hours. One year ≈ 8766; availabilities in
    /// the 99.9% range need many simulated years to show enough outages.
    pub horizon_hours: f64,
    /// Seed for all stochastic draws.
    pub seed: u64,
}

/// Heap key: next transition time (finite, total-ordered).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("simulation times are finite")
    }
}

/// Continuous-time availability simulator over one fault model.
pub struct AvailabilitySimulator {
    topology: Topology,
    model: FaultModel,
    processes: Vec<Option<ComponentProcess>>,
    /// event id -> topology components whose fault tree references it.
    dependents: Vec<Vec<u32>>,
}

impl AvailabilitySimulator {
    /// Builds a simulator whose per-event steady-state unavailability
    /// matches the fault model's probabilities, with a uniform repair
    /// time (`mttr_hours`, e.g. 8 hours). Events with zero probability
    /// never fail.
    pub fn new(topology: &Topology, model: FaultModel, mttr_hours: f64) -> Self {
        let processes = model
            .probs()
            .iter()
            .map(|&p| {
                (p > 0.0).then(|| ComponentProcess::from_unavailability(p.min(0.999), mttr_hours))
            })
            .collect();
        let mut dependents = vec![Vec::new(); model.num_events()];
        for c in 0..model.num_topology_components() {
            if let Some(tree) = model.tree_of(ComponentId::from_index(c)) {
                for event in tree.basic_events() {
                    dependents[event.index()].push(c as u32);
                }
            }
        }
        AvailabilitySimulator { topology: topology.clone(), model, processes, dependents }
    }

    /// Runs the simulation for one deployment plan.
    pub fn simulate(
        &self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        params: SimParams,
    ) -> AvailabilityReport {
        let mut rng = Rng::new(params.seed);
        let n_events = self.model.num_events();
        let mut raw = BitMatrix::new(n_events, 1);
        let mut collapsed = BitMatrix::new(self.model.num_topology_components(), 1);
        // All components start up; collapsed starts all-alive too.
        let mut router = make_router(&self.topology);
        let mut checker = StructureChecker::new(spec, plan);

        // Schedule every fallible event's first failure.
        let mut heap: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        for (e, proc_) in self.processes.iter().enumerate() {
            if let Some(p) = proc_ {
                heap.push(Reverse((Time(p.draw_uptime(&mut rng)), e as u32)));
            }
        }

        let mut now = 0.0f64;
        let mut up_time = 0.0f64;
        let mut outages = 0u64;
        let mut outage_durations: Vec<f64> = Vec::new();
        let mut current_outage_start: Option<f64> = None;
        let mut transitions = 0u64;

        router.begin_round(&collapsed, 0);
        let mut ok = checker.round_reliable(router.as_mut(), &collapsed, 0);
        debug_assert!(ok, "an all-up world must satisfy the requirement");

        while let Some(Reverse((Time(t), e))) = heap.pop() {
            let t_clamped = t.min(params.horizon_hours);
            let dt = t_clamped - now;
            if ok {
                up_time += dt;
            }
            now = t_clamped;
            if t >= params.horizon_hours {
                break;
            }
            transitions += 1;

            // Flip the event's state and schedule its next transition.
            let was_down = raw.get(e as usize, 0);
            if was_down {
                raw.unset(e as usize, 0);
            } else {
                raw.set(e as usize, 0);
            }
            let proc_ = self.processes[e as usize].expect("only fallible events are scheduled");
            let next = if was_down {
                proc_.draw_uptime(&mut rng) // now up; next event is a failure
            } else {
                proc_.draw_downtime(&mut rng) // now down; next event is the repair
            };
            heap.push(Reverse((Time(now + next), e)));

            // Incrementally refresh effective states: the event itself
            // (when it is a topology component) plus every tree that
            // references it.
            if (e as usize) < self.model.num_topology_components() {
                self.refresh(&raw, &mut collapsed, e);
            }
            for &c in &self.dependents[e as usize] {
                self.refresh(&raw, &mut collapsed, c);
            }

            // Re-check the structure.
            router.begin_round(&collapsed, 0);
            let now_ok = checker.round_reliable(router.as_mut(), &collapsed, 0);
            if ok && !now_ok {
                outages += 1;
                current_outage_start = Some(now);
            } else if !ok && now_ok {
                if let Some(start) = current_outage_start.take() {
                    outage_durations.push(now - start);
                }
            }
            ok = now_ok;
        }
        // Horizon may end mid-state: credit the tail.
        if now < params.horizon_hours {
            if ok {
                up_time += params.horizon_hours - now;
            } else if let Some(start) = current_outage_start.take() {
                outage_durations.push(params.horizon_hours - start);
            }
        } else if let Some(start) = current_outage_start.take() {
            outage_durations.push(params.horizon_hours - start);
        }

        AvailabilityReport::new(
            params.horizon_hours,
            up_time,
            outages,
            outage_durations,
            transitions,
        )
    }

    fn refresh(&self, raw: &BitMatrix, collapsed: &mut BitMatrix, c: u32) {
        if self.model.effective_failed(raw, ComponentId(c), 0) {
            collapsed.set(c as usize, 0);
        } else {
            collapsed.unset(c as usize, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_apps::ApplicationSpec;
    use recloud_faults::ProbabilityConfig;
    use recloud_topology::{ComponentKind, FatTreeParams, TopologyBuilder};

    #[test]
    fn all_reliable_world_is_fully_available() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        let sim = AvailabilitySimulator::new(&t, model, 8.0);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
        let r = sim.simulate(&spec, &plan, SimParams { horizon_hours: 10_000.0, seed: 1 });
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.outages, 0);
        assert_eq!(r.transitions, 0);
    }

    #[test]
    fn single_component_availability_matches_steady_state() {
        // One host behind a perfect switch: availability of a 1-of-1
        // plan = host's uptime fraction = 1 - p.
        let mut b = TopologyBuilder::new();
        b.external();
        let sw = b.add(ComponentKind::BorderSwitch);
        b.mark_border(sw);
        let h = b.add(ComponentKind::Host);
        b.connect(sw, h);
        let t = b.build();
        let mut model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        model.set_prob(h, 0.05);
        let sim = AvailabilitySimulator::new(&t, model, 10.0);
        let spec = ApplicationSpec::k_of_n(1, 1);
        let plan = DeploymentPlan::new(&spec, vec![vec![h]]);
        let r = sim.simulate(&spec, &plan, SimParams { horizon_hours: 3_000_000.0, seed: 5 });
        assert!(
            (r.availability() - 0.95).abs() < 0.002,
            "availability {} vs 0.95",
            r.availability()
        );
        assert!(r.outages > 1_000, "outages {}", r.outages);
        // Mean outage duration ≈ MTTR.
        assert!((r.mean_outage_hours() - 10.0).abs() < 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::paper_default(&t, 3);
        let sim = AvailabilitySimulator::new(&t, model, 8.0);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
        let p = SimParams { horizon_hours: 50_000.0, seed: 9 };
        let a = sim.simulate(&spec, &plan, p);
        let b = sim.simulate(&spec, &plan, p);
        assert_eq!(a.availability(), b.availability());
        assert_eq!(a.outages, b.outages);
    }

    #[test]
    fn correlated_power_outages_hit_both_hosts() {
        // Two hosts on one supply, 1-of-2 requirement: supply failures
        // bound availability above by 1 - p_supply even though hosts are
        // perfect.
        let mut b = TopologyBuilder::new();
        b.external();
        let sw = b.add(ComponentKind::BorderSwitch);
        b.mark_border(sw);
        let hosts = b.add_hosts(2);
        for &h in &hosts {
            b.connect(sw, h);
        }
        let p = b.add(ComponentKind::PowerSupply);
        b.draw_power(hosts[0], p);
        b.draw_power(hosts[1], p);
        let t = b.build();
        let mut model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        model.set_prob(p, 0.04);
        model.attach_power_dependencies(&t);
        let sim = AvailabilitySimulator::new(&t, model, 12.0);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![hosts]);
        let r = sim.simulate(&spec, &plan, SimParams { horizon_hours: 2_000_000.0, seed: 2 });
        assert!(
            (r.availability() - 0.96).abs() < 0.003,
            "availability {} vs 0.96",
            r.availability()
        );
    }
}
