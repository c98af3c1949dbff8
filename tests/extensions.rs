//! Integration tests for the extension features: sequential stopping,
//! plan comparison, the latency objective, and the extra data-center
//! architectures.

use recloud::assess::engine::check_fits;
use recloud::assess::{compare_plans, DrivenAssessment};
use recloud::prelude::*;
use recloud::topology::{BCubeParams, Topology, Vl2Params};
use std::ops::ControlFlow;

fn paper_model(t: &Topology, seed: u64) -> FaultModel {
    FaultModel::paper_default(t, seed)
}

/// Sequential stopping: chunks of rounds until the 95% CI width is at
/// most `target`, or `ceiling` rounds.
fn assess_to_target(
    assessor: &mut Assessor,
    spec: &ApplicationSpec,
    plan: &DeploymentPlan,
    target: f64,
    ceiling: usize,
    seed: u64,
) -> DrivenAssessment {
    assessor.drive(spec, plan, ceiling, seed, Some(target), &mut |_| ControlFlow::Continue(()))
}

#[test]
fn sequential_assessment_spends_rounds_where_needed() {
    let t = FatTreeParams::new(8).build();
    let model = paper_model(&t, 3);
    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut rng = Rng::new(1);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let mut assessor = Assessor::new(&t, model);

    let loose = assess_to_target(&mut assessor, &spec, &plan, 0.02, 200_000, 5);
    let tight = assess_to_target(&mut assessor, &spec, &plan, 0.004, 200_000, 5);
    assert!(!loose.completed, "the loose target is met before the ceiling");
    assert!(
        tight.assessment.estimate.rounds > loose.assessment.estimate.rounds,
        "tighter target must consume more rounds: {} vs {}",
        tight.assessment.estimate.rounds,
        loose.assessment.estimate.rounds
    );
    assert!(loose.assessment.estimate.ciw95() <= 0.02);
}

#[test]
fn comparator_prefers_power_diverse_plans() {
    // Two explicit plans: one stacks all instances on host groups sharing
    // a supply; the other spreads over distinct supplies. The comparator
    // must rank the diverse plan first (they are far apart in score).
    let t = FatTreeParams::new(8).build();
    let model = paper_model(&t, 9);
    let spec = ApplicationSpec::k_of_n(2, 3);
    let supply_of = |h: &ComponentId| t.power_of(*h).unwrap();
    let hosts = t.hosts();
    let shared_supply = supply_of(&hosts[0]);
    let stacked: Vec<ComponentId> =
        hosts.iter().copied().filter(|h| supply_of(h) == shared_supply).take(3).collect();
    let mut diverse: Vec<ComponentId> = Vec::new();
    for &h in hosts {
        if diverse.iter().all(|d| supply_of(d) != supply_of(&h)) {
            diverse.push(h);
        }
        if diverse.len() == 3 {
            break;
        }
    }
    let plans =
        vec![DeploymentPlan::new(&spec, vec![stacked]), DeploymentPlan::new(&spec, vec![diverse])];
    let mut assessor = Assessor::new(&t, model);
    let cmp = compare_plans(&mut assessor, &spec, &plans, 40_000, 2);
    assert_eq!(cmp.best_index(), 1, "the power-diverse plan must win");
    assert!(!cmp.ranking[1].tied_with_best, "the gap should be decisive");
}

#[test]
fn bcube_hosts_relay_traffic() {
    // In BCube, servers forward packets: killing a *host* can disconnect
    // nothing else (level-0 neighbors have level-1 paths), but killing
    // all switches a host can reach isolates it even if alive.
    let t = BCubeParams::new(4, 1).build();
    let model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.01), 1);
    let spec = ApplicationSpec::k_of_n(1, 2);
    let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
    let mut assessor = Assessor::new(&t, model);
    let r = assessor.assess(&spec, &plan, 5_000, 1);
    assert!(r.estimate.score > 0.9, "BCube assessment sane: {}", r.estimate.score);
}

#[test]
fn vl2_deploys_end_to_end() {
    let t = Vl2Params::new(8, 4).servers_per_tor(10).build();
    let spec = ApplicationSpec::k_of_n(2, 3);
    let seed = 2;
    let mut engine = Engine::new(&t, seed, SamplerKind::ExtendedDagger);
    check_fits(engine.topology(), &spec).unwrap();
    let searcher = ParallelSearcher::new(&t, engine.at(seed).model().clone());
    let config = ParallelSearchConfig::new(1, SearchConfig::iterations(30, 2_000, seed));
    let out = searcher.search(&spec, &ReliabilityObjective, &config, None, None).best;
    assert!(out.best_reliability > 0.8, "{}", out.best_reliability);
    // ToR-diverse plans should emerge naturally.
    let mut racks: Vec<_> = out.best_plan.all_hosts().map(|h| t.rack_of(h)).collect();
    racks.sort();
    racks.dedup();
    assert!(racks.len() >= 2);
}

#[test]
fn latency_objective_pulls_instances_together() {
    // Anneal from the search's own random start under a
    // proximity-dominated objective: the mean pairwise distance must
    // drop. Using a pure proximity weight makes the measure
    // deterministic, so the improvement is not a sampling artifact.
    let t = FatTreeParams::new(8).build();
    let model = paper_model(&t, 4);
    let spec = ApplicationSpec::k_of_n(1, 3);
    let obj = LatencyObjective::new(0.0, 1.0, &t); // proximity only
    let config = SearchConfig::iterations(200, 200, 31);

    // Step 1 draws the start from the search seed; its measure is the
    // first point of the trajectory.
    let start = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(config.seed));
    let start_hosts: Vec<_> = start.all_hosts().collect();
    let start_distance = recloud::topology::mean_pairwise_distance(&t, &start_hosts);
    assert_eq!(start_distance, 6.0, "three instances in three pods");

    let mut assessor = Assessor::new(&t, model);
    let mut searcher = Searcher::new(&mut assessor);
    let out = searcher.search(&spec, &obj, &config, None);
    assert_eq!(out.trajectory[0].measure, obj.measure(&start, 0.0), "the search starts there");
    let hosts: Vec<_> = out.best_plan.all_hosts().collect();
    let packed = recloud::topology::mean_pairwise_distance(&t, &hosts);
    assert!(packed < start_distance, "proximity objective must reduce mean distance: {packed}");
    assert!(packed <= 4.0, "200 proximity-driven moves should co-locate: {packed}");
}

#[test]
fn whole_pipeline_with_every_extension_stacked() {
    // Power + shared software dependencies + latency-aware
    // multi-objective + placement rules + sequential assessment:
    // everything composes.
    let t = FatTreeParams::new(8).build();
    let model = stacked_model(&t);

    let spec = ApplicationSpec::layered(&[(2, 3), (1, 2)]);
    let mut assessor = Assessor::new(&t, model);
    let mut searcher = Searcher::new(&mut assessor);
    let mut config = SearchConfig::iterations(25, 1_000, 17);
    config.rules = PlacementRules::distinct_racks();
    let obj = LatencyObjective::new(0.8, 0.2, &t);
    let out = searcher.search(&spec, &obj, &config, None);
    assert!(out.best_reliability > 0.8, "{}", out.best_reliability);
    assert!(config.rules.check(&out.best_plan, &t, None));

    // And a sequential re-assessment of the winner converges.
    let seq = searcher_assess(&t, out);
    assert!(seq > 0.8);
}

fn stacked_model(t: &Topology) -> FaultModel {
    let mut model = FaultModel::paper_default(t, 6);
    model.attach_shared_software(t, 2, 0.004, 0.001);
    model
}

fn searcher_assess(t: &Topology, out: SearchOutcome) -> f64 {
    let mut assessor = Assessor::new(t, stacked_model(t));
    let spec = ApplicationSpec::layered(&[(2, 3), (1, 2)]);
    assess_to_target(&mut assessor, &spec, &out.best_plan, 0.02, 100_000, 99)
        .assessment
        .estimate
        .score
}
