//! Integration tests for the extension features: sequential stopping,
//! plan comparison, migration-aware re-deployment, Fig 5 templates, and
//! the extra data-center architectures.

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
fn migration_penalty_reduces_churn_during_readaptation() {
    let t = FatTreeParams::new(8).build();
    let model = paper_model(&t, 7);
    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut rng = Rng::new(11);
    let incumbent = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

    let run = |penalty: f64| {
        let mut assessor = Assessor::new(&t, model.clone());
        let mut searcher = Searcher::new(&mut assessor);
        let base = ReliabilityObjective;
        let obj = MigrationObjective::new(&base, incumbent.clone(), penalty);
        let mut config = SearchConfig::iterations(40, 1_500, 21);
        config.initial_plan = Some(incumbent.clone());
        let out = searcher.search(&spec, &obj, &config, None);
        migration_cost(&incumbent, &out.best_plan)
    };
    let churn_free = run(0.0);
    let churn_heavy = run(2.0);
    assert!(
        churn_heavy <= churn_free,
        "penalty must not increase churn: {churn_heavy} vs {churn_free}"
    );
    assert!(churn_heavy <= 2, "heavy penalty should keep churn tiny");
}

#[test]
fn fig5_template_flows_through_full_assessment() {
    let t = FatTreeParams::new(8).build();
    let mut model = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 5);
    let _events = Fig5Template::default().apply(&t, &mut model);
    let plain = FaultModel::paper_default(&t, 5);

    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut rng = Rng::new(3);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let r_template = Assessor::new(&t, model).assess(&spec, &plan, 40_000, 1);
    let r_plain = Assessor::new(&t, plain).assess(&spec, &plan, 40_000, 1);
    // Redundant power removes the single-supply blast radius; even though
    // the template *adds* cooling/software failure modes, the dominant
    // single-supply correlated failures disappear, so reliability rises.
    assert!(
        r_template.estimate.score > r_plain.estimate.score,
        "redundant supplies must pay off: {} vs {}",
        r_template.estimate.score,
        r_plain.estimate.score
    );
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
    let svc = ReCloud::paper_default(&t, 2);
    let spec = ApplicationSpec::k_of_n(2, 3);
    let req =
        Requirements::paper_default().budget(std::time::Duration::from_millis(300)).rounds(2_000);
    let out = svc.deploy(&spec, &req).unwrap();
    assert!(out.reliability > 0.8, "{}", out.reliability);
    // ToR-diverse plans should emerge naturally.
    let mut racks: Vec<_> = out.plan.all_hosts().map(|h| t.rack_of(h)).collect();
    racks.sort();
    racks.dedup();
    assert!(racks.len() >= 2);
}

#[test]
fn latency_objective_pulls_instances_together() {
    // Start from a maximally spread plan (three pods, distance 6) and
    // anneal under a proximity-dominated objective: the mean pairwise
    // distance must drop. Using a pure proximity weight makes the measure
    // deterministic, so the improvement is not a sampling artifact.
    let t = FatTreeParams::new(8).build();
    let model = paper_model(&t, 4);
    let spec = ApplicationSpec::k_of_n(1, 3);
    let meta = t.fat_tree().unwrap();
    let spread_plan = DeploymentPlan::new(
        &spec,
        vec![vec![meta.host(0, 0, 0), meta.host(2, 1, 0), meta.host(4, 2, 0)]],
    );
    let start_distance = {
        let hosts: Vec<_> = spread_plan.all_hosts().collect();
        recloud::topology::mean_pairwise_distance(&t, &hosts)
    };
    assert_eq!(start_distance, 6.0);

    let mut assessor = Assessor::new(&t, model);
    let mut searcher = Searcher::new(&mut assessor);
    let obj = LatencyObjective::new(0.0, 1.0, &t); // proximity only
    let mut config = SearchConfig::iterations(200, 200, 31);
    config.initial_plan = Some(spread_plan);
    let out = searcher.search(&spec, &obj, &config, None);
    let hosts: Vec<_> = out.best_plan.all_hosts().collect();
    let packed = recloud::topology::mean_pairwise_distance(&t, &hosts);
    assert!(packed < start_distance, "proximity objective must reduce mean distance: {packed}");
    assert!(packed <= 4.0, "200 proximity-driven moves should co-locate: {packed}");
}

#[test]
fn whole_pipeline_with_every_extension_stacked() {
    // Fig5 template + shared software + latency-aware multi-objective +
    // placement rules + sequential assessment: everything composes.
    let t = FatTreeParams::new(8).build();
    let mut model = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 6);
    Fig5Template::default().apply(&t, &mut model);
    model.attach_shared_software(&t, 2, 0.004, 0.001);

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

fn searcher_assess(t: &Topology, out: SearchOutcome) -> f64 {
    let mut model = FaultModel::new(t, &ProbabilityConfig::PaperDefault, 6);
    Fig5Template::default().apply(t, &mut model);
    model.attach_shared_software(t, 2, 0.004, 0.001);
    let mut assessor = Assessor::new(t, model);
    let spec = ApplicationSpec::layered(&[(2, 3), (1, 2)]);
    assess_to_target(&mut assessor, &spec, &out.best_plan, 0.02, 100_000, 99)
        .assessment
        .estimate
        .score
}
