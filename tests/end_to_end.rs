//! End-to-end integration: the full §2.2 workflow across crates, through
//! the path the CLI and the daemon take — the engine, the capacity check,
//! then the annealing search.

use recloud::assess::engine::check_fits;
use recloud::prelude::*;
use recloud::search::common_practice::power_diversity;

/// Searches for a plan the way every front door does: the paper-default
/// engine of `seed`, a capacity check, then one annealing chain.
fn deploy(
    topology: &Topology,
    spec: &ApplicationSpec,
    objective: &(dyn Objective + Sync),
    config: SearchConfig,
    workload: Option<&WorkloadMap>,
) -> SearchOutcome {
    let seed = config.seed;
    let mut engine = Engine::new(topology, seed, SamplerKind::ExtendedDagger);
    check_fits(engine.topology(), spec).unwrap();
    let searcher = ParallelSearcher::new(topology, engine.at(seed).model().clone());
    let config = ParallelSearchConfig::new(1, config);
    searcher.search(spec, objective, &config, workload, None).best
}

#[test]
fn deploy_beats_the_average_random_plan() {
    let topology = FatTreeParams::new(8).build();
    let spec = ApplicationSpec::k_of_n(4, 5);
    let config = SearchConfig::iterations(200, 4_000, 3);
    let out = deploy(&topology, &spec, &ReliabilityObjective, config, None);

    // Average reliability of random plans (fresh assessor, independent
    // seeds).
    let model = FaultModel::paper_default(&topology, 3);
    let mut assessor = Assessor::new(&topology, model);
    let mut rng = Rng::new(99);
    let mut sum = 0.0;
    let n = 10;
    for i in 0..n {
        let p = DeploymentPlan::random(&spec, topology.hosts(), &mut rng);
        sum += assessor.assess(&spec, &p, 4_000, 1_000 + i).estimate.score;
    }
    let avg_random = sum / n as f64;
    assert!(
        out.best_reliability >= avg_random,
        "searched plan ({}) must beat the average random plan ({avg_random})",
        out.best_reliability
    );
}

#[test]
fn recloud_beats_enhanced_common_practice_on_unreliability() {
    // The Figure 9 headline, at test scale: reCloud's plan must have
    // meaningfully lower unreliability than enhanced CP. We validate with
    // an independent high-round assessment of both final plans to avoid
    // winner's-curse bias.
    let topology = FatTreeParams::new(16).build();
    let seed = 5;
    let model = FaultModel::paper_default(&topology, seed);
    let workload = WorkloadMap::paper_default(&topology, seed);
    let spec = ApplicationSpec::k_of_n(4, 5);

    let cp_plan = enhanced_common_practice(&topology, &workload, &spec);

    let config = SearchConfig::iterations(80, 5_000, seed);
    let obj = HolisticObjective::equal_weights(workload.clone());
    let out = deploy(&topology, &spec, &obj, config, Some(&workload));

    // Independent validation pass.
    let mut validator = Assessor::new(&topology, model);
    let cp = validator.assess(&spec, &cp_plan, 60_000, 777);
    let rc = validator.assess(&spec, &out.best_plan, 60_000, 777);
    let cp_unrel = 1.0 - cp.estimate.score;
    let rc_unrel = 1.0 - rc.estimate.score;
    assert!(rc_unrel < cp_unrel, "reCloud unreliability {rc_unrel} must beat CP {cp_unrel}");
    // And the reCloud plan should be at least as power-diverse.
    assert!(power_diversity(&topology, &out.best_plan) >= 3);
}

#[test]
fn multi_component_deploy_end_to_end() {
    let topology = FatTreeParams::new(8).build();
    let mut b = ApplicationSpec::builder();
    let fe = b.component("fe", 3);
    let db = b.component("db", 2);
    b.require_external(fe, 2);
    b.require(db, Source::Component(fe), 1);
    let spec = b.build();
    let config = SearchConfig::iterations(80, 3_000, 7);
    let out = deploy(&topology, &spec, &ReliabilityObjective, config, None);
    assert_eq!(out.best_plan.hosts_of(0).len(), 3);
    assert_eq!(out.best_plan.hosts_of(1).len(), 2);
    assert!(out.best_reliability > 0.9);
}

#[test]
fn rules_flow_through_the_service() {
    let topology = FatTreeParams::new(8).build();
    let spec = ApplicationSpec::k_of_n(2, 4);
    let config = SearchConfig {
        rules: PlacementRules::distinct_racks(),
        ..SearchConfig::iterations(200, 1_000, 11)
    };
    let out = deploy(&topology, &spec, &ReliabilityObjective, config, None);
    let mut racks: Vec<_> = out.best_plan.all_hosts().map(|h| topology.rack_of(h)).collect();
    racks.sort();
    racks.dedup();
    assert_eq!(racks.len(), 4, "distinct-racks rule must hold in the final plan");
}

#[test]
fn leaf_spine_deploys_with_generic_router() {
    let topology = LeafSpineParams::new(4, 12, 8).build();
    let spec = ApplicationSpec::k_of_n(2, 3);
    let config = SearchConfig::iterations(40, 1_500, 2);
    let out = deploy(&topology, &spec, &ReliabilityObjective, config, None);
    assert!(out.best_reliability > 0.8, "reliability {}", out.best_reliability);
}

#[test]
fn monte_carlo_service_matches_dagger_statistically() {
    let topology = FatTreeParams::new(8).build();
    let spec = ApplicationSpec::k_of_n(2, 3);
    let plan = DeploymentPlan::new(&spec, vec![topology.hosts()[..3].to_vec()]);
    let assess = |kind| Engine::new(&topology, 5, kind).at(5).assess(&spec, &plan, 50_000, 5);
    let dagger = assess(SamplerKind::ExtendedDagger);
    let mc = assess(SamplerKind::MonteCarlo);
    let gap = (dagger.estimate.score - mc.estimate.score).abs();
    let bound = (dagger.estimate.ciw95() + mc.estimate.ciw95()).max(0.004);
    assert!(gap <= bound, "gap {gap} exceeds {bound}");
}
