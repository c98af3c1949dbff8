//! Deploying a microservices application with a fully-meshed core
//! (§3.2.4, §4.2.3: the "X-Y" structure).
//!
//! ```text
//! cargo run --release --example microservices
//! ```
//!
//! A "3-5" application: 3 core services that must all reach each other,
//! each backed by 5 supporting services reachable from their core —
//! 18 components, 36 instances with 2-of-2... no: every component runs
//! 2 instances and requires 1 reachable. We assess a random placement,
//! then let reCloud search, and show the per-requirement structure the
//! checker enforces.

use recloud::prelude::*;

fn main() {
    let topology = FatTreeParams::new(16).build(); // Small: 960 hosts
    let seed = 11;
    let model = FaultModel::paper_default(&topology, seed);

    // X = 3 cores (full mesh), Y = 5 supports per core, 1-of-2 redundancy
    // per component.
    let spec = ApplicationSpec::microservice(3, 5, 1, 2);
    println!(
        "microservice app: {} components, {} instances, {} requirements, DAG = {}",
        spec.num_components(),
        spec.total_instances(),
        spec.requirements().len(),
        spec.is_dag()
    );

    let rounds = 5_000;
    let mut assessor = Assessor::new(&topology, model.clone());

    // A random plan first.
    let mut rng = Rng::new(seed);
    let random_plan = DeploymentPlan::random(&spec, topology.hosts(), &mut rng);
    let random = assessor.assess(&spec, &random_plan, rounds, seed);
    println!(
        "\nrandom plan:  reliability {:.5} (± {:.1e}), assessed in {:?}",
        random.estimate.score,
        random.estimate.ciw95() / 2.0,
        random.timings.total
    );

    // Let the search improve it.
    let mut searcher = Searcher::new(&mut assessor);
    let config = SearchConfig {
        budget: SearchBudget::Iterations(40),
        rounds,
        ..SearchConfig::paper_default(seed)
    };
    let out = searcher.search(&spec, &ReliabilityObjective, &config, None);
    println!(
        "after search: reliability {:.5} over {} plans in {:?}",
        out.best_reliability, out.stats.plans_assessed, out.elapsed
    );

    // Show where the cores landed: the search spreads them over pods.
    println!("\ncore placements (component: pod list):");
    for c in 0..3 {
        let pods: Vec<u32> =
            out.best_plan.hosts_of(c).iter().map(|&h| topology.pod_of(h)).collect();
        println!("  core-{c}: pods {pods:?}");
    }

    // What-if: force a whole power supply down and re-assess (FIFL-style
    // fault injection through the same pipeline).
    let supply = topology.power_supplies()[0];
    let mut raw = recloud::sampling::BitMatrix::new(model.num_events(), 1);
    let mut injector = FaultInjector::new();
    injector.fail(supply);
    injector.apply(&mut raw);
    let mut collapsed = recloud::sampling::BitMatrix::new(model.num_topology_components(), 1);
    model.collapse_into(&raw, &mut collapsed);
    let dead = topology.hosts().iter().filter(|h| collapsed.get(h.index(), 0)).count();
    println!(
        "\nwhat-if: power supply {supply} fails -> {dead} of {} hosts go down with it",
        topology.num_hosts()
    );
}
