//! Quickstart: deploy a 4-of-5 redundant application into a small cloud.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's evaluation environment at Tiny scale (fat-tree with
//! a dedicated border pod, five shared power supplies), asks reCloud for
//! a deployment plan for 5 instances with at least 4 required alive, and
//! prints the plan with its quantitative reliability assessment.

use recloud::assess::engine::check_fits;
use recloud::prelude::*;

fn main() {
    // A k=8 fat-tree: 112 hosts, 76 switches, 5 power supplies assigned
    // round-robin — exactly the paper's "Tiny" data center.
    let topology = FatTreeParams::new(8).build();
    println!(
        "data center: {} hosts, {} switches, {} power supplies",
        topology.num_hosts(),
        topology.num_switches(),
        topology.power_supplies().len()
    );

    // Paper fault model: switches ~ N(0.008, 0.001), everything else
    // ~ N(0.01, 0.001), plus power-supply dependency fault trees. The
    // engine is the one the `recloud` CLI and the daemon build.
    let seed = 42;
    let mut engine = Engine::new(&topology, seed, SamplerKind::ExtendedDagger);

    // Developer requirements (§2.2): N = 5, K = 4, a search over 20,000
    // candidate plans, 10^4 route-and-check rounds per plan.
    let spec = ApplicationSpec::k_of_n(4, 5);
    check_fits(engine.topology(), &spec).expect("the Tiny data center can host 5 instances");
    let config = ParallelSearchConfig::new(1, SearchConfig::iterations(20_000, 10_000, seed));
    let searcher = ParallelSearcher::new(&topology, engine.at(seed).model().clone());
    let search = searcher.search(&spec, &ReliabilityObjective, &config, None, None);
    let outcome = &search.best;

    println!("\nchosen deployment plan:");
    for (i, host) in outcome.best_plan.hosts_of(0).iter().enumerate() {
        let pos = topology.fat_tree().unwrap().host_position(*host);
        println!(
            "  instance {i}: {host} (pod {}, rack {}, power {})",
            pos.pod,
            topology.rack_of(*host),
            topology.power_of(*host).unwrap()
        );
    }
    println!(
        "\nreliability: {:.4} (95% CI width {:.1e})",
        outcome.best_reliability, outcome.best_ciw95
    );
    println!(
        "expected annual downtime: {:.1} hours ({} plans explored in {:?})",
        (1.0 - outcome.best_reliability) * 365.25 * 24.0,
        outcome.stats.plans_assessed,
        search.elapsed
    );
}
