//! Working with limited dependency information (§3.4) and non-fat-tree
//! architectures (§3.1's generality claim).
//!
//! ```text
//! cargo run --release --example limited_info
//! ```
//!
//! Part 1 — limited information: a provider that has *no measured failure
//! probabilities* assigns a uniform default (§3.4). reCloud still finds
//! plans that avoid shared dependencies; only the absolute score loses
//! calibration. We show the same search with (a) network-only knowledge,
//! (b) + power dependencies, (c) + CVSS-estimated software probabilities.
//!
//! Part 2 — generality: the identical pipeline runs on a Jellyfish random
//! graph, where route-and-check automatically falls back to generic BFS.

use recloud::prelude::*;
use recloud::search::common_practice::power_diversity;

/// Annual failure probability of a software component from the CVSS base
/// scores (each in `[0, 10]`) of its known vulnerabilities. §2.1 allows
/// software probabilities "estimated using the publicly-available CVSS
/// scores"; following the attack-graph work it cites, each score drives
/// an exponential-exposure model `p = 1 − exp(−λ · score / 10)` with
/// λ = 0.0105, so a CVSS-10 flaw fails ≈ 1 % a year, in line with §4.1's
/// N(0.01, 0.001) for non-switch hardware. The component fails if any of
/// its vulnerabilities is triggered (independence).
fn combined_cvss_probability(scores: &[f64]) -> f64 {
    const LAMBDA: f64 = 0.0105;
    let survive: f64 = scores
        .iter()
        .map(|&s| {
            let p = 1.0 - (-LAMBDA * s / 10.0).exp();
            1.0 - p
        })
        .product();
    1.0 - survive
}

fn search_best(topology: &Topology, model: &FaultModel, seed: u64) -> (f64, DeploymentPlan) {
    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut assessor = Assessor::new(topology, model.clone());
    let mut searcher = Searcher::new(&mut assessor);
    let config = SearchConfig {
        budget: SearchBudget::Iterations(40),
        rounds: 4_000,
        ..SearchConfig::paper_default(seed)
    };
    let out = searcher.search(&spec, &ReliabilityObjective, &config, None);
    (out.best_reliability, out.best_plan)
}

fn main() {
    let topology = FatTreeParams::new(8).build();
    let seed = 9;

    println!("part 1: limited dependency information (uniform default p = 0.01)\n");

    // (a) Network dependencies only: hosts/switches and their wiring.
    let network_only = FaultModel::new(&topology, &ProbabilityConfig::Uniform(0.01), seed);
    // (b) + power-supply dependencies.
    let mut with_power = network_only.clone();
    with_power.attach_power_dependencies(&topology);
    // (c) + software stack whose probabilities come from CVSS scores
    //     (§2.1: "estimated using the publicly-available CVSS scores").
    let mut with_software = with_power.clone();
    let os_p = combined_cvss_probability(&[7.8, 5.5]); // two known CVEs
    let lib_p = combined_cvss_probability(&[9.1]);
    with_software.attach_shared_software(&topology, 2, os_p, lib_p);
    println!("CVSS-derived probabilities: os image {os_p:.4}, shared library {lib_p:.4}\n");

    for (name, model) in [
        ("network only", &network_only),
        ("+ power deps", &with_power),
        ("+ software deps", &with_software),
    ] {
        let (rel, plan) = search_best(&topology, model, seed);
        println!(
            "  {name:<16} best reliability {rel:.5}  power diversity {}/{}",
            power_diversity(&topology, &plan),
            topology.power_supplies().len()
        );
    }
    println!("\nNote how richer dependency feeds lower the *score* (more failure modes");
    println!("are visible) while the chosen plans diversify across supplies — the");
    println!("avoidance works even though every probability is a default.\n");

    println!("part 2: same pipeline on a Jellyfish random-graph fabric\n");
    let jelly = JellyfishParams::new(60, 6, 4).border_switches(3).seed(33).build();
    let mut model = FaultModel::new(&jelly, &ProbabilityConfig::Uniform(0.01), seed);
    model.attach_power_dependencies(&jelly);
    let (rel, plan) = search_best(&jelly, &model, seed);
    println!(
        "  jellyfish [{} hosts, {} switches]: best reliability {rel:.5}, \
         racks used: {:?}",
        jelly.num_hosts(),
        jelly.num_switches(),
        plan.all_hosts().map(|h| jelly.rack_of(h).0).collect::<Vec<_>>()
    );
    println!("  (route-and-check selected the generic BFS router automatically)");
}
