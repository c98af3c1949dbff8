//! Does a search's reported estimate hold on tables it never saw?
//!
//! On the Medium preset, for 1-of-2, 2-of-3 and 4-of-5 and model seeds
//! 1–8, one chain anneals for 3,000 iterations at 10⁴ rounds. Its answer
//! is then re-assessed on the same model over 3 × 200,000 fresh rounds,
//! and the test counts how often the reported
//! `best_reliability ± best_ciw95 / 2` contains that fresh value.
//!
//! An honest 95 % interval misses now and then: with 8 answers a shape
//! it covers all 8 only 66 % of the time, but misses 3 or more under
//! 0.6 % of the time. So a shape fails at 3 misses. For scale, the same
//! search answering from the table it chose its plan on missed 8 of 8 at
//! 1-of-2 (EXPERIMENTS.md, "Held-out answers").
//!
//! Release only (a few seconds there):
//!
//! ```text
//! cargo test --release -p recloud-search --test holdout -- --ignored --nocapture
//! ```

use recloud_apps::ApplicationSpec;
use recloud_assess::Assessor;
use recloud_faults::FaultModel;
use recloud_sampling::derive_seed;
use recloud_search::{ReliabilityObjective, SearchConfig, Searcher};
use recloud_topology::Scale;

const SEEDS: u64 = 8;
const ITERATIONS: usize = 3_000;
const ROUNDS: usize = 10_000;
const FRESH_RUNS: u64 = 3;
const FRESH_ROUNDS: usize = 200_000;
/// Misses a shape may have: 3 of 8 happen under 0.6 % of the time to an
/// honest 95 % interval.
const MAX_MISSES: u64 = 2;
/// Seed stream of the fresh re-assessments, far from any search's
/// tables.
const FRESH_STREAM: u64 = 1 << 52;

#[test]
#[ignore = "release-only measurement"]
fn reported_ciw_covers_a_fresh_reassessment() {
    let t = Scale::Medium.build();
    let mut short = Vec::new();
    for (k, n) in [(1, 2), (2, 3), (4, 5)] {
        let spec = ApplicationSpec::k_of_n(k, n);
        let mut misses = 0;
        let mut understated = Vec::new();
        for seed in 1..=SEEDS {
            let mut assessor = Assessor::new(&t, FaultModel::paper_default(&t, seed));
            let config = SearchConfig::iterations(ITERATIONS, ROUNDS, seed);
            let out =
                Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &config, None);
            let (mut rounds, mut successes) = (0, 0);
            for run in 0..FRESH_RUNS {
                let fresh_seed = derive_seed(seed, FRESH_STREAM + run);
                let e = assessor.assess(&spec, &out.best_plan, FRESH_ROUNDS, fresh_seed).estimate;
                rounds += e.rounds;
                successes += e.successes;
            }
            let fresh = successes as f64 / rounds as f64;
            let hit = (out.best_reliability - fresh).abs() <= out.best_ciw95 / 2.0;
            misses += u64::from(!hit);
            understated.push((1.0 - fresh) / (1.0 - out.best_reliability));
            println!(
                "{k}-of-{n} seed {seed}: reported {:.5} ± {:.1e}, fresh {fresh:.5} ({})",
                out.best_reliability,
                out.best_ciw95 / 2.0,
                if hit { "covered" } else { "missed" }
            );
        }
        let mean = understated.iter().sum::<f64>() / understated.len() as f64;
        println!(
            "{k}-of-{n}: covered {} of {SEEDS}; fresh / reported unreliability {mean:.2}x on the \
             mean",
            SEEDS - misses
        );
        if misses > MAX_MISSES {
            short.push(format!("{k}-of-{n} missed {misses} of {SEEDS}"));
        }
    }
    assert!(short.is_empty(), "reported intervals miss too often: {}", short.join(", "));
}
