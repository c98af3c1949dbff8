//! `repro answers`: one FNV-1a-64 digest per benchmark workload shape,
//! over everything a caller sees of the answers of its first [`OPS`] ops,
//! run in-process with the workloads' own inputs — op `i` of workload
//! seed `s` draws from `derive_seed(s, i)`, plans come from the fixed
//! universe, the in-process models from the fixed seed. A change that
//! keeps every answer bit-identical prints the same lines;
//! `scripts/ci.sh` compares them with `crates/bench/answers.txt`.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{Assessor, Engine, SamplerKind};
use recloud_faults::FaultModel;
use recloud_sampling::{derive_seed, ReliabilityEstimate, Rng};
use recloud_search::{ReliabilityObjective, SearchConfig, Searcher};
use recloud_topology::{Scale, Topology};
use std::ops::ControlFlow;

/// Ops digested per workload shape.
pub const OPS: u64 = 64;
/// The benchmark's fixed seed: in-process fault models and plan universes.
const FIXED_SEED: u64 = 0x5EED_F17E_D5EE_D001;

/// FNV-1a-64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        words.into_iter().for_each(|v| self.word(v));
    }

    fn estimate(&mut self, e: &ReliabilityEstimate) {
        self.words([e.rounds, e.successes, e.score.to_bits(), e.variance.to_bits()]);
    }

    fn plan(&mut self, plan: &DeploymentPlan) {
        self.words(plan.all_hosts().map(|h| h.index() as u64));
    }
}

/// Plan `j` of the benchmark's fixed plan universe.
fn universe_plan(spec: &ApplicationSpec, topology: &Topology, j: u64) -> DeploymentPlan {
    DeploymentPlan::random(spec, topology.hosts(), &mut Rng::new(derive_seed(FIXED_SEED, j)))
}

/// `(workload, digest)` per shape, for workload seed `seed`.
pub fn digests(seed: u64) -> Vec<(&'static str, u64)> {
    let (medium, spec45) = (Scale::Medium.build(), ApplicationSpec::k_of_n(4, 5));
    let mut out = Vec::new();

    // Large 4-of-5, eight fixed plans, a fresh sampling seed per op.
    let large = Scale::Large.build();
    let mut a = Assessor::new(&large, FaultModel::paper_default(&large, FIXED_SEED));
    let plans: Vec<_> = (0..8).map(|j| universe_plan(&spec45, &large, j)).collect();
    let mut h = Fnv::new();
    for i in 0..OPS {
        h.estimate(
            &a.assess(&spec45, &plans[i as usize % 8], 10_000, derive_seed(seed, i)).estimate,
        );
    }
    out.push(("assess_large_fresh", h.0));

    // Medium 4-of-5, one 2,000-iteration CRN search per op.
    let mut a = Assessor::new(&medium, FaultModel::paper_default(&medium, FIXED_SEED));
    let mut h = Fnv::new();
    for i in 0..OPS {
        let config = SearchConfig::iterations(2_000, 10_000, derive_seed(seed, i));
        let found = Searcher::new(&mut a).search(&spec45, &ReliabilityObjective, &config, None);
        h.plan(&found.best_plan);
        let scores = [found.best_reliability, found.best_ciw95, found.best_measure];
        h.words(scores.map(f64::to_bits));
        h.word(found.stats.plans_assessed as u64);
    }
    out.push(("search_medium_crn", h.0));

    // The daemon's requests, answered by an engine the way its workers
    // answer them: the request seed is the model seed and the sampling seed.
    let served = |scale: Scale, spec: &ApplicationSpec, rounds: usize, one_seed: bool| {
        let topology = scale.build();
        let mut engine = Engine::new(&topology, FIXED_SEED, SamplerKind::ExtendedDagger);
        let mut h = Fnv::new();
        for i in 0..OPS {
            let (plan, op_seed) = if one_seed {
                (universe_plan(spec, &topology, i), FIXED_SEED)
            } else {
                (universe_plan(spec, &topology, 0), derive_seed(seed, i))
            };
            let driven = engine.at(op_seed).drive(spec, &plan, rounds, op_seed, None, &mut |p| {
                h.words([p.rounds_done, p.r.to_bits(), p.ciw.to_bits()]);
                ControlFlow::Continue(())
            });
            h.estimate(&driven.assessment.estimate);
        }
        h.0
    };
    out.push((
        "serve_tiny_seeds",
        served(Scale::Tiny, &ApplicationSpec::k_of_n(2, 3), 10_000, false),
    ));
    out.push(("serve_medium_plans", served(Scale::Medium, &spec45, 10_000, true)));
    out.push(("stream_medium_long", served(Scale::Medium, &spec45, 100_000, false)));
    out
}

/// Prints one `<workload> <digest>` line per shape.
pub fn answers(seed: u64) {
    for (workload, digest) in digests(seed) {
        println!("{workload} {digest:016x}");
    }
}
