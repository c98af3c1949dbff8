//! `search_medium_crn`: Figs 9–10. One op is one annealing search of
//! 2,000 iterations on the Medium preset; every plan of a search is
//! assessed on one shared (common-random-numbers) table, so the table is
//! built once per op and route-and-check plus search logic do the rest.

use crate::gen;
use crate::harness::{self, closed_loop, OpOut, Outcome, Worker};
use crate::procfs;
use crate::replay::{self, ns_per_call, time_us, Shape};
use crate::spans::Recorder;
use crate::stats;
use crate::RunCfg;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::Assessor;
use recloud_faults::FaultModel;
use recloud_sampling::{derive_seed, Rng};
use recloud_search::{
    ParallelSearchConfig, ParallelSearcher, ReliabilityObjective, SearchConfig, SearchOutcome,
    Searcher, SymmetryChecker,
};
use recloud_server::protocol::Preset;
use recloud_topology::{ComponentId, Topology};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape { preset: Preset::Medium, k: 4, n: 5, rounds: 10_000 };
const ITERATIONS: usize = 2_000;
const WARMUP_OPS: u64 = 2;
/// Stream of seeds the best plans are re-assessed on, disjoint from the
/// search seeds.
const REASSESS_STREAM: u64 = 1 << 40;

struct Engine {
    topology: Topology,
    spec: ApplicationSpec,
    assessor: Assessor,
    seed: u64,
    /// Best plan of every measured search, with the op that found it.
    best: Vec<(u64, DeploymentPlan)>,
    totals: Totals,
}

/// Counters summed over measured searches.
#[derive(Default)]
struct Totals {
    plans: u64,
    symmetry_skips: u64,
    worse_accepted: u64,
    worse_rejected: u64,
    improvements: u64,
}

impl Engine {
    fn build(seed: u64) -> Engine {
        let topology = SHAPE.preset.scale().build();
        let model = FaultModel::paper_default(&topology, gen::FIXED_SEED);
        let assessor = Assessor::new(&topology, model);
        let mut engine = Engine {
            topology,
            spec: SHAPE.spec(),
            assessor,
            seed,
            best: Vec::new(),
            totals: Totals::default(),
        };
        for index in 0..WARMUP_OPS {
            engine.op(index);
        }
        engine.best.clear();
        engine.totals = Totals::default();
        engine
    }

    fn search(&mut self, index: u64) -> SearchOutcome {
        let config =
            SearchConfig::iterations(ITERATIONS, SHAPE.rounds, derive_seed(self.seed, index));
        Searcher::new(&mut self.assessor).search(&self.spec, &ReliabilityObjective, &config, None)
    }
}

impl Worker for Engine {
    fn op(&mut self, index: u64) -> OpOut {
        let found = self.search(index);
        // The trajectory opens with the initial plan's assessment.
        let initial = found.trajectory.first().map_or(f64::INFINITY, |p| p.measure);
        let ok = found.best_measure >= initial && found.stats.plans_assessed > 0;
        self.totals.plans += found.stats.plans_assessed as u64;
        self.totals.symmetry_skips += found.stats.symmetry_skips as u64;
        self.totals.worse_accepted += found.stats.worse_accepted as u64;
        self.totals.worse_rejected += found.stats.worse_rejected as u64;
        self.totals.improvements += found.trajectory.len() as u64;
        self.best.push((index, found.best_plan));
        OpOut { ok, ..OpOut::default() }
    }
}

/// Mean annual downtime hours of the best plans, each re-assessed on a
/// seed of its own that no search has seen: result quality at fixed
/// iterations, free of the optimism of the table a plan was selected on.
fn best_downtime_h(engine: &mut Engine) -> f64 {
    let (mut rounds, mut successes) = (0, 0);
    for (index, plan) in &engine.best {
        let seed = derive_seed(engine.seed, REASSESS_STREAM + index);
        let e = engine.assessor.assess(&engine.spec, plan, SHAPE.rounds, seed).estimate;
        rounds += e.rounds;
        successes += e.successes;
    }
    harness::downtime_hours(rounds, successes)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let own_cpu = || procfs::cpu_seconds(None);
    let traced = cfg.traced;
    let (mut engine, first_setup_us) = time_us(|| Engine::build(cfg.seed));
    let seconds = if traced { cfg.seconds / 4.0 } else { cfg.seconds };
    let phase = closed_loop(std::slice::from_mut(&mut engine), WARMUP_OPS, seconds, &own_cpu);
    let peak = procfs::peak_rss_mb(None);
    if !traced {
        let downtime = best_downtime_h(&mut engine);
        drop(engine);
        let setup_s = harness::setup_median(first_setup_us / 1e6, || drop(Engine::build(cfg.seed)));
        out.end_to_end(&phase, setup_s, peak, downtime);
        return out;
    }

    out.client_layer(&phase, phase.harness_share());
    let totals = std::mem::take(&mut engine.totals);

    // Traced ops: each search under a span.
    let mut rec = Recorder::new();
    let mut traced_us = Vec::new();
    let mut index = WARMUP_OPS + phase.ops();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 4.0);
    while Instant::now() < deadline {
        let root = rec.start("op", None, index);
        let found = rec.time("search.search", root, || engine.search(index));
        rec.end(root);
        traced_us.push(found.elapsed.as_nanos() as f64 / 1e3);
        index += 1;
    }
    let search_us = stats::typical(&phase.sorted(|r| Some(r.lat_us)));
    out.num("trace.overhead_share", stats::typical(&traced_us) / search_us - 1.0, "share");
    let probe_plan = gen::universe_plan(&engine.spec, engine.topology.hosts(), 0);
    drop(engine);

    // A search cannot be replayed decision by decision from outside, so
    // its op is split by arithmetic: one fresh table, then one
    // cached-table assessment per further plan; what is left is the
    // search's own — proposal, symmetry, acceptance.
    replay::compute_layer_metrics(
        SHAPE,
        gen::FIXED_SEED,
        &probe_plan,
        cfg.seed,
        &mut rec,
        &mut out,
    );
    let value = |out: &Outcome, name: &str| {
        out.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    };
    let cached_us = value(&out, "assess.cached_table_us");
    let table_us = value(&out, "assess.fresh_us") - cached_us;
    let searches = phase.ops().max(1) as f64;
    let plans_per_search = totals.plans as f64 / searches;
    let explained = (table_us + plans_per_search * cached_us) / search_us;
    out.num("search.step_ns", 1e3 * search_us / plans_per_search.max(1.0), "ns");
    out.num("search.plans_per_s", 1e6 * plans_per_search / search_us, "1/s");
    out.num("search.table_build_share", table_us / search_us, "share");
    out.num("search.overhead_share", 1.0 - explained, "share");
    out.num("trace.coverage_share", explained, "share");
    let proposals = (totals.plans + totals.symmetry_skips).max(1) as f64;
    out.num("search.symmetry_skip_share", totals.symmetry_skips as f64 / proposals, "share");
    let worse = (totals.worse_accepted + totals.worse_rejected).max(1) as f64;
    out.num("search.worse_accept_share", totals.worse_accepted as f64 / worse, "share");
    out.num("search.improvements", totals.improvements as f64 / searches, "count");
    search_micro(cfg.seed, &mut out);
    cfg.write_trace(&rec);
    out
}

/// Timed calls into `apps` and `search` that a search makes thousands of
/// times, and the two-chain speed-up.
fn search_micro(seed: u64, out: &mut Outcome) {
    let topology = SHAPE.preset.scale().build();
    let model = FaultModel::paper_default(&topology, gen::FIXED_SEED);
    let spec = SHAPE.spec();
    let hosts = topology.hosts();
    let mut rng = Rng::new(seed);
    let iters = 20_000;
    out.num(
        "apps.plan_random_ns",
        ns_per_call(iters, |_| {
            black_box(DeploymentPlan::random(&spec, hosts, &mut rng));
        }),
        "ns",
    );
    let mut plan = DeploymentPlan::random(&spec, hosts, &mut rng);
    out.num(
        "apps.neighbor_ns",
        ns_per_call(iters, |_| {
            plan = plan.neighbor(hosts, &mut rng);
        }),
        "ns",
    );
    let symmetry = SymmetryChecker::new(&topology, &model);
    let others: Vec<ComponentId> = plan.all_hosts().skip(1).collect();
    let old = plan.all_hosts().next().expect("a plan has hosts");
    let free: Vec<ComponentId> =
        hosts.iter().copied().filter(|h| *h != old && !others.contains(h)).collect();
    out.num(
        "search.symmetry_ns",
        ns_per_call(iters, |i| {
            black_box(symmetry.equivalent_move(&others, old, free[i % free.len()]));
        }),
        "ns",
    );

    // Two chains against one, same per-chain budget: 2.0 is perfect
    // scaling in plans per second; the core count is printed beside it.
    let searcher = ParallelSearcher::new(&topology, model);
    let base = SearchConfig::iterations(ITERATIONS, SHAPE.rounds, seed);
    let rate = |chains: usize| {
        let config = ParallelSearchConfig::new(chains, base.clone());
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let (found, us) =
                    time_us(|| searcher.search(&spec, &ReliabilityObjective, &config, None, None));
                found.combined.plans_assessed as f64 / us
            })
            .collect();
        stats::median(&runs)
    };
    let one = rate(1);
    out.num("search.chains2_speedup", rate(2) / one, "share");
    eprintln!(
        "search.chains2_speedup measured with {} cores available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
