//! One assessment taken apart: the stages `Assessor::assess` runs on a
//! fresh seed — sample, collapse, route-and-check, keep the table — called
//! one by one through the public functions of the layers that own them,
//! each under a span. The replay must reproduce the assessor's
//! `(rounds, successes)` bit for bit; that equality is what licenses
//! reading its spans as the assessor's own breakdown.

use crate::harness::Outcome;
use crate::spans::Recorder;
use crate::stats;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{assessment_key, Assessor, StructureChecker};
use recloud_faults::FaultModel;
use recloud_routing::{make_router, Router};
use recloud_sampling::{BitMatrix, ExtendedDaggerSampler, ResultAccumulator, Sampler, WideWord};
use recloud_server::protocol::Preset;
use recloud_topology::Topology;
use std::hint::black_box;
use std::time::Instant;

/// Microseconds `f` takes.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

/// Mean nanoseconds per call of `f` over `iters` calls.
pub fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

pub struct Replayer {
    model: FaultModel,
    router: Box<dyn Router + Send>,
    raw: BitMatrix,
    collapsed: BitMatrix,
    chunk_rounds: usize,
    spec: ApplicationSpec,
    rounds: usize,
    /// 256-round words route-and-checked so far, over all replays.
    wides: usize,
    /// The previous replay's collapsed tables. The assessor keeps one
    /// table per chunk for later same-seed calls and frees the old set
    /// only once the new one is complete; holding them just as long makes
    /// the replay's allocations land where the assessor's do.
    tables: Vec<BitMatrix>,
}

impl Replayer {
    /// A replayer of `shape`'s assessments. `assessor` is only asked for
    /// its chunk width, through the public layout function.
    pub fn new(
        topology: &Topology,
        model: FaultModel,
        assessor: &Assessor,
        shape: Shape,
    ) -> Replayer {
        let chunk_rounds = assessor.chunk_layout(1 << 20)[0].1;
        Replayer {
            raw: BitMatrix::new(model.num_events(), chunk_rounds),
            collapsed: BitMatrix::new(model.num_topology_components(), chunk_rounds),
            router: make_router(topology),
            model,
            chunk_rounds,
            spec: shape.spec(),
            rounds: shape.rounds,
            wides: 0,
            tables: Vec::new(),
        }
    }

    /// Replays one fresh-seed assessment under an `assess.replay` span
    /// (op id `op`) and returns its `(rounds, successes)`.
    pub fn replay(
        &mut self,
        rec: &mut Recorder,
        parent: Option<usize>,
        op: u64,
        plan: &DeploymentPlan,
        seed: u64,
    ) -> (u64, u64) {
        let root = rec.start("assess.replay", parent, op);
        let mut checker =
            rec.time("assess.checker_new", root, || StructureChecker::new(&self.spec, plan));
        let mut acc = ResultAccumulator::new();
        let mut tables = Vec::new();
        let mut chunk = 0u32;
        let mut remaining = self.rounds;
        while remaining > 0 {
            let n = remaining.min(self.chunk_rounds);
            let chunk_seed = Assessor::chunk_seed(seed, chunk);
            rec.time("sampling.sample", root, || {
                ExtendedDaggerSampler::seeded(chunk_seed)
                    .sample_into(self.model.probs(), &mut self.raw)
            });
            rec.time("faults.collapse", root, || {
                self.model.collapse_into(&self.raw, &mut self.collapsed)
            });
            self.wides += n.div_ceil(WideWord::LANES);
            rec.time("routing.check", root, || {
                for ww in 0..n.div_ceil(WideWord::LANES) {
                    let lanes = (n - ww * WideWord::LANES).min(WideWord::LANES);
                    self.router.begin_wide(&self.collapsed, ww);
                    let mask =
                        checker.wide_reliable(self.router.as_mut(), &self.collapsed, ww, lanes);
                    acc.push_wide(mask, lanes as u32);
                }
            });
            tables.push(rec.time("assess.table_clone", root, || self.collapsed.clone()));
            remaining -= n;
            chunk += 1;
        }
        self.tables = tables;
        rec.end(root);
        (acc.rounds(), acc.successes())
    }
}

/// What a workload assesses: the preset, the app shape, the rounds.
#[derive(Clone, Copy)]
pub struct Shape {
    pub preset: Preset,
    pub k: u32,
    pub n: u32,
    pub rounds: usize,
}

impl Shape {
    pub fn spec(&self) -> ApplicationSpec {
        ApplicationSpec::k_of_n(self.k, self.n)
    }
}

/// Self times, in µs, of the spans called `name` among those recorded
/// from index `from` on.
fn span_self_us(rec: &Recorder, from: usize, name: &str) -> Vec<f64> {
    let own = rec.self_times_us();
    rec.spans()[from..]
        .iter()
        .zip(&own[from..])
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect()
}

/// Assessments per block of [`compute_layer_metrics`].
const PASSES: usize = 12;

/// The compute layers' metrics at one workload's shape: `topology`,
/// `faults`, `sampling`, `routing` and `assess`, timed around their public
/// calls, with [`PASSES`] replayed assessments checked against the assessor.
pub fn compute_layer_metrics(
    shape: Shape,
    model_seed: u64,
    plan: &DeploymentPlan,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let scale = shape.preset.scale();
    let (topology, build_us) = time_us(|| scale.build());
    out.num("topology.build_ms", build_us / 1e3, "ms");
    out.num("topology.components", topology.num_components() as f64, "count");
    let (model, model_us) = time_us(|| FaultModel::paper_default(&topology, model_seed));
    out.num("faults.model_build_us", model_us, "us");
    out.num("faults.events", model.num_events() as f64, "count");
    let (router, router_us) = time_us(|| make_router(&topology));
    drop(router);
    out.num("routing.router_build_us", router_us, "us");

    let spec = shape.spec();
    let mut assessor = Assessor::new(&topology, model.clone());
    let mut replayer = Replayer::new(&topology, model.clone(), &assessor, shape);
    let mut fresh_us = Vec::new();
    let mut cached_us = Vec::new();
    let mut agreement = Vec::new();
    let mut replay_us = Vec::new();
    let mut scores = Vec::new();
    let mut ciws = Vec::new();
    // Three blocks, each back to back the way a workload runs them: fresh
    // seeds (what `assess_large_fresh` does all day), neighbouring plans
    // on the table of the last seed (what a search step or a served miss
    // on a known seed costs), then the stage-by-stage replays. Interleaving
    // them would time every call on caches the previous block had emptied.
    let pass_seed = |pass: u64| recloud_sampling::derive_seed(seed, 1_000_000 + pass);
    let mut real = Vec::new();
    for pass in 0..PASSES as u64 {
        let (a, us) = time_us(|| assessor.assess(&spec, plan, shape.rounds, pass_seed(pass)));
        fresh_us.push(us);
        agreement.push(a.timings.total.as_nanos() as f64 / 1e3 / us);
        scores.push(a.estimate.score);
        ciws.push(a.estimate.ciw95());
        real.push((a.estimate.rounds, a.estimate.successes));
    }
    let mut rng = recloud_sampling::Rng::new(seed);
    let mut neighbour = plan.clone();
    for _ in 0..PASSES * 8 {
        neighbour = neighbour.neighbor(topology.hosts(), &mut rng);
        let last = pass_seed(PASSES as u64 - 1);
        let (_, us) = time_us(|| assessor.assess(&spec, &neighbour, shape.rounds, last));
        cached_us.push(us);
    }
    let fresh = stats::typical(&fresh_us);
    out.num("assess.fresh_us", fresh, "us");
    out.num("assess.cached_table_us", stats::typical(&cached_us), "us");
    out.num("assess.timings_agreement", stats::median(&agreement), "share");
    out.num("assess.rounds_per_s", shape.rounds as f64 / (fresh / 1e6), "1/s");
    out.num("assess.arena_mb", assessor.arena_bytes() as f64 / (1 << 20) as f64, "MiB");
    out.num("assess.table_cache_mb", assessor.cache_bytes() as f64 / (1 << 20) as f64, "MiB");
    out.num("assess.ciw95_p50", stats::median(&ciws), "share");
    let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
    let covered = scores.iter().zip(&ciws).filter(|(s, c)| (*s - mean).abs() <= *c / 2.0).count();
    out.num("assess.ciw_cover_share", covered as f64 / scores.len().max(1) as f64, "share");

    let shape_kn = [(shape.k, shape.n)];
    let tag = shape.preset.tag();
    out.num(
        "assess.fingerprint_ns",
        ns_per_call(20_000, |i| {
            black_box(assessment_key(tag, &shape_kn, plan, shape.rounds as u64, i as u64));
        }),
        "ns",
    );
    let reseeds = 8;
    let models: Vec<FaultModel> =
        (0..reseeds).map(|i| FaultModel::paper_default(&topology, model_seed + 1 + i)).collect();
    let ((), reseed_us) = time_us(|| {
        for m in models {
            assessor.reseed(m);
        }
    });
    out.num("assess.reseed_us", reseed_us / reseeds as f64, "us");

    // The replays run with the assessor gone, as the assessor ran with no
    // replayer: two 27K-host table sets in one heap make each other slower.
    drop(assessor);
    let first_span = rec.spans().len();
    for (pass, want) in real.iter().enumerate() {
        let (got, us) =
            time_us(|| replayer.replay(rec, None, pass as u64, plan, pass_seed(pass as u64)));
        replay_us.push(us);
        out.check(got == *want, || format!("stage replay got {got:?}, Assessor::assess {want:?}"));
    }
    out.num("assess.replay_coverage", stats::typical(&replay_us) / fresh, "share");

    // Only this call's spans: the recorder may already hold the
    // workload's own traced ops.
    let per_chunk = |name| stats::median(&span_self_us(rec, first_span, name));
    out.num("sampling.sample_us_per_chunk", per_chunk("sampling.sample"), "us");
    out.num("faults.collapse_us_per_chunk", per_chunk("faults.collapse"), "us");
    out.num("assess.table_clone_us_per_chunk", per_chunk("assess.table_clone"), "us");
    let check_us: f64 = span_self_us(rec, first_span, "routing.check").iter().sum();
    out.num("routing.check_ns_per_wide", 1e3 * check_us / replayer.wides.max(1) as f64, "ns");
    let cells = (replayer.raw.components() * replayer.raw.rounds()).max(1);
    out.num(
        "sampling.failure_bit_share",
        replayer.raw.total_failures() as f64 / cells as f64,
        "share",
    );
    out.num("sampling.bytes_per_chunk", replayer.raw.bytes() as f64, "B");
}
