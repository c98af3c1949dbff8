//! `assess_large_fresh`: the paper's headline path (Fig 8). In-process
//! `Assessor::assess` on the Large preset, a fresh sampling seed per op,
//! so every op samples, collapses, checks and keeps a new table.

use crate::gen;
use crate::harness::{self, closed_loop, downtime_hours, OpOut, Outcome, Worker};
use crate::procfs;
use crate::replay::{self, time_us, Replayer, Shape};
use crate::spans::Recorder;
use crate::stats;
use crate::RunCfg;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::Assessor;
use recloud_faults::FaultModel;
use recloud_sampling::derive_seed;
use recloud_server::protocol::Preset;
use recloud_topology::Topology;
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape { preset: Preset::Large, k: 4, n: 5, rounds: 10_000 };
/// Few enough plans that each is assessed often (its estimates can be
/// compared with each other), fixed across workload seeds.
const PLANS: u64 = 8;
const WARMUP_OPS: u64 = 3;

struct Engine {
    topology: Topology,
    spec: ApplicationSpec,
    plans: Vec<DeploymentPlan>,
    assessor: Assessor,
    seed: u64,
    /// Pooled over every measured op.
    rounds: u64,
    successes: u64,
}

impl Engine {
    /// Topology, model, assessor, plans and the warm-up ops: everything
    /// between process start and the first measured op.
    fn build(seed: u64) -> Engine {
        let topology = SHAPE.preset.scale().build();
        let model = FaultModel::paper_default(&topology, gen::FIXED_SEED);
        let assessor = Assessor::new(&topology, model);
        let spec = SHAPE.spec();
        let plans = (0..PLANS).map(|j| gen::universe_plan(&spec, topology.hosts(), j)).collect();
        let mut engine = Engine { topology, spec, plans, assessor, seed, rounds: 0, successes: 0 };
        for index in 0..WARMUP_OPS {
            engine.op(index);
        }
        (engine.rounds, engine.successes) = (0, 0);
        engine
    }

    fn inputs(&self, index: u64) -> (&DeploymentPlan, u64) {
        (&self.plans[(index % PLANS) as usize], derive_seed(self.seed, index))
    }
}

impl Worker for Engine {
    fn op(&mut self, index: u64) -> OpOut {
        let (plan, op_seed) =
            (&self.plans[(index % PLANS) as usize], derive_seed(self.seed, index));
        let a = self.assessor.assess(&self.spec, plan, SHAPE.rounds, op_seed);
        self.rounds += a.estimate.rounds;
        self.successes += a.estimate.successes;
        OpOut { ok: a.estimate.rounds == SHAPE.rounds as u64, ..OpOut::default() }
    }
}

/// Runs op `index` for real under an `assess.assess` span, replays it
/// stage by stage beside it and checks the two agree bit for bit. Returns
/// the real call's microseconds.
fn replayed_op(
    engine: &mut Engine,
    replayer: &mut Replayer,
    rec: &mut Recorder,
    index: u64,
    out: &mut Outcome,
) -> f64 {
    let (plan, op_seed) = engine.inputs(index);
    let plan = plan.clone();
    let root = rec.start("op", None, index);
    let assess = rec.start("assess.assess", Some(root), index);
    let real = engine.assessor.assess(&engine.spec, &plan, SHAPE.rounds, op_seed).estimate;
    rec.end(assess);
    let got = replayer.replay(rec, Some(root), index, &plan, op_seed);
    rec.end(root);
    out.check(got == (real.rounds, real.successes), || {
        format!("op {index}: replay {got:?} != assess ({}, {})", real.rounds, real.successes)
    });
    rec.spans()[assess].end_us - rec.spans()[assess].start_us
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let own_cpu = || procfs::cpu_seconds(None);
    let traced = cfg.traced;
    let (mut engine, first_setup_us) = time_us(|| Engine::build(cfg.seed));
    let seconds = if traced { cfg.seconds / 4.0 } else { cfg.seconds };
    let phase = closed_loop(std::slice::from_mut(&mut engine), WARMUP_OPS, seconds, &own_cpu);
    let peak = procfs::peak_rss_mb(None);
    let mut rec = Recorder::new();
    let mut replayer =
        Replayer::new(&engine.topology, engine.assessor.model().clone(), &engine.assessor, SHAPE);
    let mut index = WARMUP_OPS + phase.ops();
    if !traced {
        let downtime = downtime_hours(engine.rounds, engine.successes);
        for _ in 0..2 {
            replayed_op(&mut engine, &mut replayer, &mut rec, index, &mut out);
            index += 1;
        }
        drop((engine, replayer));
        let setup_s = harness::setup_median(first_setup_us / 1e6, || drop(Engine::build(cfg.seed)));
        out.end_to_end(&phase, setup_s, peak, downtime);
        return out;
    }

    // Traced pass: the short untraced stretch above is the baseline; now
    // the same kind of ops under spans, each replayed stage by stage, then
    // the compute layers' own numbers.
    out.client_layer(&phase, phase.harness_share());
    let mut traced_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 4.0);
    while Instant::now() < deadline {
        traced_us.push(replayed_op(&mut engine, &mut replayer, &mut rec, index, &mut out));
        index += 1;
    }
    let base_us = stats::typical(&phase.sorted(|r| Some(r.lat_us)));
    out.num("trace.overhead_share", stats::typical(&traced_us) / base_us - 1.0, "share");
    out.num("trace.coverage_share", rec.coverage(|s| s.name == "assess.replay"), "share");
    let probe_plan = engine.plans[0].clone();
    drop((engine, replayer));
    replay::compute_layer_metrics(
        SHAPE,
        gen::FIXED_SEED,
        &probe_plan,
        cfg.seed,
        &mut rec,
        &mut out,
    );
    cfg.write_trace(&rec);
    out
}
