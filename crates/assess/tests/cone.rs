//! Cone materialisation ≡ the full-width table, bit for bit.
//!
//! The engine samples and collapses only the rows a plan's cone names.
//! This property holds it to the pipeline it replaced — sample every
//! event of the chunk, force injections, collapse every row, route and
//! check — built from the same public stages and the same streams, for
//! every router, sampler and kernel width, across plan *sequences* on one
//! seed (so rows left by earlier plans, shorter requests and longer ones
//! are all reused), with shared software and with a fault injector.
//!
//! Test builds poison rows that were never materialised (all-failed) and
//! the failure probabilities here are high, so a router that read outside
//! its declared cone would change verdicts and fail rather than pass on
//! plausible stale bits.
//!
//! The second property is about what the router keeps between plans: the
//! engine hands it `(slot, generation)` with every chunk, the fat-tree
//! router serves its plan-independent digests and a bounded set of host
//! reach rows from a memo under that key, and the reference is a *new*
//! router on the unkeyed path for every plan. The sequences are walks of
//! one-host moves longer than the set holds, with returns to plans whose
//! hosts have left it and plans larger than it can ever be, and they cross
//! every edge that mints a generation between two uses of the same host —
//! so a digest or a row outliving its table rows, or built from rows not
//! yet in the cone, shows up as a different count.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{Assessor, BatchWidth, SamplerKind, StructureChecker};
use recloud_faults::{FaultInjector, FaultModel, ProbabilityConfig};
use recloud_routing::{make_router, GenericRouter, Router, UpDownRouter};
use recloud_sampling::proptest::forall;
use recloud_sampling::{
    prop_assert_eq, BitMatrix, ExtendedDaggerSampler, MonteCarloSampler, ResultAccumulator,
    Sampler, WideWord,
};
use recloud_topology::{
    BCubeParams, FatTreeParams, JellyfishParams, LeafSpineParams, Topology, Vl2Params,
};
use std::ops::ControlFlow;

/// The full-width reference: every row of every chunk, at the table's
/// full chunk width, checked over the chunk's own rounds.
struct FullWidth {
    model: FaultModel,
    kind: SamplerKind,
    injector: Option<FaultInjector>,
    router: Box<dyn Router + Send>,
    raw: BitMatrix,
    states: BitMatrix,
}

impl FullWidth {
    fn new(
        model: FaultModel,
        kind: SamplerKind,
        injector: Option<FaultInjector>,
        router: Box<dyn Router + Send>,
        chunk_rounds: usize,
    ) -> Self {
        FullWidth {
            raw: BitMatrix::new(model.num_events(), chunk_rounds),
            states: BitMatrix::new(model.num_topology_components(), chunk_rounds),
            router,
            model,
            kind,
            injector,
        }
    }

    fn assess(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        layout: &[(u32, usize)],
        seed: u64,
    ) -> (u64, u64) {
        let mut checker = StructureChecker::new(spec, plan);
        let mut acc = ResultAccumulator::new();
        for &(chunk, n) in layout {
            let chunk_seed = Assessor::chunk_seed(seed, chunk);
            match self.kind {
                SamplerKind::ExtendedDagger => ExtendedDaggerSampler::seeded(chunk_seed)
                    .sample_into(self.model.probs(), &mut self.raw),
                SamplerKind::MonteCarlo => MonteCarloSampler::seeded(chunk_seed)
                    .sample_into(self.model.probs(), &mut self.raw),
            }
            if let Some(injector) = &self.injector {
                injector.apply(&mut self.raw);
            }
            self.model.collapse_into(&self.raw, &mut self.states);
            for ww in 0..n.div_ceil(WideWord::LANES) {
                let lanes = (n - ww * WideWord::LANES).min(WideWord::LANES);
                self.router.begin_wide(&self.states, ww);
                let mask = checker.wide_reliable(self.router.as_mut(), &self.states, ww, lanes);
                acc.push_wide(mask, lanes as u32);
            }
        }
        (acc.rounds(), acc.successes())
    }
}

/// Builds the router under test on a fabric.
type RouterFor = fn(&Topology) -> Box<dyn Router + Send>;

/// Fabrics [`fabric`] knows.
const FABRICS: usize = 9;

/// A fabric and a way to build the router under test on it: the analytic
/// fat-tree router, the valley-free reference BFS, and physical BFS on a
/// fat-tree (with and without link components), a leaf-spine, a
/// Jellyfish, a BCube (whose hosts forward traffic) and a VL2.
fn fabric(which: usize) -> (Topology, RouterFor) {
    match which {
        0 => (FatTreeParams::new(4).build(), make_router),
        1 => (FatTreeParams::new(6).build(), make_router),
        2 => (FatTreeParams::new(4).build(), |t| Box::new(UpDownRouter::for_fat_tree(t))),
        3 => (FatTreeParams::new(4).build(), |t| Box::new(GenericRouter::new(t))),
        4 => (LeafSpineParams::new(3, 4, 3).border_spines(2).build(), make_router),
        5 => (JellyfishParams::new(10, 3, 2).border_switches(2).build(), make_router),
        6 => (BCubeParams::new(3, 1).build(), make_router),
        7 => (Vl2Params::new(4, 4).servers_per_tor(2).build(), make_router),
        _ => (FatTreeParams::new(4).with_links(true).build(), |t| Box::new(GenericRouter::new(t))),
    }
}

/// Probabilities unreliable on purpose, with mixed dagger cycle lengths
/// (so chunk widths differ from draw to draw).
fn unreliable_probabilities(g: &mut recloud_sampling::proptest::Gen) -> ProbabilityConfig {
    ProbabilityConfig::Normal {
        switch: (g.f64_in(0.05..0.2), 0.03),
        other: (g.f64_in(0.05..0.25), 0.05),
    }
}

/// A model under [`unreliable_probabilities`].
fn unreliable_model(t: &Topology, g: &mut recloud_sampling::proptest::Gen) -> FaultModel {
    let mut model = FaultModel::new(t, &unreliable_probabilities(g), g.any_u64());
    model.attach_power_dependencies(t);
    model
}

#[test]
fn cone_materialised_equals_full_width() {
    forall("cone-materialised == full-width, over plan sequences", |g| {
        let (t, router_for) = fabric(g.usize_in(0..FABRICS));
        let mut model = unreliable_model(&t, g);
        if g.any_bool() {
            model.attach_shared_software(&t, g.usize_in(1..4), 0.06, 0.03);
        }
        let injector = g.any_bool().then(|| {
            let any = |g: &mut recloud_sampling::proptest::Gen| {
                recloud_topology::ComponentId::from_index(g.usize_in(0..model.num_events()))
            };
            let mut injector = FaultInjector::new();
            injector.fail_rounds(any(g), 10..g.usize_in(11..900));
            injector.fail(t.power_supplies()[g.usize_in(0..t.power_supplies().len())]);
            injector.revive(any(g)).fail_rounds(any(g), 0..3_000);
            injector
        });
        let kind = if g.any_bool() { SamplerKind::ExtendedDagger } else { SamplerKind::MonteCarlo };
        let (k, n) = (g.u32_in(1..3), g.u32_in(3..5));
        let spec = match g.usize_in(0..3) {
            0 => ApplicationSpec::k_of_n(k, n),
            1 => ApplicationSpec::layered(&[(k, n), (1, 2)]),
            _ => ApplicationSpec::microservice(2, 1, 1, 2),
        };

        let mut engine = Assessor::with_sampler(&t, model.clone(), kind);
        engine.set_router(router_for(&t));
        engine.set_injector(injector.clone());
        engine.set_width([BatchWidth::Scalar, BatchWidth::Wide256][g.usize_in(0..2)]);
        let chunk_rounds = engine.chunk_layout(1 << 20)[0].1;
        let mut reference = FullWidth::new(model, kind, injector, router_for(&t), chunk_rounds);

        let seed = g.any_u64();
        let mut plan = DeploymentPlan::random(&spec, t.hosts(), g.rng());
        for step in 0..g.usize_in(1..5) {
            // One chunk with a ragged tail, or a chunk and a bit.
            let rounds = g.usize_in(1..chunk_rounds + 400);
            let got = engine.assess(&spec, &plan, rounds, seed).estimate;
            let want = reference.assess(&spec, &plan, &engine.chunk_layout(rounds), seed);
            prop_assert_eq!(
                (got.rounds, got.successes),
                want,
                "{} {kind:?} step {step} rounds {rounds} plan {plan}",
                reference.router.name()
            );
            plan = if g.any_bool() {
                plan.neighbor(t.hosts(), g.rng())
            } else {
                DeploymentPlan::random(&spec, t.hosts(), g.rng())
            };
        }
        Ok(())
    });
}

#[test]
fn kept_digests_equal_a_fresh_unkeyed_replay_across_generation_edges() {
    forall("memo engine == fresh full-width unkeyed replay per plan", |g| {
        // k = 8 has the 112 hosts a plan larger than the router's cap of
        // 64 reach rows needs; the smaller fabrics return to hosts sooner.
        let oversized = g.usize_in(0..6) == 0;
        let t = FatTreeParams::new(if oversized { 8 } else { [4, 6][g.usize_in(0..2)] }).build();
        let routers: [RouterFor; 2] = [make_router, |t| Box::new(UpDownRouter::for_fat_tree(t))];
        let kind = if g.any_bool() { SamplerKind::ExtendedDagger } else { SamplerKind::MonteCarlo };
        let spec = match g.usize_in(0..4) {
            _ if oversized => ApplicationSpec::k_of_n(g.u32_in(60..65), g.u32_in(65..80)),
            0 => ApplicationSpec::layered(&[(1, 3), (1, 2)]),
            _ => ApplicationSpec::k_of_n(g.u32_in(1..3), g.u32_in(3..6)),
        };
        let (mut model, mut injector, mut router) = (unreliable_model(&t, g), None, 0);
        // The engine under test: one for the whole sequence, 256 lanes,
        // so the analytic router's memo is live from the first plan on.
        let mut engine = Assessor::with_sampler(&t, model.clone(), kind);
        let mut seed = g.any_u64();
        let mut plan = DeploymentPlan::random(&spec, t.hosts(), g.rng());
        let mut visited = vec![plan.clone()];
        // A 5-host plan keeps 10 reach rows per slot: 25 one-host moves
        // push every host of the first plan out, and a return finds it gone.
        let steps = if oversized { g.usize_in(3..6) } else { g.usize_in(3..26) };
        for step in 0..steps {
            // One edge in three steps; the walk in between is what fills
            // and turns over the router's host set under one generation.
            let edge = if g.usize_in(0..3) == 0 { g.usize_in(0..6) } else { 6 };
            match edge {
                0 => seed = g.any_u64(),
                1 => {
                    // A new model: built from scratch, or — the served
                    // path — the engine's own, cloned and redrawn.
                    if g.any_bool() {
                        model = unreliable_model(&t, g);
                    } else {
                        model = engine.model().clone();
                        model.redraw(&t, &unreliable_probabilities(g), g.any_u64());
                    }
                    engine.reseed(model.clone());
                }
                2 => {
                    injector = g.any_bool().then(|| {
                        let mut injector = FaultInjector::new();
                        let e = g.usize_in(0..model.num_events());
                        injector.fail_rounds(
                            recloud_topology::ComponentId::from_index(e),
                            0..g.usize_in(1..3_000),
                        );
                        injector
                    });
                    engine.set_injector(injector.clone());
                }
                3 => {
                    router = 1 - router;
                    engine.set_router(routers[router](&t));
                }
                _ => {} // same seed: a shorter follow-up, or a longer one
            }
            let chunk_rounds = engine.chunk_layout(1 << 20)[0].1;
            let rounds = g.usize_in(1..2 * chunk_rounds + 400);
            let layout = engine.chunk_layout(rounds);
            let fresh = routers[router](&t);
            let want = FullWidth::new(model.clone(), kind, injector.clone(), fresh, chunk_rounds)
                .assess(&spec, &plan, &layout, seed);
            let got = match edge {
                // Stopped after the first chunk, then resumed on the rows
                // (and digests) the stop left behind.
                4 => {
                    let stopped = engine
                        .drive(&spec, &plan, rounds, seed, None, &mut |_| ControlFlow::Break(()));
                    prop_assert_eq!(stopped.completed, layout.len() == 1);
                    engine.assess(&spec, &plan, rounds, seed).estimate
                }
                // What a `ParallelAssessor` worker does: every chunk
                // through slot 0, re-keyed chunk by chunk, in any order.
                5 => {
                    let mut checker = StructureChecker::new(&spec, &plan);
                    let mut acc = ResultAccumulator::new();
                    for &(chunk, n) in layout.iter().rev() {
                        engine.run_chunk(
                            &mut checker,
                            Assessor::chunk_seed(seed, chunk),
                            n,
                            &mut acc,
                        );
                    }
                    prop_assert_eq!((acc.rounds(), acc.successes()), want, "step {step} by chunk");
                    engine.assess(&spec, &plan, rounds, seed).estimate
                }
                _ => engine.assess(&spec, &plan, rounds, seed).estimate,
            };
            prop_assert_eq!(
                (got.rounds, got.successes),
                want,
                "{kind:?} step {step} edge {edge} rounds {rounds} plan {plan}"
            );
            // Mostly one-host moves, so four hosts in five are used again
            // right after whatever edge comes next; now and then back to a
            // plan whose hosts the walk has since pushed out of the set, or
            // away to an unrelated one.
            plan = match g.usize_in(0..8) {
                0 => DeploymentPlan::random(&spec, t.hosts(), g.rng()),
                1 => visited[g.usize_in(0..visited.len())].clone(),
                _ => plan.neighbor(t.hosts(), g.rng()),
            };
            visited.push(plan.clone());
        }
        Ok(())
    });
}

/// The master/worker engine builds one assessor per worker and sends it
/// chunks of one plan in arrival order, all through table slot 0.
#[test]
fn parallel_workers_rekey_slot_zero_per_chunk() {
    let t = FatTreeParams::new(6).build();
    let model = FaultModel::paper_default(&t, 5);
    let spec = ApplicationSpec::k_of_n(2, 4);
    let serial = Assessor::new(&t, model.clone());
    let chunk_rounds = serial.chunk_layout(1 << 20)[0].1;
    let kind = SamplerKind::ExtendedDagger;
    let mut reference = FullWidth::new(model.clone(), kind, None, make_router(&t), chunk_rounds);
    let mut rng = recloud_sampling::Rng::new(17);
    for workers in [1, 2] {
        let parallel = recloud_assess::ParallelAssessor::new(&t, model.clone(), workers);
        for seed in [3u64, 3, 4] {
            let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
            let rounds = 3 * chunk_rounds + 77;
            let got = parallel.assess(&spec, &plan, rounds, seed).estimate;
            let want = reference.assess(&spec, &plan, &serial.chunk_layout(rounds), seed);
            assert_eq!((got.rounds, got.successes), want, "{workers} workers, seed {seed}");
        }
    }
}
