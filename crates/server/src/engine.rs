//! Worker-side assessment engines.
//!
//! Each worker thread owns one [`EnginePool`]: one [`Engine`] per
//! topology preset, kept across requests. The engine — construction, reseed by redraw, and the request
//! semantics (spec and plan construction, host and size checks) — lives
//! in `recloud-assess`, where the `recloud` CLI builds the same one. An
//! `AssessPlan` answer therefore matches what `recloud assess` computes
//! for the same `(preset, plan, rounds, seed)` down to the last bit of the
//! score. What is left here is the adaptation of protocol types: a
//! request is validated against the preset's topology *before* its seed
//! is asked of the engine, then dispatched to assess or search.

use crate::protocol::{
    AssessRequest, AssessResponse, Preset, SearchEventResponse, SearchRequest, SearchResponse,
};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::engine::{check_fits, check_hosts};
use recloud_assess::{Engine, PartialEstimate, SamplerKind};
use recloud_search::{
    ParallelSearchConfig, ParallelSearcher, ReliabilityObjective, SearchBudget, SearchConfig,
};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub use recloud_assess::engine::{build_plan, shape_for, spec_for};

/// The per-chain [`SearchConfig`] a SearchStream request describes: paper
/// defaults under the request's seed and rounds, with a deterministic
/// iteration budget when `iters > 0` (the streamed answer becomes a pure
/// function of `(seed, workers, iters)`) and the wall-clock `budget_ms`
/// otherwise. Public so tests and clients can reproduce the server's
/// search bit-for-bit.
pub fn stream_search_config(req: &SearchRequest, iters: u32) -> SearchConfig {
    let budget = if iters > 0 {
        SearchBudget::Iterations(iters as usize)
    } else {
        SearchBudget::WallClock(Duration::from_millis(req.budget_ms as u64))
    };
    SearchConfig { budget, rounds: req.rounds as usize, ..SearchConfig::paper_default(req.seed) }
}

/// Per-worker cache of live assessment engines, one per topology preset.
#[derive(Default)]
pub struct EnginePool {
    engines: HashMap<u8, Engine>,
}

impl EnginePool {
    /// An empty pool; engines materialize on first use.
    pub fn new() -> Self {
        EnginePool::default()
    }

    /// The preset's engine, whatever seed it holds; `seed` is what an
    /// engine that does not exist yet is built with. The topology does
    /// not depend on the seed, so requests are validated against
    /// [`Engine::topology`] first and only then ask for [`Engine::at`].
    fn engine(&mut self, preset: Preset, seed: u64) -> &mut Engine {
        self.engines.entry(preset.tag()).or_insert_with(|| {
            Engine::new(&preset.scale().build(), seed, SamplerKind::ExtendedDagger)
        })
    }

    /// Runs one assessment on the engine the CLI builds: paper-default
    /// fault model for `(preset topology, seed)`, extended dagger
    /// sampling, `rounds` route-and-check rounds. Thin consumer of
    /// [`EnginePool::assess_streaming`], the way `Assessor::assess` is of
    /// `Assessor::drive`: the full drive, nobody listening, nobody
    /// cancelling.
    pub fn assess(
        &mut self,
        req: &AssessRequest,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
    ) -> Result<AssessResponse, String> {
        let never = AtomicBool::new(false);
        self.assess_streaming(req, spec, plan, 1, &never, &mut |_| {}).map(|(resp, _)| resp)
    }

    /// The one assessment path: drives the shared
    /// [`AssessmentDriver`](recloud_assess::AssessmentDriver) through
    /// `Assessor::drive`, invoking `on_partial` once every `cadence` fed
    /// chunks, and checking `cancel` between chunks. Returns the final
    /// answer plus whether every chunk actually ran; a cancelled drive
    /// covers exactly the rounds fed so far, and a completed one answers
    /// the same bits whoever listened.
    pub fn assess_streaming(
        &mut self,
        req: &AssessRequest,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        cadence: u32,
        cancel: &AtomicBool,
        on_partial: &mut dyn FnMut(&PartialEstimate),
    ) -> Result<(AssessResponse, bool), String> {
        let engine = self.engine(req.preset, req.seed);
        check_hosts(engine.topology(), &req.assignments)?;
        let cadence = cadence.max(1) as usize;
        let mut fed = 0usize;
        let driven =
            engine.at(req.seed).drive(spec, plan, req.rounds as usize, req.seed, None, &mut |p| {
                fed += 1;
                if fed % cadence == 0 {
                    on_partial(p);
                }
                if cancel.load(Ordering::Acquire) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        let e = driven.assessment.estimate;
        Ok((
            AssessResponse {
                score: e.score,
                variance: e.variance,
                rounds: e.rounds,
                successes: e.successes,
                cached: false,
            },
            driven.completed,
        ))
    }

    /// Runs the population-based parallel annealing search (`workers`
    /// chains over one shared CRN table), forwarding every chain's
    /// best-plan improvements to `on_event` as they happen. The final
    /// answer is exactly [`ParallelSearcher::search`] under
    /// [`stream_search_config`] — streaming observes the search, it never
    /// changes it.
    pub fn search_streaming(
        &mut self,
        req: &SearchRequest,
        workers: u32,
        iters: u32,
        on_event: &(dyn Fn(SearchEventResponse) + Sync),
    ) -> Result<SearchResponse, String> {
        let engine = self.engine(req.preset, req.seed);
        let spec = spec_for(req.k, req.n, 1);
        check_fits(engine.topology(), &spec)?;
        let model = engine.at(req.seed).model().clone();
        let searcher =
            ParallelSearcher::with_sampler(engine.topology(), model, SamplerKind::ExtendedDagger);
        let config =
            ParallelSearchConfig::new(workers.max(1) as usize, stream_search_config(req, iters));
        let sink = |e: recloud_search::ChainEvent| {
            on_event(SearchEventResponse {
                chain: e.chain as u32,
                iteration: e.iteration as u64,
                elapsed_us: e.elapsed.as_micros() as u64,
                measure: e.measure,
                reliability: e.reliability,
                temperature: e.temperature,
            });
        };
        let outcome = searcher.search(&spec, &ReliabilityObjective, &config, None, Some(&sink));
        Ok(SearchResponse {
            reliability: outcome.best.best_reliability,
            ciw95: outcome.best.best_ciw95,
            plans_assessed: outcome.combined.plans_assessed as u64,
            hosts: outcome.best.best_plan.hosts_of(0).iter().map(|h| h.index() as u32).collect(),
        })
    }

    /// Engines currently materialized (for tests/introspection).
    pub fn engines(&self) -> usize {
        self.engines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_assess::Assessor;
    use recloud_faults::FaultModel;
    use recloud_topology::Topology;

    fn tiny_request(seed: u64, hosts: Vec<u32>) -> AssessRequest {
        AssessRequest {
            preset: Preset::Tiny,
            rounds: 2_000,
            seed,
            k: 2,
            n: hosts.len() as u32,
            assignments: vec![hosts],
        }
    }

    fn first_hosts(t: &Topology, n: usize) -> Vec<u32> {
        t.hosts()[..n].iter().map(|h| h.index() as u32).collect()
    }

    /// The serving contract: a pooled engine answers bit-identically to
    /// a fresh model + fresh assessor, built here without [`Engine`] so
    /// that redraw ≡ rebuild is checked against an independent oracle,
    /// across seed changes —
    /// a long run of distinct seeds, each model redrawn from the one
    /// before, and back to the first.
    #[test]
    fn pool_matches_fresh_cli_path_bit_for_bit() {
        let topology = Preset::Tiny.scale().build();
        let hosts = first_hosts(&topology, 3);
        let mut pool = EnginePool::new();
        for seed in (0..40).map(|i| 11 + 18 * i).chain([11]) {
            let req = tiny_request(seed, hosts.clone());
            let spec = spec_for(req.k, req.n, req.assignments.len());
            let plan = build_plan(&spec, &req.assignments).unwrap();
            let served = pool.assess(&req, &spec, &plan).unwrap();

            let model = FaultModel::paper_default(&topology, seed);
            let mut fresh = Assessor::with_sampler(&topology, model, SamplerKind::ExtendedDagger);
            let direct = fresh.assess(&spec, &plan, req.rounds as usize, seed);
            assert_eq!(served.score.to_bits(), direct.estimate.score.to_bits(), "seed {seed}");
            assert_eq!(served.variance.to_bits(), direct.estimate.variance.to_bits());
            assert_eq!(served.successes, direct.estimate.successes);
            assert_eq!(served.rounds, direct.estimate.rounds);
            assert!(!served.cached);
        }
        assert_eq!(pool.engines(), 1, "one preset touched, one engine kept");
    }

    /// The streaming contract: a run-to-completion stream answers
    /// bit-identically to the plain assess path, its partials are
    /// monotone in rounds, and a pre-set cancel flag stops the drive
    /// short of the full round count.
    #[test]
    fn streamed_assess_matches_plain_and_honors_cancel() {
        let topology = Preset::Tiny.scale().build();
        let hosts = first_hosts(&topology, 3);
        let req = AssessRequest {
            preset: Preset::Tiny,
            rounds: 12_000,
            seed: 21,
            k: 2,
            n: 3,
            assignments: vec![hosts],
        };
        let spec = spec_for(req.k, req.n, req.assignments.len());
        let plan = build_plan(&spec, &req.assignments).unwrap();

        let mut pool = EnginePool::new();
        let plain = pool.assess(&req, &spec, &plan).unwrap();

        let mut partials = Vec::new();
        let cancel = AtomicBool::new(false);
        let mut fresh = EnginePool::new();
        let (streamed, completed) = fresh
            .assess_streaming(&req, &spec, &plan, 1, &cancel, &mut |p| partials.push(*p))
            .unwrap();
        assert!(completed);
        assert_eq!(streamed.score.to_bits(), plain.score.to_bits());
        assert_eq!(streamed.variance.to_bits(), plain.variance.to_bits());
        assert_eq!((streamed.rounds, streamed.successes), (plain.rounds, plain.successes));
        assert!(partials.len() >= 2, "12k rounds span several chunks");
        for pair in partials.windows(2) {
            assert!(pair[1].rounds_done > pair[0].rounds_done, "partials are monotone");
        }

        cancel.store(true, Ordering::Release);
        let (cut, completed) =
            fresh.assess_streaming(&req, &spec, &plan, 1, &cancel, &mut |_| {}).unwrap();
        assert!(!completed, "a pre-set cancel stops after the first chunk");
        assert!(cut.rounds < req.rounds as u64);
        assert!(cut.rounds > 0, "at least one chunk always runs");
    }

    /// The streamed parallel search is a pure function of
    /// `(seed, workers, iters)`: repeated runs agree bit-for-bit, every
    /// chain spends its full iteration budget, and the events carry
    /// in-range chain indices.
    #[test]
    fn streamed_search_is_deterministic_across_runs() {
        let mut pool = EnginePool::new();
        let req =
            SearchRequest { preset: Preset::Tiny, rounds: 600, seed: 17, k: 2, n: 3, budget_ms: 0 };
        let events = std::sync::Mutex::new(Vec::new());
        let a = pool.search_streaming(&req, 3, 25, &|e| events.lock().unwrap().push(e)).unwrap();
        let b = pool.search_streaming(&req, 3, 25, &|_| {}).unwrap();
        assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
        assert_eq!(a.ciw95.to_bits(), b.ciw95.to_bits());
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.plans_assessed, b.plans_assessed);
        assert_eq!(a.plans_assessed, 3 * 25, "every chain spends its whole budget");
        let events = events.into_inner().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.chain < 3));
        let topology = Preset::Tiny.scale().build();
        check_hosts(&topology, &[a.hosts.clone()]).unwrap();
    }

    /// `iters = 0`: one chain on the request's wall-clock budget.
    #[test]
    fn wall_clock_search_returns_a_valid_plan() {
        let mut pool = EnginePool::new();
        let req = SearchRequest {
            preset: Preset::Tiny,
            rounds: 1_000,
            seed: 3,
            k: 2,
            n: 3,
            budget_ms: 150,
        };
        let resp = pool.search_streaming(&req, 1, 0, &|_| {}).unwrap();
        assert_eq!(resp.hosts.len(), 3);
        assert!(resp.plans_assessed >= 1);
        assert!((0.0..=1.0).contains(&resp.reliability));
        let topology = Preset::Tiny.scale().build();
        check_hosts(&topology, &[resp.hosts.clone()]).unwrap();
    }
}
