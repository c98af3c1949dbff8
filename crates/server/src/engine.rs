//! Worker-side assessment engines.
//!
//! Each worker thread owns one [`EnginePool`]: a map from topology preset
//! to a live `(Topology, Assessor)` pair. Building a topology and its
//! fault model is far more expensive than a Tiny assessment, so engines
//! persist across requests. A seed changes the model's numbers, not its
//! structure: when a request arrives with a different master seed, the
//! engine's model is cloned (the trees are shared, only the probability
//! vector is copied), redrawn in place for the new seed
//! ([`FaultModel::redraw`], field for field the model
//! `FaultModel::paper_default` would build) and handed to
//! [`Assessor::reseed`], which invalidates the failure-state table —
//! `recloud-assess` proves that bit-exact against a freshly constructed
//! engine. That equivalence is the serving contract: an `AssessPlan`
//! answer must match what the CLI's `recloud assess` path computes for
//! the same `(preset, plan, rounds, seed)` down to the last bit of the
//! score. A request is validated against the topology *before* any of
//! this, so one that will be refused never costs the engine the table it
//! was serving from.
//!
//! All request semantics live here rather than in the connection or
//! worker plumbing: spec/plan construction, topology-aware host
//! validation, and the dispatch to assess / compare / search.

use crate::protocol::{
    AssessRequest, AssessResponse, CompareEntry, CompareRequest, CompareResponse, Preset,
    SearchEventResponse, SearchRequest, SearchResponse,
};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{compare_plans, Assessor, PartialEstimate, SamplerKind};
use recloud_faults::{FaultModel, ProbabilityConfig};
use recloud_obs::trace;
use recloud_search::{
    ParallelSearchConfig, ParallelSearcher, ReliabilityObjective, SearchBudget, SearchConfig,
};
use recloud_topology::{ComponentId, ComponentKind, Topology};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

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

/// Builds the application spec a request describes: one layer is a plain
/// K-of-N app, several layers share `(k, n)` per layer.
pub fn spec_for(k: u32, n: u32, layers: usize) -> ApplicationSpec {
    if layers <= 1 {
        ApplicationSpec::k_of_n(k, n)
    } else {
        ApplicationSpec::layered(&vec![(k, n); layers])
    }
}

/// The `(k, n)` shape of that spec, as the cache key wants it.
pub fn shape_for(k: u32, n: u32, layers: usize) -> Vec<(u32, u32)> {
    vec![(k, n); layers.max(1)]
}

/// Converts raw wire host ids into a [`DeploymentPlan`], rejecting
/// duplicate hosts (which `DeploymentPlan::new` would panic on — a panic
/// a network peer must never be able to trigger). Host ids are *not*
/// checked against a topology here; that needs the worker's engine and
/// happens in the [`EnginePool`] call that runs the request.
pub fn build_plan(
    spec: &ApplicationSpec,
    assignments: &[Vec<u32>],
) -> Result<DeploymentPlan, String> {
    let mut seen = HashSet::new();
    for &h in assignments.iter().flatten() {
        if !seen.insert(h) {
            return Err(format!("host {h} is assigned twice in one plan"));
        }
    }
    Ok(DeploymentPlan::new(
        spec,
        assignments
            .iter()
            .map(|layer| layer.iter().map(|&h| ComponentId::from_index(h as usize)).collect())
            .collect(),
    ))
}

struct Slot {
    seed: u64,
    topology: Topology,
    assessor: Assessor,
}

impl Slot {
    /// The engine, holding the paper-default model of `seed`. Call once
    /// the request is known to run: a new seed invalidates the table. A
    /// traced request records the swap — clone, redraw, reseed — as an
    /// `engine.reseed` span (`v0` = events redrawn).
    fn engine(&mut self, seed: u64) -> &mut Assessor {
        if self.seed != seed {
            let span_start = recloud_obs::current_span().map(|_| trace::now_us());
            let mut model = self.assessor.model().clone();
            model.redraw(&self.topology, &ProbabilityConfig::PaperDefault, seed);
            self.assessor.reseed(model);
            self.seed = seed;
            if let (Some(ctx), Some(start_us)) = (recloud_obs::current_span(), span_start) {
                trace::tracer().record(
                    ctx.trace_id,
                    ctx.span,
                    "engine.reseed",
                    start_us,
                    trace::now_us(),
                    self.topology.num_components() as u64,
                    0,
                );
            }
        }
        &mut self.assessor
    }

    fn check_fits(&self, spec: &ApplicationSpec, n: u32) -> Result<(), String> {
        let hosts = self.topology.hosts().len();
        if spec.total_instances() > hosts {
            return Err(format!("n={n} exceeds the preset's {hosts} hosts"));
        }
        Ok(())
    }
}

/// Per-worker cache of live assessment engines, one per topology preset.
#[derive(Default)]
pub struct EnginePool {
    slots: HashMap<u8, Slot>,
}

impl EnginePool {
    /// An empty pool; engines materialize on first use.
    pub fn new() -> Self {
        EnginePool::default()
    }

    /// The preset's slot, whatever seed its engine holds; `seed` is what
    /// a slot that does not exist yet is built with. The topology does
    /// not depend on the seed, so requests are validated against the slot
    /// first and only then ask it for [`Slot::engine`].
    fn slot(&mut self, preset: Preset, seed: u64) -> &mut Slot {
        self.slots.entry(preset.tag()).or_insert_with(|| {
            let topology = preset.scale().build();
            let model = FaultModel::paper_default(&topology, seed);
            let assessor = Assessor::with_sampler(&topology, model, SamplerKind::ExtendedDagger);
            Slot { seed, topology, assessor }
        })
    }

    fn check_hosts(topology: &Topology, assignments: &[Vec<u32>]) -> Result<(), String> {
        for &h in assignments.iter().flatten() {
            if h as usize >= topology.num_components() {
                return Err(format!(
                    "id {h} is out of range (topology has {} components)",
                    topology.num_components()
                ));
            }
            let kind = topology.component(ComponentId::from_index(h as usize)).kind;
            if !matches!(kind, ComponentKind::Host) {
                return Err(format!("id {h} is a {kind:?}, not a host"));
            }
        }
        Ok(())
    }

    /// Runs one assessment exactly as the CLI path would: paper-default
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
        let slot = self.slot(req.preset, req.seed);
        Self::check_hosts(&slot.topology, &req.assignments)?;
        let cadence = cadence.max(1) as usize;
        let mut fed = 0usize;
        let driven = slot.engine(req.seed).drive(
            spec,
            plan,
            req.rounds as usize,
            req.seed,
            None,
            &mut |p| {
                fed += 1;
                if fed % cadence == 0 {
                    on_partial(p);
                }
                if cancel.load(Ordering::Acquire) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
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

    /// Ranks candidate plans with tie detection (§3.3's comparison
    /// primitive) on the shared engine.
    pub fn compare(
        &mut self,
        req: &CompareRequest,
        spec: &ApplicationSpec,
        plans: &[DeploymentPlan],
    ) -> Result<CompareResponse, String> {
        let slot = self.slot(req.preset, req.seed);
        Self::check_hosts(&slot.topology, &req.plans)?;
        let cmp = compare_plans(slot.engine(req.seed), spec, plans, req.rounds as usize, req.seed);
        Ok(CompareResponse {
            ranking: cmp
                .ranking
                .iter()
                .map(|r| CompareEntry {
                    input_index: r.input_index as u32,
                    score: r.assessment.estimate.score,
                    ciw95: r.assessment.estimate.ciw95(),
                    tied_with_best: r.tied_with_best,
                })
                .collect(),
        })
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
        let slot = self.slot(req.preset, req.seed);
        let spec = ApplicationSpec::k_of_n(req.k, req.n);
        slot.check_fits(&spec, req.n)?;
        let model = slot.engine(req.seed).model().clone();
        let searcher =
            ParallelSearcher::with_sampler(&slot.topology, model, SamplerKind::ExtendedDagger);
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
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// the CLI path (fresh model + fresh assessor), across seed changes —
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

    #[test]
    fn invalid_hosts_are_errors_not_panics() {
        let topology = Preset::Tiny.scale().build();
        let mut pool = EnginePool::new();

        let switch = (0..topology.num_components() as u32)
            .find(|&i| {
                !matches!(
                    topology.component(ComponentId::from_index(i as usize)).kind,
                    ComponentKind::Host
                )
            })
            .unwrap();
        let hosts = first_hosts(&topology, 2);

        let out_of_range = tiny_request(1, vec![hosts[0], hosts[1], 9_999_999]);
        let spec = spec_for(2, 3, 1);
        let plan = build_plan(&spec, &out_of_range.assignments).unwrap();
        assert!(pool.assess(&out_of_range, &spec, &plan).unwrap_err().contains("out of range"));

        let on_switch = tiny_request(1, vec![hosts[0], hosts[1], switch]);
        let plan = build_plan(&spec, &on_switch.assignments).unwrap();
        assert!(pool.assess(&on_switch, &spec, &plan).unwrap_err().contains("not a host"));
    }

    #[test]
    fn duplicate_hosts_are_rejected_before_plan_construction() {
        let spec = spec_for(2, 3, 1);
        let err = build_plan(&spec, &[vec![72, 73, 72]]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn compare_ranks_all_candidates() {
        let topology = Preset::Tiny.scale().build();
        let h = first_hosts(&topology, 4);
        let req = CompareRequest {
            preset: Preset::Tiny,
            rounds: 2_000,
            seed: 5,
            k: 1,
            n: 2,
            plans: vec![vec![h[0], h[1]], vec![h[2], h[3]]],
        };
        let spec = spec_for(req.k, req.n, 1);
        let plans: Vec<_> =
            req.plans.iter().map(|p| build_plan(&spec, std::slice::from_ref(p)).unwrap()).collect();
        let mut pool = EnginePool::new();
        let resp = pool.compare(&req, &spec, &plans).unwrap();
        assert_eq!(resp.ranking.len(), 2);
        let mut indices: Vec<_> = resp.ranking.iter().map(|e| e.input_index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1]);
        assert!(resp.ranking[0].score >= resp.ranking[1].score, "ranked by descending score");
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
        EnginePool::check_hosts(&topology, &[a.hosts.clone()]).unwrap();
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
        EnginePool::check_hosts(&topology, &[resp.hosts.clone()]).unwrap();
    }
}
