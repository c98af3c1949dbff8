//! Population-based parallel annealing.
//!
//! N annealing chains run concurrently, one scoped thread each beside a
//! coordinator thread, talking over `mpsc` channels. Each chain is a full
//! §3.3.1 search with its own assessment engine (the symmetry check of
//! Step 3 prunes per-candidate cost inside every chain independently)
//! and a SplitMix64-derived seed stream; every chain assesses against
//! the *same* CRN failure-state table, so measures are directly
//! comparable across the population.
//!
//! At fixed points of the temperature schedule — every
//! [`ParallelSearchConfig::exchange_every`] clock ticks — the chains
//! rendezvous through a coordinator and exchange their best plans: each
//! chain reports its best, learns the population-wide best, and adopts
//! it as its current plan when strictly better than its own. The
//! rendezvous is a deterministic barrier: which plans meet at a boundary
//! depends only on (seed, chains, iterations), never on thread
//! scheduling, so a parallel search with an iteration budget is exactly
//! reproducible.
//!
//! Each chain scores its kept candidates on the validation table in its
//! own thread when its budget ends; when every chain is done, the scored
//! lists are pooled, the winner picked and scored once on the report
//! table ([`crate::holdout`]), on the engine chain 0 searched with.
//!
//! A single chain never receives a foreign plan and its pool is its own
//! candidates, which makes `chains = 1` bit-identical to the sequential
//! [`Searcher::search`] with the same configuration — the identity the
//! tests pin.

use crate::annealing::{
    BestReport, Chain, SearchConfig, SearchDriver, SearchOutcome, SearchStats, Searcher,
    TrajectoryPoint,
};
use crate::holdout::{self, Validated};
use crate::objective::Objective;
use recloud_apps::{ApplicationSpec, WorkloadMap};
use recloud_assess::{Assessor, SamplerKind};
use recloud_faults::FaultModel;
use recloud_sampling::derive_seed;
use recloud_topology::Topology;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// Knobs of the parallel population search.
#[derive(Clone, Debug)]
pub struct ParallelSearchConfig {
    /// Number of concurrent annealing chains (≥ 1). Every chain runs the
    /// full `base.budget`, so the population assesses roughly
    /// `chains ×` the plans of a sequential search in the same wall
    /// time.
    pub chains: usize,
    /// Clock ticks between best-plan exchanges (temperature-schedule
    /// boundaries); 0 disables exchange entirely and the chains run as
    /// independent restarts.
    pub exchange_every: usize,
    /// The per-chain search configuration. Chain 0 uses `base.seed`
    /// verbatim; chain `c > 0` anneals under `derive_seed(base.seed, c)`.
    /// All chains share one CRN table derived from `base.seed`.
    pub base: SearchConfig,
}

impl ParallelSearchConfig {
    /// Ticks between exchanges unless the caller overrides it.
    pub const DEFAULT_EXCHANGE_EVERY: usize = 50;

    /// A population of `chains` over the given per-chain configuration,
    /// exchanging every [`Self::DEFAULT_EXCHANGE_EVERY`] ticks.
    pub fn new(chains: usize, base: SearchConfig) -> Self {
        ParallelSearchConfig { chains, exchange_every: Self::DEFAULT_EXCHANGE_EVERY, base }
    }
}

/// One trajectory event from one chain — what streams out of a running
/// parallel search (and onto the wire as a `SearchEvent` frame).
#[derive(Clone, Copy, Debug)]
pub struct ChainEvent {
    /// Which chain improved.
    pub chain: usize,
    /// Plans the chain had assessed when the best improved.
    pub iteration: usize,
    /// Wall-clock offset of the improvement within its chain.
    pub elapsed: Duration,
    /// The new best in-sample measure.
    pub measure: f64,
    /// In-sample reliability of the new best plan.
    pub reliability: f64,
    /// Temperature of the chain's schedule at that moment.
    pub temperature: f64,
}

/// The merged result of a parallel search.
#[derive(Clone, Debug)]
pub struct ParallelOutcome {
    /// The winning chain's outcome, answering with the held-out winner
    /// of the pooled candidates.
    pub best: SearchOutcome,
    /// Index of the winning chain: the lowest-indexed chain that kept the
    /// held-out winner.
    pub winner: usize,
    /// Stats summed across every chain.
    pub combined: SearchStats,
    /// Per-chain stats, indexed by chain.
    pub per_chain: Vec<SearchStats>,
    /// Wall clock of the whole population, rendezvous included.
    pub elapsed: Duration,
}

/// Chain → coordinator traffic.
enum ToCoord {
    /// The chain reached an exchange boundary and waits for the
    /// population best.
    Boundary {
        /// Reporting chain.
        chain: usize,
        /// Its best so far.
        best: BestReport,
    },
    /// The chain finished (budget spent, desired score reached, or its
    /// thread unwound) and will never rendezvous again.
    Done {
        /// Finished chain.
        chain: usize,
    },
}

/// What a chain hands back when it is done: its run, its candidates
/// scored on the validation table and — chain 0 only — its engine, which
/// makes the one report run.
struct ChainResult {
    run: Chain,
    validated: Validated,
    engine: Option<Assessor>,
}

/// Guarantees the coordinator hears `Done` even if the chain panics —
/// otherwise the sibling chains would block at their next boundary
/// forever instead of joining and propagating the panic.
struct DoneGuard {
    chain: usize,
    tx: Sender<ToCoord>,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.tx.send(ToCoord::Done { chain: self.chain });
    }
}

/// The per-chain [`SearchDriver`]: streams improvements to the caller's
/// event sink and rendezvouses with the population at boundaries.
struct ChainDriver<'a> {
    chain: usize,
    exchange_every: usize,
    to_coord: Sender<ToCoord>,
    from_coord: Receiver<BestReport>,
    on_event: Option<&'a (dyn Fn(ChainEvent) + Sync)>,
}

impl SearchDriver for ChainDriver<'_> {
    fn on_best(&mut self, point: &TrajectoryPoint, temperature: f64) {
        if let Some(sink) = self.on_event {
            sink(ChainEvent {
                chain: self.chain,
                iteration: point.iteration,
                elapsed: point.elapsed,
                measure: point.measure,
                reliability: point.reliability,
                temperature,
            });
        }
    }

    fn boundary_every(&self) -> usize {
        self.exchange_every
    }

    fn at_boundary(&mut self, best: &BestReport) -> Option<BestReport> {
        // The coordinator always answers a boundary report; a recv error
        // means it died with the process shutting down — stop exchanging
        // and let the chain finish on its own.
        self.to_coord.send(ToCoord::Boundary { chain: self.chain, best: best.clone() }).ok()?;
        self.from_coord.recv().ok()
    }
}

/// The population searcher: builds one assessment engine per chain from
/// a shared topology and fault model, runs the chains to completion and
/// merges their outcomes.
pub struct ParallelSearcher<'a> {
    topology: &'a Topology,
    model: FaultModel,
    kind: SamplerKind,
}

impl<'a> ParallelSearcher<'a> {
    /// A parallel searcher over reCloud's extended dagger sampler.
    pub fn new(topology: &'a Topology, model: FaultModel) -> Self {
        Self::with_sampler(topology, model, SamplerKind::ExtendedDagger)
    }

    /// Same, with an explicit sampler kind for every chain's engine.
    pub fn with_sampler(topology: &'a Topology, model: FaultModel, kind: SamplerKind) -> Self {
        ParallelSearcher { topology, model, kind }
    }

    /// Runs the population search. `on_event` (when given) observes every
    /// chain's best-plan improvements as they happen; events from
    /// different chains arrive in scheduling order, but the final outcome
    /// is deterministic for iteration budgets.
    ///
    /// # Panics
    /// Panics if `config.chains` is zero.
    pub fn search(
        &self,
        spec: &ApplicationSpec,
        objective: &(dyn Objective + Sync),
        config: &ParallelSearchConfig,
        workload: Option<&WorkloadMap>,
        on_event: Option<&(dyn Fn(ChainEvent) + Sync)>,
    ) -> ParallelOutcome {
        let chains = config.chains;
        assert!(chains >= 1, "need at least one chain");
        let started = Instant::now();

        // One shared CRN table for the whole population: chain measures
        // must be comparable at exchange boundaries.
        let crn_seed = config.base.table_seed();

        let results: Vec<ChainResult> = thread::scope(|scope| {
            let (to_coord, from_chains) = mpsc::channel::<ToCoord>();
            let mut replies = Vec::with_capacity(chains);
            let handles: Vec<_> = (0..chains)
                .map(|chain| {
                    let (reply, from_coord) = mpsc::channel();
                    replies.push(reply);
                    let to_coord = to_coord.clone();
                    scope.spawn(move || {
                        let done = DoneGuard { chain, tx: to_coord.clone() };
                        let mut cfg = config.base.clone();
                        cfg.seed = chain_seed(config.base.seed, chain);
                        cfg.crn_seed = Some(crn_seed);
                        let mut driver = ChainDriver {
                            chain,
                            exchange_every: config.exchange_every,
                            to_coord,
                            from_coord,
                            on_event,
                        };
                        let mut assessor =
                            Assessor::with_sampler(self.topology, self.model.clone(), self.kind);
                        let mut run = Searcher::new(&mut assessor).run_chain(
                            spec,
                            objective,
                            &cfg,
                            workload,
                            &mut driver,
                        );
                        // Leave the rendezvous first: a sibling still at a
                        // boundary must not wait for this chain's validation.
                        drop(done);
                        let validated = holdout::validate(
                            &mut assessor,
                            spec,
                            objective,
                            cfg.rounds,
                            crn_seed,
                            std::mem::take(&mut run.candidates),
                        );
                        let engine = (chain == 0).then_some(assessor);
                        ChainResult { run, validated, engine }
                    })
                })
                .collect();
            drop(to_coord);
            scope.spawn(move || coordinate(chains, &from_chains, &replies));
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });

        let mut per = Vec::with_capacity(chains);
        let mut lists = Vec::with_capacity(chains);
        let mut assessor = None;
        for ChainResult { run, validated, engine } in results {
            per.push(run);
            lists.push(validated);
            assessor = assessor.or(engine);
        }
        let per_chain: Vec<SearchStats> = per.iter().map(|c| c.stats).collect();
        let combined = per_chain.iter().fold(SearchStats::default(), |mut acc, s| {
            acc.plans_assessed += s.plans_assessed;
            acc.symmetry_skips += s.symmetry_skips;
            acc.rule_rejections += s.rule_rejections;
            acc.worse_accepted += s.worse_accepted;
            acc.worse_rejected += s.worse_rejected;
            acc
        });
        let selected = holdout::select(
            assessor.as_mut().expect("chain 0 keeps its engine"),
            spec,
            objective,
            config.base.rounds,
            crn_seed,
            lists,
        );
        let winner = selected.source;
        let best = per.swap_remove(winner).settle(selected, config.base.desired);
        ParallelOutcome { best, winner, combined, per_chain, elapsed: started.elapsed() }
    }
}

/// Seed of chain `c`: chain 0 keeps the master seed (so one chain is
/// exactly the sequential search); later chains draw SplitMix64 streams.
fn chain_seed(master: u64, chain: usize) -> u64 {
    match chain {
        0 => master,
        c => derive_seed(master, c as u64),
    }
}

/// The exchange coordinator: waits until every still-active chain has
/// reported the current boundary (chains that finish instead drop out of
/// the rendezvous), folds the reports into the population best, and
/// answers every reporter. Replies depend only on the reported plans —
/// never on arrival order — which is what makes the exchange
/// deterministic.
fn coordinate(chains: usize, rx: &Receiver<ToCoord>, replies: &[Sender<BestReport>]) {
    let mut active = vec![true; chains];
    let mut pending: Vec<Option<BestReport>> = (0..chains).map(|_| None).collect();
    let mut global: Option<BestReport> = None;
    while active.iter().any(|&a| a) {
        // Gather: one message per active chain without a pending report.
        while active.iter().zip(&pending).any(|(&a, p)| a && p.is_none()) {
            match rx.recv() {
                Ok(ToCoord::Boundary { chain, best }) => pending[chain] = Some(best),
                Ok(ToCoord::Done { chain }) => {
                    active[chain] = false;
                    pending[chain] = None;
                }
                // Every chain sender dropped: nothing more will arrive.
                Err(_) => return,
            }
        }
        // Fold in chain order with strict improvement: deterministic.
        for report in pending.iter().flatten() {
            if global.as_ref().is_none_or(|g| report.measure > g.measure) {
                global = Some(report.clone());
            }
        }
        // Answer every reporter (a dead chain's receiver is gone; that
        // loss is fine — it already sent Done or is unwinding).
        for (chain, slot) in pending.iter_mut().enumerate() {
            if slot.take().is_some() {
                let best = global.clone().expect("at least this chain reported");
                let _ = replies[chain].send(best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ReliabilityObjective;
    use recloud_apps::DeploymentPlan;
    use recloud_assess::exact_reliability;
    use recloud_faults::{FaultModel, ProbabilityConfig};
    use recloud_topology::FatTreeParams;
    use std::sync::Mutex as StdMutex;

    fn env(seed: u64) -> (Topology, FaultModel) {
        let t = FatTreeParams::new(8).build();
        let model = FaultModel::paper_default(&t, seed);
        (t, model)
    }

    fn points_equal(a: &[TrajectoryPoint], b: &[TrajectoryPoint]) -> bool {
        // `elapsed` is wall clock and never reproducible; compare the
        // deterministic fields.
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.iteration == y.iteration
                    && x.measure == y.measure
                    && x.reliability == y.reliability
            })
    }

    /// One chain is the sequential search: same seed, same CRN table, no
    /// foreign plans to adopt — the outcome must match plan-for-plan.
    #[test]
    fn single_chain_equals_sequential_search() {
        let (t, model) = env(3);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let base = SearchConfig::iterations(40, 1_500, 77);

        let mut assessor = Assessor::new(&t, model.clone());
        let seq = Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &base, None);

        let par = ParallelSearcher::new(&t, model).search(
            &spec,
            &ReliabilityObjective,
            &ParallelSearchConfig::new(1, base),
            None,
            None,
        );
        assert_eq!(par.winner, 0);
        assert_eq!(par.best.best_plan, seq.best_plan);
        assert_eq!(par.best.best_measure, seq.best_measure);
        assert_eq!(par.best.best_reliability, seq.best_reliability);
        assert_eq!(par.best.best_ciw95, seq.best_ciw95);
        assert_eq!(par.best.stats, seq.stats);
        assert_eq!(par.combined, seq.stats);
        assert!(points_equal(&par.best.trajectory, &seq.trajectory));
    }

    /// A multi-chain population with an iteration budget is exactly
    /// reproducible: scheduling may interleave the chains any way it
    /// likes, but the rendezvous protocol makes the result a pure
    /// function of (seed, chains, iterations).
    #[test]
    fn multi_chain_runs_are_deterministic() {
        let (t, model) = env(5);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let mut cfg = ParallelSearchConfig::new(3, SearchConfig::iterations(36, 1_000, 13));
        cfg.exchange_every = 9;

        let searcher = ParallelSearcher::new(&t, model);
        let a = searcher.search(&spec, &ReliabilityObjective, &cfg, None, None);
        let b = searcher.search(&spec, &ReliabilityObjective, &cfg, None, None);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.best.best_plan, b.best.best_plan);
        assert_eq!(a.best.best_measure, b.best.best_measure);
        assert_eq!(a.per_chain, b.per_chain);
        assert_eq!(a.combined, b.combined);
        // Every chain spends its full budget.
        assert_eq!(a.combined.plans_assessed, 3 * 36);
        assert_eq!(a.per_chain.len(), 3);
    }

    /// Chain events stream out while the population runs: every chain
    /// reports its improvements and measures are monotone per chain. The
    /// events are in-sample, like the trajectory: the top one is the
    /// population's in-sample best, which the returned plan — re-ranked
    /// on the validation table — can only tie or trail, and the winning
    /// chain's last event is its trajectory's last point.
    #[test]
    fn events_stream_improvements_per_chain() {
        let (t, model) = env(7);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let mut cfg = ParallelSearchConfig::new(2, SearchConfig::iterations(24, 800, 19));
        cfg.exchange_every = 8;
        let events: StdMutex<Vec<ChainEvent>> = StdMutex::new(Vec::new());
        let sink = |e: ChainEvent| events.lock().unwrap().push(e);
        let out = ParallelSearcher::new(&t, model).search(
            &spec,
            &ReliabilityObjective,
            &cfg,
            None,
            Some(&sink),
        );
        let events = events.into_inner().unwrap();
        assert!(!events.is_empty());
        for chain in 0..2 {
            let chain_events: Vec<_> = events.iter().filter(|e| e.chain == chain).collect();
            assert!(!chain_events.is_empty(), "chain {chain} must report its initial best");
            for w in chain_events.windows(2) {
                assert!(w[1].measure > w[0].measure, "per-chain bests are strictly improving");
            }
            assert!(chain_events.iter().all(|e| e.temperature.is_finite()));
        }
        let top = events.iter().map(|e| e.measure).fold(f64::MIN, f64::max);
        assert!(top >= out.best.best_measure, "no candidate beats the in-sample best in-sample");
        let winner_last = events.iter().filter(|e| e.chain == out.winner).map(|e| e.measure);
        assert_eq!(
            winner_last.fold(f64::MIN, f64::max),
            out.best.trajectory.last().expect("the initial plan opens it").measure,
            "the winning chain's events are its trajectory"
        );
    }

    /// The exact-baseline guarantee: on a small fat-tree whose optimum
    /// is provable by exhaustive enumeration over the exact ground
    /// truth, the parallel searcher must land on a provably optimal
    /// placement.
    #[test]
    fn population_recovers_the_provably_optimal_placement() {
        // Only hosts fail: two excellent hosts (p = 0.01) in different
        // pods, the rest poor (p = 0.25). 16 fallible events keep the
        // exact enumeration tractable.
        let t = FatTreeParams::new(4).build();
        let meta = *t.fat_tree().unwrap();
        let mut model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        for &h in t.hosts() {
            model.set_prob(h, 0.25);
        }
        let good = [meta.host(0, 0, 0), meta.host(2, 1, 1)];
        for &h in &good {
            model.set_prob(h, 0.01);
        }
        let spec = ApplicationSpec::k_of_n(1, 2);

        // Provable optimum: the best exact reliability over every
        // unordered host pair.
        let hosts = t.hosts();
        let mut optimum = f64::MIN;
        for i in 0..hosts.len() {
            for j in i + 1..hosts.len() {
                let plan = DeploymentPlan::new(&spec, vec![vec![hosts[i], hosts[j]]]);
                optimum = optimum.max(exact_reliability(&t, &model, &spec, &plan));
            }
        }

        let mut cfg = ParallelSearchConfig::new(3, SearchConfig::iterations(60, 4_000, 23));
        cfg.exchange_every = 15;
        let out = ParallelSearcher::new(&t, model.clone()).search(
            &spec,
            &ReliabilityObjective,
            &cfg,
            None,
            None,
        );
        let found = exact_reliability(&t, &model, &spec, &out.best.best_plan);
        assert!(
            (found - optimum).abs() < 1e-12,
            "search found exact R = {found}, provable optimum is {optimum} (plan {})",
            out.best.best_plan
        );
        let mut picked: Vec<_> = out.best.best_plan.all_hosts().collect();
        picked.sort_unstable();
        let mut expect = good.to_vec();
        expect.sort_unstable();
        assert_eq!(picked, expect, "the optimum is the unique pair of excellent hosts");
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn zero_chains_rejected() {
        let (t, model) = env(1);
        let spec = ApplicationSpec::k_of_n(1, 2);
        ParallelSearcher::new(&t, model).search(
            &spec,
            &ReliabilityObjective,
            &ParallelSearchConfig::new(0, SearchConfig::iterations(5, 100, 1)),
            None,
            None,
        );
    }

    /// Exchange disabled (`exchange_every = 0`) degrades to independent
    /// restarts, still deterministic and still merged.
    #[test]
    fn disabled_exchange_runs_chains_independently() {
        let (t, model) = env(9);
        let spec = ApplicationSpec::k_of_n(2, 3);
        let mut cfg = ParallelSearchConfig::new(2, SearchConfig::iterations(12, 500, 31));
        cfg.exchange_every = 0;
        let searcher = ParallelSearcher::new(&t, model);
        let a = searcher.search(&spec, &ReliabilityObjective, &cfg, None, None);
        let b = searcher.search(&spec, &ReliabilityObjective, &cfg, None, None);
        assert_eq!(a.best.best_plan, b.best.best_plan);
        assert_eq!(a.combined.plans_assessed, 2 * 12);
    }
}
