//! The 6-step reliable-deployment search (§3.3.1).
//!
//! 1. generate a random initial plan (optionally under placement
//!    heuristics);
//! 2. assess it;
//! 3. generate a neighbor (one-host move), discarding rule violations and
//!    symmetry-equivalent plans (network transformations);
//! 4. assess the neighbor;
//! 5. accept it if better, or with probability `exp(−Δ/t)` if worse, with
//!    the paper's log-ratio Δ (Eq 5) and budget-linear temperature (Eq 6);
//! 6. repeat until the desired score is met or the budget runs out.
//!
//! The search drives whatever [`Objective`] it is given — plain
//! reliability, or the holistic multi-objective measure (§3.3.3), in
//! which case Δ is computed on the measure exactly as §3.3.3 prescribes
//! ("reCloud uses this holistic measure to evolve neighboring deployment
//! plans and determine whether to accept them").
//!
//! Every plan is ranked on the search's in-sample table; the answer is
//! chosen and scored on two held-out tables ([`crate::holdout`]).

use crate::holdout::{self, Candidate, Candidates, Selected};
use crate::objective::Objective;
use crate::schedule::{
    acceptance_probability, BudgetClock, DeltaRule, SearchBudget, TemperatureSchedule,
};
use crate::transform::SymmetryChecker;
use recloud_apps::{ApplicationSpec, DeploymentPlan, PlacementRules, WorkloadMap};
use recloud_assess::Assessor;
use recloud_obs::{Counter, KindId};
use recloud_sampling::{wilson95, Rng};
use recloud_topology::ComponentId;
use std::sync::Arc;
use std::time::Duration;

/// Tunable knobs of the annealing search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Search budget (`T_max` or an iteration count).
    pub budget: SearchBudget,
    /// Route-and-check rounds per assessment (paper default 10⁴).
    pub rounds: usize,
    /// Stop early once the best plan's *measure* is shown to reach this
    /// value (`R_desired`): its measure at the 95 % Wilson lower bound of
    /// its in-sample reliability, as a table on which no round failed
    /// measures 1.0 without proving it. 1.0 or more spends the whole
    /// budget, as in §4.1.
    pub desired: f64,
    /// Placement constraints; violating neighbors are discarded instantly
    /// (§3.3.3 "quickly discard any generated deployment plans that do not
    /// satisfy resource constraints").
    pub rules: PlacementRules,
    /// Δ formula for Eq 4 (paper: log-ratio).
    pub delta: DeltaRule,
    /// Temperature schedule (paper: budget-linear).
    pub schedule: TemperatureSchedule,
    /// Enable the Step 3 network-transformation check.
    pub use_symmetry: bool,
    /// Master seed: drives plan generation, acceptance coin-flips and the
    /// per-assessment sampling seeds.
    pub seed: u64,
    /// How many rejected neighbor candidates (rule violations or symmetry
    /// skips) to tolerate per iteration before accepting a candidate
    /// unchecked-by-symmetry anyway.
    pub max_neighbor_retries: usize,
    /// Assess every plan against the *same* sampled failure-state table
    /// (common random numbers). The table of §3.2.1 does not depend on
    /// the plan, so reusing it across candidates is both cheaper and —
    /// crucially — makes plan comparisons variance-free: a hill-climbing
    /// step on the shared table reflects a true reliability ordering
    /// instead of sampling noise. Disable to get fully independent
    /// estimates per plan (the noisier textbook setup).
    pub common_random_numbers: bool,
    /// Explicit seed for the shared CRN table; `None` derives it from
    /// `seed`. Parallel chains set the same override so every chain
    /// assesses against one table and their measures stay directly
    /// comparable at exchange boundaries. The held-out tables derive
    /// from it too.
    pub crn_seed: Option<u64>,
}

impl SearchConfig {
    /// Paper defaults: 30 s budget, 10⁴ rounds, `R_desired` = 1.0,
    /// no placement rules, log-ratio Δ, linear temperature, symmetry on.
    pub fn paper_default(seed: u64) -> Self {
        SearchConfig {
            budget: SearchBudget::WallClock(Duration::from_secs(30)),
            rounds: 10_000,
            desired: 1.0,
            rules: PlacementRules::none(),
            delta: DeltaRule::LogRatio,
            schedule: TemperatureSchedule::PaperLinear,
            use_symmetry: true,
            seed,
            max_neighbor_retries: 64,
            common_random_numbers: true,
            crn_seed: None,
        }
    }

    /// Deterministic variant for tests/benches: iteration budget.
    pub fn iterations(n: usize, rounds: usize, seed: u64) -> Self {
        SearchConfig { budget: SearchBudget::Iterations(n), rounds, ..Self::paper_default(seed) }
    }

    /// Seed of the in-sample table, which the held-out tables derive from
    /// ([`crate::holdout`]): `crn_seed`, or one derived from `seed`.
    pub fn table_seed(&self) -> u64 {
        self.crn_seed.unwrap_or(self.seed ^ 0xC0FF_EE00_D15E_A5E5)
    }
}

/// Counters describing how a search went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Plans actually assessed (including the initial plan).
    pub plans_assessed: usize,
    /// Neighbor candidates skipped as symmetry-equivalent (Step 3).
    pub symmetry_skips: usize,
    /// Neighbor candidates discarded by placement rules.
    pub rule_rejections: usize,
    /// Worse neighbors accepted by the annealing coin flip.
    pub worse_accepted: usize,
    /// Worse neighbors rejected.
    pub worse_rejected: usize,
}

/// One point of the search trajectory (for reliability-vs-time plots),
/// on the in-sample table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Plans assessed when this best was found.
    pub iteration: usize,
    /// Wall-clock offset of the improvement.
    pub elapsed: Duration,
    /// Best in-sample measure so far.
    pub measure: f64,
    /// In-sample reliability of the best plan so far.
    pub reliability: f64,
}

/// The result of a search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The plan the search answers with: the best of its candidates on
    /// the validation table.
    pub best_plan: DeploymentPlan,
    /// Its reliability score on the report table.
    pub best_reliability: f64,
    /// Its in-sample measure under the search objective, on the scale of
    /// the trajectory; never below the initial plan's.
    pub best_measure: f64,
    /// 95% confidence-interval width of `best_reliability`.
    pub best_ciw95: f64,
    /// True if the plan's measure on the report table reaches `desired`.
    /// When false, "the cloud provider informs the application developer
    /// that her current reliability requirements cannot be fulfilled"
    /// (§2.2).
    pub satisfied: bool,
    /// Counters.
    pub stats: SearchStats,
    /// Every strict improvement of the best in-sample measure.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Total search time, held-out runs included.
    pub elapsed: Duration,
}

/// A plan together with its in-sample figures — what a chain reports at
/// an exchange boundary and what it may be told to adopt in return.
#[derive(Clone, Debug)]
pub(crate) struct BestReport {
    /// The plan.
    pub(crate) plan: DeploymentPlan,
    /// Its measure under the search objective.
    pub(crate) measure: f64,
    /// Its assessed reliability score.
    pub(crate) reliability: f64,
}

/// One chain's run: what [`holdout::validate`] and the outcome are
/// built from.
pub(crate) struct Chain {
    /// The plans kept for re-ranking ([`Candidates`]).
    pub(crate) candidates: Vec<Candidate>,
    pub(crate) stats: SearchStats,
    pub(crate) trajectory: Vec<TrajectoryPoint>,
    pub(crate) elapsed: Duration,
}

impl Chain {
    /// The outcome of this chain answering with `selected`.
    pub(crate) fn settle(self, selected: Selected, desired: f64) -> SearchOutcome {
        SearchOutcome {
            best_plan: selected.plan,
            best_reliability: selected.report.score,
            best_measure: selected.measure,
            best_ciw95: selected.report.ciw95(),
            satisfied: selected.report_measure >= desired,
            stats: self.stats,
            trajectory: self.trajectory,
            elapsed: self.elapsed + selected.elapsed,
        }
    }
}

/// Hooks into a running search, invoked from inside the §3.3.1 loop.
/// [`Searcher::search`] runs with a no-op driver; parallel chains use a
/// driver that streams improvements out and rendezvouses with their
/// sibling chains at exchange boundaries.
pub(crate) trait SearchDriver {
    /// Called on every strict improvement of the best measure, including
    /// the initial plan's assessment, with the schedule's temperature at
    /// that moment.
    fn on_best(&mut self, _point: &TrajectoryPoint, _temperature: f64) {}

    /// Clock ticks between exchange boundaries; 0 means no boundaries.
    /// Must be constant for the lifetime of one search — every chain of
    /// a parallel population counts ticks identically, so a constant
    /// period is what keeps their rendezvous points aligned.
    fn boundary_every(&self) -> usize {
        0
    }

    /// Called whenever the clock crosses a boundary, with the chain's
    /// current best. May return a plan (with its assessed figures) to
    /// adopt; adoption replaces the *current* plan when better, and the
    /// best as well when it beats that too.
    fn at_boundary(&mut self, _best: &BestReport) -> Option<BestReport> {
        None
    }
}

/// The do-nothing driver behind the plain sequential search.
pub(crate) struct NoDriver;

impl SearchDriver for NoDriver {}

/// What a chain adds its [`SearchStats`], improvements and 1 to as it ends.
const COUNTERS: [&str; 7] = [
    "search.plans_assessed_total",
    "search.symmetry_skips_total",
    "search.rule_rejections_total",
    "search.worse_accepted_total",
    "search.worse_rejected_total",
    "search.improvements_total",
    "search.searches_total",
];

/// Cached handles into the process-wide [`recloud_obs::global()`]
/// registry plus pre-interned journal kinds, registered once per
/// searcher. The counters are added once per chain, from its
/// [`SearchStats`] and trajectory; journal events are per decision.
///
/// Journal kinds and payloads (acceptance-rate and temperature
/// trajectory, per the observability contract):
/// * `anneal.best` — a new best plan: `v0` = iteration (plans
///   assessed), `f0` = best measure, `f1` = temperature.
/// * `anneal.accept_worse` / `anneal.reject_worse` — the Step 5 coin
///   flip on a worse neighbor: `v0` = plans assessed, `f0` =
///   acceptance probability `exp(−Δ/t)`, `f1` = temperature.
struct SearchInstruments {
    counters: [Arc<Counter>; 7],
    best_kind: KindId,
    accept_kind: KindId,
    reject_kind: KindId,
}

impl SearchInstruments {
    fn from_global() -> Self {
        let registry = recloud_obs::global();
        let journal = registry.journal();
        SearchInstruments {
            counters: COUNTERS.map(|name| registry.counter(name)),
            best_kind: journal.kind_id("anneal.best"),
            accept_kind: journal.kind_id("anneal.accept_worse"),
            reject_kind: journal.kind_id("anneal.reject_worse"),
        }
    }

    /// A new best plan, found after `iteration` assessments with `measure`
    /// and `reliability`: onto the trajectory, into the journal and to the
    /// driver.
    fn best(
        &self,
        trajectory: &mut Vec<TrajectoryPoint>,
        clock: &BudgetClock,
        (iteration, measure, reliability): (usize, f64, f64),
        driver: &mut dyn SearchDriver,
    ) {
        let point = TrajectoryPoint { iteration, elapsed: clock.elapsed(), measure, reliability };
        trajectory.push(point);
        let journal = recloud_obs::global().journal();
        journal.record(self.best_kind, iteration as u64, 0, measure, clock.temperature());
        driver.on_best(&point, clock.temperature());
    }

    /// Adds one finished chain's counts to [`COUNTERS`].
    fn publish(&self, s: &SearchStats, improvements: usize) {
        let (plans, skips, rejections) = (s.plans_assessed, s.symmetry_skips, s.rule_rejections);
        let counts =
            [plans, skips, rejections, s.worse_accepted, s.worse_rejected, improvements, 1];
        self.counters.iter().zip(counts).for_each(|(counter, n)| counter.add(n as u64));
    }
}

/// The annealing searcher. Owns the assessment engine and scratch; one
/// searcher can run many searches.
pub struct Searcher<'a> {
    assessor: &'a mut Assessor,
    symmetry: SymmetryChecker,
    obs: SearchInstruments,
    /// Scratch: the hosts a symmetry check keeps in place.
    others: Vec<ComponentId>,
}

impl<'a> Searcher<'a> {
    /// Builds a searcher over the assessor's topology and fault model.
    pub fn new(assessor: &'a mut Assessor) -> Self {
        let symmetry = SymmetryChecker::new(assessor.topology(), assessor.model());
        Searcher { assessor, symmetry, obs: SearchInstruments::from_global(), others: Vec::new() }
    }

    /// Runs the §3.3.1 search for `spec` under `objective`, then answers
    /// with the best of its candidates on held-out tables
    /// ([`crate::holdout`]).
    pub fn search(
        &mut self,
        spec: &ApplicationSpec,
        objective: &dyn Objective,
        config: &SearchConfig,
        workload: Option<&WorkloadMap>,
    ) -> SearchOutcome {
        let mut chain = self.run_chain(spec, objective, config, workload, &mut NoDriver);
        let (rounds, crn_seed) = (config.rounds, config.table_seed());
        let candidates = std::mem::take(&mut chain.candidates);
        let validated =
            holdout::validate(self.assessor, spec, objective, rounds, crn_seed, candidates);
        let selected =
            holdout::select(self.assessor, spec, objective, rounds, crn_seed, vec![validated]);
        chain.settle(selected, config.desired)
    }

    /// The §3.3.1 loop with a [`SearchDriver`] tapped into it — the
    /// substrate of both trajectory streaming and the parallel chains'
    /// best-plan exchange. Everything it returns is in-sample.
    pub(crate) fn run_chain(
        &mut self,
        spec: &ApplicationSpec,
        objective: &dyn Objective,
        config: &SearchConfig,
        workload: Option<&WorkloadMap>,
        driver: &mut dyn SearchDriver,
    ) -> Chain {
        let mut rng = Rng::new(config.seed);
        let mut stats = SearchStats::default();
        let mut clock = BudgetClock::start(config.budget, config.schedule);

        // Step 1: initial plan (respecting rules, best-effort).
        let topology = self.assessor.topology().clone();
        let hosts = topology.hosts();
        let mut current = loop {
            let p = DeploymentPlan::random(spec, hosts, &mut rng);
            if config.rules.check(&p, &topology, workload) {
                break p;
            }
            stats.rule_rejections += 1;
            if stats.rule_rejections > 10_000 {
                panic!("placement rules rejected 10k random plans; rules too tight");
            }
        };

        // Sampling seed policy: one shared table (CRN) or fresh draws.
        let crn_seed = config.table_seed();
        let next_seed = |rng: &mut Rng| {
            if config.common_random_numbers {
                crn_seed
            } else {
                rng.next_u64()
            }
        };

        // Step 2: assess it.
        let seed0 = next_seed(&mut rng);
        let a = self.assessor.assess(spec, &current, config.rounds, seed0);
        stats.plans_assessed += 1;
        clock.tick();
        let mut cur_rel = a.estimate.score;
        let mut cur_measure = objective.measure(&current, cur_rel);
        let mut best_plan = current.clone();
        let mut best_rel = cur_rel;
        let mut best_measure = cur_measure;
        let mut candidates = Candidates::new(&current, cur_measure);
        let mut trajectory = Vec::new();
        self.obs.best(&mut trajectory, &clock, (1, best_measure, best_rel), driver);

        // A saturated data center (every host already carries an
        // instance) leaves no legal neighbor move: `neighbor` would
        // panic hunting for an unused host. The only reachable plan is
        // the initial one, so skip Steps 3-6 and return it as the
        // outcome instead of crashing mid-search.
        let saturated = spec.total_instances() >= hosts.len();
        // The chain ends once the best plan is shown to meet `desired`: its
        // measure at the 95 % Wilson lower bound of its in-sample
        // reliability, which a table with no failed round does not lift to 1.
        let reached = |plan: &DeploymentPlan, reliability: f64| {
            let (centre, half) = wilson95(reliability, config.rounds as u64);
            config.desired < 1.0 && objective.measure(plan, centre - half) >= config.desired
        };
        // Each step's neighbor is written over this; an accepted one swaps.
        let mut neighbor = current.clone();

        // Steps 3-6.
        while !saturated && !clock.exhausted() && !reached(&best_plan, best_rel) {
            // Step 3: neighbor generation with rule/symmetry filtering.
            let found = (0..config.max_neighbor_retries).any(|_| {
                current.neighbor_into(hosts, &mut rng, &mut neighbor);
                if !config.rules.check(&neighbor, &topology, workload) {
                    stats.rule_rejections += 1;
                    return false;
                }
                if config.use_symmetry {
                    // Identify the single moved instance.
                    if let Some((old, new)) = moved_pair(&current, &neighbor) {
                        self.others.clear();
                        self.others.extend(current.all_hosts().filter(|&h| h != old));
                        if self.symmetry.equivalent_move(&self.others, old, new) {
                            stats.symmetry_skips += 1;
                            return false;
                        }
                    }
                }
                true
            });
            if found {
                // Step 4: assess the neighbor.
                let seed = next_seed(&mut rng);
                let a = self.assessor.assess(spec, &neighbor, config.rounds, seed);
                stats.plans_assessed += 1;
                clock.tick();
                let n_rel = a.estimate.score;
                let n_measure = objective.measure(&neighbor, n_rel);
                candidates.offer(&neighbor, n_measure);

                // Step 5: accept or reject.
                let accept = if n_measure >= cur_measure {
                    true
                } else {
                    let delta = config.delta.delta(cur_measure, n_measure);
                    let t = clock.temperature();
                    let p = acceptance_probability(delta, t);
                    let coin = rng.next_f64() < p;
                    let journal = recloud_obs::global().journal();
                    if coin {
                        stats.worse_accepted += 1;
                        journal.record(self.obs.accept_kind, stats.plans_assessed as u64, 0, p, t);
                    } else {
                        stats.worse_rejected += 1;
                        journal.record(self.obs.reject_kind, stats.plans_assessed as u64, 0, p, t);
                    }
                    coin
                };
                if accept {
                    std::mem::swap(&mut current, &mut neighbor);
                    cur_rel = n_rel;
                    cur_measure = n_measure;
                    if cur_measure > best_measure {
                        best_measure = cur_measure;
                        best_rel = cur_rel;
                        best_plan = current.clone();
                        let best = (stats.plans_assessed, best_measure, best_rel);
                        self.obs.best(&mut trajectory, &clock, best, driver);
                    }
                }
            } else {
                // Everything nearby is equivalent or invalid; count the
                // attempt against the budget and try again from the same
                // current plan (after any boundary work below).
                clock.tick();
            }

            // Exchange boundary: every chain ticks its clock exactly once
            // per loop pass, so equal budgets cross the same boundaries —
            // the alignment the parallel rendezvous relies on.
            let every = driver.boundary_every();
            if every != 0 && clock.iterations().is_multiple_of(every) {
                let report = BestReport {
                    plan: best_plan.clone(),
                    measure: best_measure,
                    reliability: best_rel,
                };
                // Only a strictly better foreign plan is adopted — a
                // chain's own best echoed back is a no-op, which keeps a
                // single driven chain identical to the plain search.
                if let Some(adopt) = driver.at_boundary(&report) {
                    if adopt.measure > best_measure {
                        candidates.offer(&adopt.plan, adopt.measure);
                        best_plan = adopt.plan.clone();
                        best_measure = adopt.measure;
                        best_rel = adopt.reliability;
                        current = adopt.plan;
                        // `cur_rel` deliberately stays stale: it is only
                        // ever read after Step 5 refreshes it from a
                        // fresh assessment.
                        cur_measure = adopt.measure;
                        let best = (stats.plans_assessed, best_measure, best_rel);
                        self.obs.best(&mut trajectory, &clock, best, driver);
                    }
                }
            }
        }
        self.obs.publish(&stats, trajectory.len());
        Chain { candidates: candidates.into_vec(), stats, trajectory, elapsed: clock.elapsed() }
    }
}

/// Finds the single (old, new) host pair by which two plans differ, if
/// they differ in exactly one instance slot.
fn moved_pair(a: &DeploymentPlan, b: &DeploymentPlan) -> Option<(ComponentId, ComponentId)> {
    let mut pair = None;
    for (ha, hb) in a.all_hosts().zip(b.all_hosts()) {
        if ha != hb {
            if pair.is_some() {
                return None;
            }
            pair = Some((ha, hb));
        }
    }
    pair
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{HolisticObjective, ReliabilityObjective};
    use recloud_faults::FaultModel;
    use recloud_topology::FatTreeParams;

    fn engine(seed: u64) -> Assessor {
        engine_on(8, seed)
    }

    fn engine_on(k: u32, seed: u64) -> Assessor {
        let t = FatTreeParams::new(k).build();
        let model = FaultModel::paper_default(&t, seed);
        Assessor::new(&t, model)
    }

    #[test]
    fn search_runs_and_improves_over_initial() {
        let mut assessor = engine(1);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let cfg = SearchConfig::iterations(40, 2_000, 7);
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        assert_eq!(out.stats.plans_assessed, 40);
        assert!(!out.trajectory.is_empty());
        let first = out.trajectory.first().unwrap().measure;
        assert!(out.best_measure >= first, "search must never lose its best");
        assert!(out.best_reliability > 0.9, "4-of-5 on a healthy DC is very reliable");
        assert!(!out.satisfied, "R_desired=1.0 can never be satisfied");
    }

    /// Observability contract: a search reports its acceptance behavior
    /// and temperature trajectory through the global journal and
    /// counters. The registry is process-wide and other tests record
    /// concurrently, so assertions are delta/presence-based.
    #[test]
    fn search_reports_trajectory_through_the_global_journal() {
        let registry = recloud_obs::global();
        let before = registry.snapshot();
        let recorded_before = registry.journal().recorded();

        let mut assessor = engine(5);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let cfg = SearchConfig::iterations(30, 1_000, 11);
        let out = Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &cfg, None);

        let after = registry.snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("search.plans_assessed_total") >= out.stats.plans_assessed as u64);
        assert!(delta("search.improvements_total") >= out.trajectory.len() as u64);
        assert!(
            delta("search.worse_accepted_total") >= out.stats.worse_accepted as u64
                && delta("search.worse_rejected_total") >= out.stats.worse_rejected as u64,
            "acceptance-rate counters cover this search's coin flips"
        );
        assert!(delta("search.searches_total") >= 1);
        assert!(
            registry.journal().recorded() > recorded_before,
            "at least the initial anneal.best event lands in the journal"
        );
        // The newest events include this search's trajectory: anneal.*
        // kinds with a finite temperature payload.
        let anneal: Vec<_> = registry
            .journal()
            .tail(4096)
            .into_iter()
            .filter(|e| e.kind.starts_with("anneal."))
            .collect();
        assert!(!anneal.is_empty());
        assert!(anneal.iter().all(|e| e.f1.is_finite()), "f1 carries the temperature");
    }

    /// Regression: step-1 rule rejections must hit the global
    /// `search.rule_rejections_total` counter, not just `SearchStats` —
    /// the old code only incremented the counter in the step-3 loop, so
    /// initial-plan rejections silently undercounted. One iteration
    /// keeps step 3 out of the picture entirely.
    #[test]
    fn initial_plan_rule_rejections_hit_the_global_counter() {
        let registry = recloud_obs::global();
        let mut assessor = engine(7);
        let spec = ApplicationSpec::k_of_n(2, 4);
        let mut cfg = SearchConfig::iterations(1, 200, 21);
        cfg.rules = PlacementRules::distinct_pods();
        let before = registry.snapshot().counter("search.rule_rejections_total").unwrap_or(0);
        let out = Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &cfg, None);
        let after = registry.snapshot().counter("search.rule_rejections_total").unwrap_or(0);
        assert!(
            out.stats.rule_rejections > 0,
            "seed must make step 1 reject at least one random plan (got {:?})",
            out.stats
        );
        assert_eq!(out.stats.plans_assessed, 1, "budget of 1 keeps step 3 out");
        assert!(
            after - before >= out.stats.rule_rejections as u64,
            "counter delta {} must cover the {} initial-plan rejections",
            after - before,
            out.stats.rule_rejections
        );
    }

    /// Regression: a fully-saturated data center (as many hosts as
    /// instances) used to panic inside `DeploymentPlan::neighbor`
    /// ("no unused host available"). Now the search detects it up front
    /// and returns the only possible plan as the outcome: 12 instances on
    /// the 12 hosts of a k = 4 fat-tree.
    #[test]
    fn saturated_pool_returns_initial_plan_instead_of_panicking() {
        let mut assessor = engine_on(4, 9);
        let hosts = assessor.topology().hosts().to_vec();
        assert_eq!(hosts.len(), 12);
        let spec = ApplicationSpec::k_of_n(2, 12);
        let cfg = SearchConfig::iterations(25, 500, 17);
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        assert_eq!(out.stats.plans_assessed, 1, "only the initial plan is reachable");
        let mut used: Vec<_> = out.best_plan.all_hosts().collect();
        used.sort_unstable();
        let mut expect = hosts;
        expect.sort_unstable();
        assert_eq!(used, expect, "the plan must use every host exactly once");
        assert!(out.best_reliability > 0.0);
        assert_eq!(out.trajectory.len(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_iterations() {
        let spec = ApplicationSpec::k_of_n(2, 3);
        let cfg = SearchConfig::iterations(15, 1_000, 42);
        let mut a1 = engine(3);
        let out1 = Searcher::new(&mut a1).search(&spec, &ReliabilityObjective, &cfg, None);
        let mut a2 = engine(3);
        let out2 = Searcher::new(&mut a2).search(&spec, &ReliabilityObjective, &cfg, None);
        assert_eq!(out1.best_plan, out2.best_plan);
        assert_eq!(out1.best_reliability, out2.best_reliability);
        assert_eq!(out1.stats, out2.stats);
    }

    /// A CRN search assesses every plan on one held table, where the
    /// router serves its digests and the reach rows of the last few plans'
    /// hosts from what earlier plans built. The same chain with every
    /// plan scored on an engine built for that plan alone must make the
    /// same decisions and keep the same candidates — on k = 8, and on
    /// k = 6, whose 45 hosts a 400-step walk leaves and comes back to many
    /// times over, long after the router's host set has let them go. The
    /// answer the search makes from those candidates is checked against
    /// fresh engines too: its plan scores best among them on the
    /// validation table, and its estimate is the report table's.
    #[test]
    fn crn_search_on_a_held_table_equals_a_fresh_engine_per_plan() {
        struct FreshEnginePerPlan {
            k: u32,
            spec: ApplicationSpec,
            rounds: usize,
            crn_seed: u64,
        }
        impl Objective for FreshEnginePerPlan {
            fn measure(&self, plan: &DeploymentPlan, held: f64) -> f64 {
                let fresh =
                    engine_on(self.k, 3).assess(&self.spec, plan, self.rounds, self.crn_seed);
                assert_eq!(fresh.estimate.score.to_bits(), held.to_bits(), "plan {plan}");
                fresh.estimate.score
            }
            fn name(&self) -> &'static str {
                "fresh-engine-per-plan"
            }
        }
        let spec = ApplicationSpec::k_of_n(4, 5);
        for (k, steps) in [(8, 300), (6, 400)] {
            // Two table slots, the second one short.
            let cfg =
                SearchConfig { crn_seed: Some(99), ..SearchConfig::iterations(steps, 3_000, 21) };
            let mut held = engine_on(k, 3);
            let want = Searcher::new(&mut held).run_chain(
                &spec,
                &ReliabilityObjective,
                &cfg,
                None,
                &mut NoDriver,
            );
            let fresh =
                FreshEnginePerPlan { k, spec: spec.clone(), rounds: cfg.rounds, crn_seed: 99 };
            let got = Searcher::new(&mut engine_on(k, 3)).run_chain(
                &spec,
                &fresh,
                &cfg,
                None,
                &mut NoDriver,
            );
            assert_eq!(got.candidates.len(), want.candidates.len(), "k = {k}");
            for (g, w) in got.candidates.iter().zip(&want.candidates) {
                assert_eq!(g.plan, w.plan, "k = {k}");
                assert_eq!(g.measure.to_bits(), w.measure.to_bits(), "k = {k}");
            }
            assert_eq!(got.stats, want.stats, "k = {k}");
            assert_eq!(want.stats.plans_assessed, steps);
            assert!(want.trajectory.len() > 1, "the search moved");

            let out = Searcher::new(&mut engine_on(k, 3)).search(
                &spec,
                &ReliabilityObjective,
                &cfg,
                None,
            );
            let fresh_on = |plan: &DeploymentPlan, stream: u64| {
                let seed = recloud_sampling::derive_seed(99, stream);
                engine_on(k, 3).assess(&spec, plan, cfg.rounds, seed).estimate
            };
            let kept = want.candidates.iter().find(|c| c.plan == out.best_plan);
            let kept = kept.expect("the answer is one of the chain's candidates");
            assert_eq!(out.best_measure.to_bits(), kept.measure.to_bits(), "k = {k}");
            let validation = want.candidates.iter().map(|c| fresh_on(&c.plan, holdout::VALIDATE));
            let top = validation.map(|e| e.score).fold(f64::MIN, f64::max);
            let chosen = fresh_on(&out.best_plan, holdout::VALIDATE).score;
            assert_eq!(chosen.to_bits(), top.to_bits(), "k = {k}: the validation winner");
            let report = fresh_on(&out.best_plan, holdout::REPORT);
            assert_eq!(out.best_reliability.to_bits(), report.score.to_bits(), "k = {k}");
            assert_eq!(out.best_ciw95.to_bits(), report.ciw95().to_bits(), "k = {k}");
        }
    }

    /// Answers unchanged: 30 searches on the Medium preset, each on its own
    /// seed and shared table, hashed over everything a caller can see of
    /// the outcome; a search step that got cheaper must still make the
    /// same decisions. Pinned once more when the answer moved to the
    /// held-out tables (was `0x6bde_6f70_b772_a10e`, over the plan, the
    /// in-sample reliability and the stats).
    #[test]
    fn medium_search_outcomes_are_pinned() {
        fn fnv(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        let t = recloud_topology::Scale::Medium.build();
        let mut assessor = Assessor::new(&t, FaultModel::paper_default(&t, 20_170));
        let spec = ApplicationSpec::k_of_n(4, 5);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..30 {
            let seed = recloud_sampling::derive_seed(1, i);
            let cfg = SearchConfig::iterations(600, 10_000, seed);
            let out = Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &cfg, None);
            out.best_plan.all_hosts().for_each(|host| fnv(&mut h, host.index() as u64));
            for v in [out.best_reliability, out.best_ciw95, out.best_measure] {
                fnv(&mut h, v.to_bits());
            }
            let s = out.stats;
            for v in [s.plans_assessed, s.symmetry_skips, s.worse_accepted, s.worse_rejected] {
                fnv(&mut h, v as u64);
            }
        }
        assert_eq!(h, 0xc476_3ba3_8bab_eae7, "hash {h:#018x}");
    }

    /// A table on which no round failed measures exactly 1.0. With
    /// `desired` at 1.0 — spend the whole budget — the loop used to stop
    /// at the first such plan, long before the budget was spent.
    #[test]
    fn a_perfect_in_sample_measure_does_not_end_the_chain() {
        let t = recloud_topology::Scale::Medium.build();
        for seed in 1..=3 {
            let mut assessor = Assessor::new(&t, FaultModel::paper_default(&t, seed));
            for k in [1, 2] {
                let spec = ApplicationSpec::k_of_n(k, 5);
                let cfg = SearchConfig::iterations(2_000, 10_000, seed);
                let out =
                    Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &cfg, None);
                assert_eq!(out.stats.plans_assessed, 2_000, "{k}-of-5, seed {seed}");
            }
        }
    }

    /// Medium 1-of-5 finds plans no round of a 10⁴-round table fails; a
    /// perfect sample of 10⁴ rounds bounds the reliability below by
    /// 10⁴/(10⁴ + 1.96²) ≈ 0.99962 only, short of 0.9999, so the chain goes
    /// on past the first such plan and spends its budget.
    #[test]
    fn a_desired_score_below_one_is_not_met_by_a_perfect_sample_too_small_to_show_it() {
        let t = recloud_topology::Scale::Medium.build();
        let mut assessor = Assessor::new(&t, FaultModel::paper_default(&t, 1));
        let spec = ApplicationSpec::k_of_n(1, 5);
        let mut cfg = SearchConfig::iterations(200, 10_000, 1);
        cfg.desired = 0.9999;
        let out = Searcher::new(&mut assessor).search(&spec, &ReliabilityObjective, &cfg, None);
        let first = |pass: &dyn Fn(f64) -> bool| {
            out.trajectory.iter().find(|p| pass(p.reliability)).map(|p| p.iteration)
        };
        let met = first(&|r| r >= cfg.desired).expect("an in-sample measure at 0.9999");
        assert!(out.stats.plans_assessed > met, "stopped at plan {met}");
        let perfect = first(&|r| r == 1.0).expect("a failure-free plan on the table");
        assert!(out.stats.plans_assessed > perfect, "stopped at plan {perfect}");
        assert_eq!(out.stats.plans_assessed, 200, "nothing shows 0.9999 at 10⁴ rounds");
    }

    #[test]
    fn desired_score_stops_early() {
        let mut assessor = engine(1);
        let spec = ApplicationSpec::k_of_n(1, 3);
        let mut cfg = SearchConfig::iterations(50, 500, 9);
        cfg.desired = 0.5; // trivially reachable
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        assert!(out.satisfied);
        assert!(out.stats.plans_assessed < 50, "must stop at the first plan");
    }

    #[test]
    fn placement_rules_are_respected() {
        let mut assessor = engine(2);
        let topology = assessor.topology().clone();
        let spec = ApplicationSpec::k_of_n(2, 4);
        let mut cfg = SearchConfig::iterations(10, 500, 5);
        cfg.rules = PlacementRules::distinct_racks();
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        assert!(cfg.rules.check(&out.best_plan, &topology, None));
    }

    #[test]
    fn holistic_objective_steers_toward_idle_hosts() {
        let mut assessor = engine(4);
        let topology = assessor.topology().clone();
        let spec = ApplicationSpec::k_of_n(1, 3);
        // Make half the hosts very busy.
        let mut w = WorkloadMap::uniform(&topology, 0.05);
        for (i, &h) in topology.hosts().iter().enumerate() {
            if i % 2 == 0 {
                w.set(h, 0.95);
            }
        }
        let obj = HolisticObjective::equal_weights(w.clone());
        let cfg = SearchConfig::iterations(60, 500, 11);
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &obj, &cfg, Some(&w));
        let avg = w.average(out.best_plan.all_hosts());
        assert!(avg < 0.5, "search should avoid busy hosts, avg load {avg}");
    }

    #[test]
    fn symmetry_skips_occur_in_homogeneous_world() {
        // Uniform probabilities + single power supply: most moves are
        // symmetric, so the checker must fire.
        let t = FatTreeParams::new(8).power_supplies(1).build();
        let mut model = FaultModel::new(&t, &recloud_faults::ProbabilityConfig::Uniform(0.01), 0);
        model.attach_power_dependencies(&t);
        let mut assessor = Assessor::new(&t, model);
        let spec = ApplicationSpec::k_of_n(2, 3);
        let cfg = SearchConfig::iterations(25, 500, 3);
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        assert!(
            out.stats.symmetry_skips > 0,
            "homogeneous world must produce symmetry skips: {:?}",
            out.stats
        );
    }

    #[test]
    fn trajectory_is_monotone_in_measure() {
        let mut assessor = engine(6);
        let spec = ApplicationSpec::k_of_n(4, 5);
        let cfg = SearchConfig::iterations(30, 1_000, 13);
        let mut s = Searcher::new(&mut assessor);
        let out = s.search(&spec, &ReliabilityObjective, &cfg, None);
        for w in out.trajectory.windows(2) {
            assert!(w[1].measure > w[0].measure);
            assert!(w[1].iteration >= w[0].iteration);
        }
    }

    #[test]
    fn moved_pair_detects_single_move() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 3);
        let mut rng = Rng::new(1);
        let p = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let q = p.neighbor(t.hosts(), &mut rng);
        let (old, new) = moved_pair(&p, &q).expect("neighbor differs in one slot");
        assert!(p.all_hosts().any(|h| h == old));
        assert!(q.all_hosts().any(|h| h == new));
        assert!(moved_pair(&p, &p).is_none());
    }
}
