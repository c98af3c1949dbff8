//! Held-out re-ranking: how a search turns its chains into an answer.
//!
//! A chain ranks plans on one common-random-numbers table (the
//! *in-sample* table). The plan that ranks first there is the maximum of
//! thousands of noisy estimates, so its score on that table is
//! optimistic, and near-ties among the top plans are ordered by the
//! table's noise. Two more tables, both the search's own length, settle
//! the answer instead:
//!
//! * the **validation** table, `derive_seed(crn_seed, VALIDATE)`, scores
//!   every candidate the chains kept and picks the winner;
//! * the **report** table, `derive_seed(crn_seed, REPORT)`, scores the
//!   winner once more — an estimate no selection has seen, which is what
//!   the search reports and judges `desired` against.
//!
//! Each chain scores its own candidates on the validation table
//! ([`validate`]; a parallel search does so in the chain's thread), and
//! `select` is the one place an answer is made: [`crate::Searcher::search`]
//! hands it one chain's scored candidates, [`crate::ParallelSearcher::search`]
//! every chain's, so one chain gives the sequential search's bits.

use crate::objective::Objective;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::Assessor;
use recloud_sampling::{derive_seed, ReliabilityEstimate};
use std::time::{Duration, Instant};

/// Plans a chain keeps for re-ranking besides its initial plan.
pub const KEPT: usize = 8;
/// Seed stream of the validation table, under the search's CRN seed.
pub const VALIDATE: u64 = 0x5641_4C49_4441_5445;
/// Seed stream of the report table, under the search's CRN seed.
pub const REPORT: u64 = 0x5245_504F_5254;

/// A plan a chain kept, with its in-sample measure.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) plan: DeploymentPlan,
    pub(crate) measure: f64,
}

/// A chain's initial plan, and its [`KEPT`] best distinct plans whose
/// in-sample measure is at least the initial plan's.
pub(crate) struct Candidates {
    initial: Candidate,
    /// Best first; among equal measures, the first found first.
    top: Vec<Candidate>,
}

impl Candidates {
    /// The pool of a chain whose initial plan scored `measure`.
    pub(crate) fn new(initial: &DeploymentPlan, measure: f64) -> Self {
        Candidates {
            initial: Candidate { plan: initial.clone(), measure },
            top: Vec::with_capacity(KEPT + 1),
        }
    }

    /// Keeps `plan` if it ranks among the best distinct plans so far.
    pub(crate) fn offer(&mut self, plan: &DeploymentPlan, measure: f64) {
        let full = self.top.len() == KEPT;
        if measure < self.initial.measure || (full && measure <= self.top[KEPT - 1].measure) {
            return;
        }
        if self.initial.plan == *plan || self.top.iter().any(|c| c.plan == *plan) {
            return;
        }
        let at = self.top.partition_point(|c| c.measure >= measure);
        self.top.insert(at, Candidate { plan: plan.clone(), measure });
        self.top.truncate(KEPT);
    }

    /// Every kept plan, in the order they were found within each measure.
    pub(crate) fn into_vec(self) -> Vec<Candidate> {
        let mut all = Vec::with_capacity(self.top.len() + 1);
        all.push(self.initial);
        all.extend(self.top);
        all
    }
}

/// One chain's candidates, each with its measure on the validation
/// table.
pub(crate) struct Validated {
    scored: Vec<(Candidate, f64)>,
    elapsed: Duration,
}

/// Scores one chain's candidates on the validation table, `rounds` long.
/// A parallel search calls it in each chain's own thread: an engine over
/// the same model gives the same bits whichever chain's it is.
pub(crate) fn validate(
    assessor: &mut Assessor,
    spec: &ApplicationSpec,
    objective: &dyn Objective,
    rounds: usize,
    crn_seed: u64,
    candidates: Vec<Candidate>,
) -> Validated {
    let started = Instant::now();
    let seed = derive_seed(crn_seed, VALIDATE);
    let scored = candidates
        .into_iter()
        .map(|c| {
            let score = assessor.assess(spec, &c.plan, rounds, seed).estimate.score;
            let held = objective.measure(&c.plan, score);
            (c, held)
        })
        .collect();
    Validated { scored, elapsed: started.elapsed() }
}

/// The answer [`select`] settled on.
pub(crate) struct Selected {
    /// Index of the candidate list the winner came from (its first
    /// occurrence, when several chains kept it).
    pub(crate) source: usize,
    /// The validation winner.
    pub(crate) plan: DeploymentPlan,
    /// Its in-sample measure.
    pub(crate) measure: f64,
    /// Its estimate on the report table.
    pub(crate) report: ReliabilityEstimate,
    /// Its measure under the objective on the report table.
    pub(crate) report_measure: f64,
    /// Wall clock the held-out runs add to the search: the slowest
    /// list's validation plus the report run.
    pub(crate) elapsed: Duration,
}

/// Pools the validated lists (a plan kept by several lists counts once,
/// for the first) and returns the plan with the best validation measure,
/// with its report-table estimate. Ties on the validation table go to
/// the better in-sample measure, then to the earlier list and the
/// earlier find. The report run is `rounds` long, the search's own
/// length.
///
/// # Panics
/// Panics if every list is empty.
pub(crate) fn select(
    assessor: &mut Assessor,
    spec: &ApplicationSpec,
    objective: &dyn Objective,
    rounds: usize,
    crn_seed: u64,
    lists: Vec<Validated>,
) -> Selected {
    let started = Instant::now();
    let validation = lists.iter().map(|l| l.elapsed).max().unwrap_or_default();
    let mut pool: Vec<(usize, Candidate, f64)> = Vec::new();
    for (source, list) in lists.into_iter().enumerate() {
        for (c, held) in list.scored {
            if !pool.iter().any(|(_, p, _)| p.plan == c.plan) {
                pool.push((source, c, held));
            }
        }
    }
    // Stable: equal in-sample measures keep list and find order, so the
    // head is the in-sample best a search without re-ranking returned.
    pool.sort_by(|a, b| b.1.measure.total_cmp(&a.1.measure));

    let mut winner: Option<(usize, f64)> = None;
    for (i, &(_, _, held)) in pool.iter().enumerate() {
        if winner.is_none_or(|(_, best)| held > best) {
            winner = Some((i, held));
        }
    }
    let (index, _) = winner.expect("a search keeps at least its initial plan");
    let (source, chosen, _) = pool.swap_remove(index);
    let report =
        assessor.assess(spec, &chosen.plan, rounds, derive_seed(crn_seed, REPORT)).estimate;
    let report_measure = objective.measure(&chosen.plan, report.score);

    let registry = recloud_obs::global();
    let elapsed = validation + started.elapsed();
    registry.histogram("search.holdout_us").record(elapsed.as_micros() as u64);
    let switched = registry.counter("search.holdout_switched_total");
    if index != 0 {
        switched.inc();
    }
    Selected { source, plan: chosen.plan, measure: chosen.measure, report, report_measure, elapsed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::Rng;
    use recloud_topology::FatTreeParams;

    fn plans(n: usize) -> Vec<DeploymentPlan> {
        let t = FatTreeParams::new(8).build();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let mut rng = Rng::new(5);
        let mut out: Vec<DeploymentPlan> = Vec::new();
        while out.len() < n {
            let p = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// The pool keeps the initial plan whatever follows, never a plan
    /// below it, each plan once, and at most [`KEPT`] others, best first
    /// with the first found first among equals.
    #[test]
    fn candidates_keep_the_best_distinct_plans_and_the_initial() {
        let p = plans(KEPT + 4);
        let mut pool = Candidates::new(&p[0], 0.5);
        pool.offer(&p[1], 0.4); // below the initial plan
        pool.offer(&p[0], 0.9); // the initial plan again
        for (i, plan) in p[2..].iter().enumerate() {
            pool.offer(plan, 0.6 + 0.01 * i as f64);
        }
        pool.offer(&p[KEPT + 3], 0.6 + 0.01 * (KEPT + 1) as f64); // already kept
        pool.offer(&p[1], 0.6 + 0.01 * (KEPT + 1) as f64); // ties the best, found later
        let kept = pool.into_vec();
        assert_eq!(kept.len(), KEPT + 1);
        assert_eq!(kept[0].plan, p[0]);
        assert_eq!(kept[0].measure, 0.5);
        let top: Vec<_> = kept[1..].iter().map(|c| c.measure).collect();
        assert!(top.windows(2).all(|w| w[0] >= w[1]), "{top:?}");
        assert_eq!(kept[1].plan, p[KEPT + 3], "the first plan to reach a measure ranks first");
        assert_eq!(kept[2].plan, p[1]);
        assert!(kept.iter().all(|c| c.plan != p[2] && c.plan != p[3]), "the lowest fell out");
    }
}
