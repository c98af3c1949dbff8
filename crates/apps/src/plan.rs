//! Deployment plans and the annealing neighbor move.
//!
//! "A deployment plan specifies which hosts the application instances
//! should be deployed onto" (§2.2). A plan maps every application
//! component to a list of hosts, one per instance. All instance hosts are
//! distinct (the paper's plan space explicitly excludes doubled-up
//! instances).
//!
//! Plans support the two operations the search needs: random generation
//! (Step 1) and the *neighbor move* — "randomly replacing one host used in
//! the current deployment plan by a new, randomly chosen host" (Step 3).

use crate::spec::ApplicationSpec;
use recloud_sampling::Rng;
use recloud_topology::ComponentId;
use std::collections::HashSet;
use std::fmt;

/// A concrete placement of every application instance.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DeploymentPlan {
    /// `assignments[c][i]` = host of instance `i` of component `c`.
    assignments: Vec<Vec<ComponentId>>,
}

impl DeploymentPlan {
    /// Builds a plan from explicit assignments and validates it against
    /// the spec: instance counts match and all hosts are distinct.
    ///
    /// # Panics
    /// Panics on shape mismatch or duplicated hosts.
    pub fn new(spec: &ApplicationSpec, assignments: Vec<Vec<ComponentId>>) -> Self {
        assert_eq!(assignments.len(), spec.num_components(), "plan must assign every component");
        for (c, comp) in spec.components().iter().enumerate() {
            assert_eq!(
                assignments[c].len(),
                comp.instances as usize,
                "component '{}' needs {} hosts",
                comp.name,
                comp.instances
            );
        }
        let mut seen = HashSet::new();
        for h in assignments.iter().flatten() {
            assert!(seen.insert(*h), "host {h} used twice in one plan");
        }
        DeploymentPlan { assignments }
    }

    /// Draws a uniformly random plan over the host pool (§3.3.1 Step 1).
    ///
    /// # Panics
    /// Panics if the pool is smaller than the total instance count.
    pub fn random(spec: &ApplicationSpec, pool: &[ComponentId], rng: &mut Rng) -> Self {
        let total = spec.total_instances();
        assert!(
            pool.len() >= total,
            "host pool ({}) smaller than total instances ({total})",
            pool.len()
        );
        let picks = rng.sample_distinct(pool.len(), total);
        let mut it = picks.into_iter().map(|i| pool[i]);
        let assignments = spec
            .components()
            .iter()
            .map(|c| (0..c.instances).map(|_| it.next().expect("sized above")).collect())
            .collect();
        DeploymentPlan { assignments }
    }

    /// The annealing neighbor move (§3.3.1 Step 3): replaces one uniformly
    /// chosen instance's host with a uniformly chosen *unused* host from
    /// the pool. Returns the new plan; `self` is untouched.
    ///
    /// # Panics
    /// Panics if the pool has no unused host.
    pub fn neighbor(&self, pool: &[ComponentId], rng: &mut Rng) -> Self {
        let mut next = self.clone();
        self.neighbor_into(pool, rng, &mut next);
        next
    }

    /// [`DeploymentPlan::neighbor`] written over `next` in the memory it
    /// has: a search step allocates nothing (the few hosts are scanned).
    pub fn neighbor_into(&self, pool: &[ComponentId], rng: &mut Rng, next: &mut Self) {
        let total = self.total_instances();
        let target = rng.next_below(total);
        assert!(total < pool.len(), "no unused host available for a neighbor move");
        let replacement = loop {
            let cand = pool[rng.next_below(pool.len())];
            if self.all_hosts().all(|h| h != cand) {
                break cand;
            }
        };
        next.assignments.clone_from(&self.assignments);
        *next.assignments.iter_mut().flatten().nth(target).expect("target < total") = replacement;
    }

    /// Hosts of one component's instances.
    pub fn hosts_of(&self, component: usize) -> &[ComponentId] {
        &self.assignments[component]
    }

    /// All hosts used by the plan, in component order.
    pub fn all_hosts(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.assignments.iter().flatten().copied()
    }

    /// Total number of placed instances.
    pub fn total_instances(&self) -> usize {
        self.assignments.iter().map(|a| a.len()).sum()
    }

    /// Number of application components.
    pub fn num_components(&self) -> usize {
        self.assignments.len()
    }
}

impl fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan{{")?;
        for (c, hosts) in self.assignments.iter().enumerate() {
            if c > 0 {
                write!(f, "; ")?;
            }
            write!(f, "c{c}:")?;
            for (i, h) in hosts.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{h}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::FatTreeParams;

    fn pool() -> (ApplicationSpec, Vec<ComponentId>) {
        let t = FatTreeParams::new(4).build();
        (ApplicationSpec::k_of_n(4, 5), t.hosts().to_vec())
    }

    #[test]
    fn random_plans_are_valid_and_distinct_hosts() {
        let (spec, pool) = pool();
        let mut rng = Rng::new(1);
        for _ in 0..50 {
            let p = DeploymentPlan::random(&spec, &pool, &mut rng);
            assert_eq!(p.total_instances(), 5);
            let hosts: HashSet<_> = p.all_hosts().collect();
            assert_eq!(hosts.len(), 5);
            for h in p.all_hosts() {
                assert!(pool.contains(&h));
            }
        }
    }

    #[test]
    fn neighbor_changes_exactly_one_instance() {
        let (spec, pool) = pool();
        let mut rng = Rng::new(2);
        let p = DeploymentPlan::random(&spec, &pool, &mut rng);
        for _ in 0..50 {
            let q = p.neighbor(&pool, &mut rng);
            let ph: Vec<_> = p.all_hosts().collect();
            let qh: Vec<_> = q.all_hosts().collect();
            let diff = ph.iter().zip(&qh).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1);
            // Replacement host is fresh.
            let qset: HashSet<_> = qh.iter().collect();
            assert_eq!(qset.len(), 5);
        }
    }

    #[test]
    fn neighbor_respects_multi_component_structure() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::layered(&[(1, 2), (1, 3)]);
        let mut rng = Rng::new(3);
        let p = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        assert_eq!(p.hosts_of(0).len(), 2);
        assert_eq!(p.hosts_of(1).len(), 3);
        let q = p.neighbor(t.hosts(), &mut rng);
        assert_eq!(q.hosts_of(0).len(), 2);
        assert_eq!(q.hosts_of(1).len(), 3);
    }

    #[test]
    fn explicit_plan_validation() {
        let (spec, pool) = pool();
        let p = DeploymentPlan::new(&spec, vec![pool[..5].to_vec()]);
        assert_eq!(p.hosts_of(0), &pool[..5]);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn duplicate_hosts_rejected() {
        let (spec, pool) = pool();
        let mut hosts = pool[..5].to_vec();
        hosts[4] = hosts[0];
        DeploymentPlan::new(&spec, vec![hosts]);
    }

    #[test]
    #[should_panic(expected = "needs 5 hosts")]
    fn wrong_instance_count_rejected() {
        let (spec, pool) = pool();
        DeploymentPlan::new(&spec, vec![pool[..4].to_vec()]);
    }

    #[test]
    #[should_panic(expected = "smaller than total instances")]
    fn small_pool_rejected() {
        let (spec, pool) = pool();
        let mut rng = Rng::new(4);
        DeploymentPlan::random(&spec, &pool[..3], &mut rng);
    }
}
