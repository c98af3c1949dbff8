//! One engine behind every front door, and what a request means to it.
//!
//! The §2.2 service takes a spec and requirements and returns a plan with
//! its assessment. The `recloud` CLI and the daemon's worker pool are two
//! front doors to it, and both build their engine here: the paper-default
//! fault model of a topology under a seed, with an [`Assessor`] over it.
//! Building a topology's model and router costs far more than a small
//! assessment, so an engine is kept across requests. A seed changes the
//! model's numbers, not its structure: asked for another seed, the engine
//! clones its model (the trees are shared, only the probability vector is
//! copied), redraws it in place ([`FaultModel::redraw`], field for field
//! the model `FaultModel::paper_default` would build) and hands it to
//! [`Assessor::reseed`], which invalidates the failure-state table. That
//! is bit-exact against a freshly constructed engine.
//!
//! The request semantics the front doors share live here too: the spec a
//! `(k, n, layers)` describes, its cache shape, a plan from raw host ids,
//! and the checks that turn bad input into an error instead of a panic.
//! Every check that needs a topology reads the engine's, which no seed
//! changes — so a request is validated *before* the engine is asked for
//! its seed, and one that will be refused never costs the engine the
//! table it was serving from.

use crate::assessor::{Assessor, SamplerKind};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::{FaultModel, ProbabilityConfig};
use recloud_obs::trace;
use recloud_topology::{ComponentId, ComponentKind, Topology};
use std::collections::HashSet;

/// An assessment engine holding the paper-default fault model of one
/// topology under one seed.
pub struct Engine {
    seed: u64,
    assessor: Assessor,
}

impl Engine {
    /// The engine for `topology` under the paper-default model of `seed`.
    pub fn new(topology: &Topology, seed: u64, kind: SamplerKind) -> Self {
        let model = FaultModel::paper_default(topology, seed);
        Engine { seed, assessor: Assessor::with_sampler(topology, model, kind) }
    }

    /// The topology the engine assesses on.
    pub fn topology(&self) -> &Topology {
        self.assessor.topology()
    }

    /// The engine, holding the paper-default model of `seed`. Call once
    /// the request is known to run: a new seed invalidates the table. A
    /// traced request records the swap — clone, redraw, reseed — as an
    /// `engine.reseed` span (`v0` = events redrawn).
    pub fn at(&mut self, seed: u64) -> &mut Assessor {
        if self.seed != seed {
            let span_start = recloud_obs::current_span().map(|_| trace::now_us());
            let mut model = self.assessor.model().clone();
            model.redraw(self.assessor.topology(), &ProbabilityConfig::PaperDefault, seed);
            self.assessor.reseed(model);
            self.seed = seed;
            if let (Some(ctx), Some(start_us)) = (recloud_obs::current_span(), span_start) {
                let tags = (self.assessor.topology().num_components() as u64, 0);
                let span = (start_us, trace::now_us());
                trace::tracer().record(ctx.trace_id, ctx.span, "engine.reseed", span, tags);
            }
        }
        &mut self.assessor
    }
}

/// The bounds on a request that need no topology: `1 <= k <= n` and at
/// least one round.
pub fn check_shape(k: u32, n: u32, rounds: usize) -> Result<(), String> {
    if k == 0 || k > n {
        return Err(format!("need 1 <= k <= n (got k={k}, n={n})"));
    }
    if rounds == 0 {
        return Err("rounds must be at least 1 (got 0)".to_string());
    }
    Ok(())
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

/// Converts raw host ids, one list per component, into a
/// [`DeploymentPlan`], rejecting duplicate hosts (which
/// `DeploymentPlan::new` would panic on). Host ids are *not* checked
/// against a topology here; [`check_hosts`] does that.
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

/// Every raw host id names a host of `topology`.
pub fn check_hosts(topology: &Topology, assignments: &[Vec<u32>]) -> Result<(), String> {
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

/// `topology` has a host for every instance of `spec`, as a random plan
/// or a search needs.
pub fn check_fits(topology: &Topology, spec: &ApplicationSpec) -> Result<(), String> {
    let (instances, hosts) = (spec.total_instances(), topology.num_hosts());
    if instances > hosts {
        return Err(format!("{instances} instances exceed the topology's {hosts} hosts"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::Scale;

    #[test]
    fn invalid_hosts_are_errors_not_panics() {
        let topology = Scale::Tiny.build();
        let switch = (0..topology.num_components() as u32)
            .find(|&i| {
                !matches!(
                    topology.component(ComponentId::from_index(i as usize)).kind,
                    ComponentKind::Host
                )
            })
            .unwrap();
        let hosts: Vec<u32> = topology.hosts()[..2].iter().map(|h| h.index() as u32).collect();

        let out_of_range = [vec![hosts[0], hosts[1], 9_999_999]];
        assert!(check_hosts(&topology, &out_of_range).unwrap_err().contains("out of range"));

        let on_switch = [vec![hosts[0], hosts[1], switch]];
        assert!(check_hosts(&topology, &on_switch).unwrap_err().contains("not a host"));
    }

    #[test]
    fn duplicate_hosts_are_rejected_before_plan_construction() {
        let spec = spec_for(2, 3, 1);
        let err = build_plan(&spec, &[vec![72, 73, 72]]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn shapes_and_sizes_are_errors_not_panics() {
        assert!(check_shape(0, 3, 100).unwrap_err().contains("k <= n"));
        assert!(check_shape(4, 3, 100).unwrap_err().contains("k <= n"));
        assert!(check_shape(2, 3, 0).unwrap_err().contains("rounds"));
        check_shape(3, 3, 1).unwrap();

        let topology = Scale::Tiny.build();
        let hosts = topology.num_hosts() as u32;
        check_fits(&topology, &spec_for(1, hosts, 1)).unwrap();
        assert!(check_fits(&topology, &spec_for(1, hosts + 1, 1)).unwrap_err().contains("exceed"));
        assert!(check_fits(&topology, &spec_for(1, hosts / 2 + 1, 2)).is_err(), "layers add up");
    }
}
