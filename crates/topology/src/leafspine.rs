//! Two-tier leaf-spine generator.
//!
//! reCloud "is general and works with any of these architectures" (§3.1);
//! the route-and-check step only needs the architecture's routing protocol
//! swapped (§3.2.1). This generator provides the simplest widely-deployed
//! alternative to fat-tree: every leaf connects to every spine, hosts hang
//! off leaves, and a configurable number of *border leaves* peer with the
//! external world through the spines... more precisely, the external node
//! attaches to a subset of spines, mirroring how border/exit spines are
//! deployed in practice.

use crate::component::{Component, ComponentKind};
use crate::graph::EdgeList;
use crate::id::ComponentId;
use crate::power::RoundRobinPower;
use crate::topology::{Topology, TopologyKind};

/// Parameters for a leaf-spine fabric.
#[derive(Clone, Copy, Debug)]
pub struct LeafSpineParams {
    /// Number of spine switches (≥ 1).
    pub spines: u32,
    /// Number of leaf switches (≥ 1).
    pub leaves: u32,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: u32,
    /// How many spines peer with the external world (≥ 1, ≤ spines).
    pub border_spines: u32,
    /// Number of shared power supplies.
    pub power_supplies: u32,
}

impl LeafSpineParams {
    /// A fabric with the given dimensions, 2 border spines (capped at
    /// `spines`) and 5 power supplies.
    pub fn new(spines: u32, leaves: u32, hosts_per_leaf: u32) -> Self {
        LeafSpineParams {
            spines,
            leaves,
            hosts_per_leaf,
            border_spines: 2.min(spines),
            power_supplies: 5,
        }
    }

    /// Overrides the number of border spines.
    pub fn border_spines(mut self, n: u32) -> Self {
        self.border_spines = n;
        self
    }

    /// Overrides the number of power supplies.
    pub fn power_supplies(mut self, n: u32) -> Self {
        self.power_supplies = n;
        self
    }

    /// The generator's preconditions: at least one spine, leaf and host
    /// per leaf, and `border_spines` in `1..=spines`.
    pub fn check(&self) -> Result<(), String> {
        if self.spines == 0 || self.leaves == 0 || self.hosts_per_leaf == 0 {
            return Err("leaf-spine needs at least one spine, leaf and host per leaf".into());
        }
        if self.border_spines == 0 || self.border_spines > self.spines {
            return Err("border_spines must be in 1..=spines".into());
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics on zero spines/leaves/hosts-per-leaf or if
    /// `border_spines` is zero or exceeds `spines` (see
    /// [`LeafSpineParams::check`]).
    pub fn build(self) -> Topology {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let n_spine = self.spines as usize;
        let n_leaf = self.leaves as usize;
        let n_hosts = (self.leaves * self.hosts_per_leaf) as usize;
        let n_power = self.power_supplies as usize;

        let mut components = Vec::with_capacity(n_spine + n_leaf + n_hosts + 1 + n_power);
        let push = |components: &mut Vec<Component>, kind, ordinal| {
            let id = ComponentId::from_index(components.len());
            components.push(Component { id, kind, ordinal });
            id
        };

        let spine_base = 0u32;
        for i in 0..n_spine {
            push(&mut components, ComponentKind::CoreSwitch, i as u32);
        }
        let leaf_base = components.len() as u32;
        for i in 0..n_leaf {
            push(&mut components, ComponentKind::EdgeSwitch, i as u32);
        }
        let host_base = components.len() as u32;
        for i in 0..n_hosts {
            push(&mut components, ComponentKind::Host, i as u32);
        }
        let external = push(&mut components, ComponentKind::External, 0);
        let mut power_supplies = Vec::with_capacity(n_power);
        for i in 0..n_power {
            power_supplies.push(push(&mut components, ComponentKind::PowerSupply, i as u32));
        }

        let mut edges = EdgeList::new();
        for l in 0..self.leaves {
            let leaf = ComponentId(leaf_base + l);
            for s in 0..self.spines {
                edges.add(leaf, ComponentId(spine_base + s));
            }
            for h in 0..self.hosts_per_leaf {
                edges.add(ComponentId(host_base + l * self.hosts_per_leaf + h), leaf);
            }
        }
        // Border spines peer with the external world. They remain regular
        // spines for east-west traffic; we record them as the topology's
        // border switches.
        let mut borders = Vec::new();
        for s in 0..self.border_spines {
            let spine = ComponentId(spine_base + s);
            edges.add(spine, external);
            borders.push(spine);
        }
        let graph = edges.build(components.len());

        let mut power_of = vec![u32::MAX; components.len()];
        let mut rr = RoundRobinPower::new(&power_supplies);
        for c in &components {
            if c.kind.is_switch() {
                power_of[c.id.index()] = rr.next_supply().0;
            }
        }
        for l in 0..self.leaves {
            let supply = rr.next_supply();
            for h in 0..self.hosts_per_leaf {
                power_of[(host_base + l * self.hosts_per_leaf + h) as usize] = supply.0;
            }
        }

        let hosts = (0..n_hosts).map(|i| ComponentId(host_base + i as u32)).collect();
        Topology::assemble(
            components,
            graph,
            external,
            hosts,
            borders,
            power_supplies,
            power_of,
            TopologyKind::LeafSpine {
                spines: self.spines,
                leaves: self.leaves,
                hosts_per_leaf: self.hosts_per_leaf,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_degrees() {
        let t = LeafSpineParams::new(4, 6, 8).build();
        assert_eq!(t.num_hosts(), 48);
        assert_eq!(t.count_kind(ComponentKind::CoreSwitch), 4);
        assert_eq!(t.count_kind(ComponentKind::EdgeSwitch), 6);
        assert_eq!(t.border_switches().len(), 2);
        // Leaf degree: spines + hosts.
        let leaf = t.rack_of(t.hosts()[0]);
        assert_eq!(t.graph().degree(leaf), 4 + 8);
        // Border spine degree: leaves + external.
        assert_eq!(t.graph().degree(t.border_switches()[0]), 6 + 1);
        // Non-border spine degree: leaves only.
        let non_border = ComponentId(3);
        assert_eq!(t.graph().degree(non_border), 6);
        assert_eq!(t.graph().degree(t.external()), 2);
    }

    #[test]
    fn hosts_on_same_leaf_share_power() {
        let t = LeafSpineParams::new(2, 3, 4).build();
        for l in 0..3u32 {
            let base = t.hosts()[(l * 4) as usize];
            let p = t.power_of(base).unwrap();
            for h in 0..4usize {
                assert_eq!(t.power_of(t.hosts()[l as usize * 4 + h]), Some(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "border_spines")]
    fn too_many_border_spines_rejected() {
        LeafSpineParams::new(2, 2, 2).border_spines(3).build();
    }
}
