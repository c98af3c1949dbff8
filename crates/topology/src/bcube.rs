//! BCube generator: a server-centric modular data-center network.
//!
//! BCube (Guo et al., SIGCOMM '09 — the paper's citation [33]) connects
//! `n^(k+1)` servers through `k+1` *levels* of n-port switches; servers
//! themselves forward traffic, so — unlike fat-tree — a *host* failure can
//! disconnect other hosts. This makes BCube the most interesting
//! generality test for reCloud's route-and-check: reachability flows
//! through host components, which the generic BFS router handles without
//! modification.
//!
//! Construction (BCube_k with n-port switches):
//!
//! * servers are addressed by digit strings `a_k … a_1 a_0` (base n);
//! * level-ℓ switch `⟨ℓ; a_k … a_{ℓ+1} a_{ℓ-1} … a_0⟩` connects the n
//!   servers that differ only in digit ℓ;
//! * there are `(k+1) · n^k` switches, each with n ports.
//!
//! External connectivity: BCube targets shipping-container DCs with an
//! aggregation layer out of scope of the original paper; we follow common
//! practice and peer a configurable number of level-k switches with the
//! external node (they act as border switches).

use crate::component::{Component, ComponentKind};
use crate::graph::EdgeList;
use crate::id::ComponentId;
use crate::power::RoundRobinPower;
use crate::topology::{Topology, TopologyKind};

/// Parameters for a BCube topology.
#[derive(Clone, Copy, Debug)]
pub struct BCubeParams {
    /// Switch port count `n` (≥ 2); also servers per level-0 switch.
    pub n: u32,
    /// Level count minus one: BCube_k has `k+1` switch levels and
    /// `n^(k+1)` servers. `k = 1` (two levels) is the common building
    /// block.
    pub k: u32,
    /// How many level-k switches peer with the external world.
    pub border_switches: u32,
    /// Number of shared power supplies.
    pub power_supplies: u32,
}

impl BCubeParams {
    /// BCube_k with n-port switches, 2 border switches and 5 supplies.
    pub fn new(n: u32, k: u32) -> Self {
        BCubeParams { n, k, border_switches: 2, power_supplies: 5 }
    }

    /// Overrides the number of border switches.
    pub fn border_switches(mut self, b: u32) -> Self {
        self.border_switches = b;
        self
    }

    /// Number of servers: n^(k+1).
    pub fn num_servers(&self) -> usize {
        (self.n as usize).pow(self.k + 1)
    }

    /// Number of switches per level: n^k.
    pub fn switches_per_level(&self) -> usize {
        (self.n as usize).pow(self.k)
    }

    /// The generator's preconditions: `n >= 2` and `border_switches` in
    /// `1..=n^k`.
    pub fn check(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err("BCube needs n >= 2 ports".into());
        }
        let (b, per_level) = (self.border_switches, self.switches_per_level());
        if b == 0 || b as usize > per_level {
            return Err(format!("border_switches must be in 1..=n^k = {per_level} (got {b})"));
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics on `n < 2` or an invalid border count (see
    /// [`BCubeParams::check`]).
    pub fn build(self) -> Topology {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let per_level = self.switches_per_level();
        let n = self.n as usize;
        let levels = (self.k + 1) as usize;
        let n_servers = self.num_servers();
        let n_switches = levels * per_level;
        let n_power = self.power_supplies as usize;

        let mut components = Vec::with_capacity(n_servers + n_switches + 1 + n_power);
        let push = |components: &mut Vec<Component>, kind, ordinal| {
            let id = ComponentId::from_index(components.len());
            components.push(Component { id, kind, ordinal });
            id
        };
        // Servers first (role-contiguous), then switches level-major.
        let host_base = 0u32;
        for i in 0..n_servers {
            push(&mut components, ComponentKind::Host, i as u32);
        }
        let switch_base = components.len() as u32;
        for i in 0..n_switches {
            push(&mut components, ComponentKind::Switch, i as u32);
        }
        let external = push(&mut components, ComponentKind::External, 0);
        let mut power_supplies = Vec::with_capacity(n_power);
        for i in 0..n_power {
            power_supplies.push(push(&mut components, ComponentKind::PowerSupply, i as u32));
        }

        // Wiring: server s (digits base n) connects at level l to switch
        // (l, s with digit l removed).
        let mut edges = EdgeList::new();
        for s in 0..n_servers {
            for level in 0..levels {
                let low = s % n.pow(level as u32);
                let high = s / n.pow(level as u32 + 1);
                let sw_index = high * n.pow(level as u32) + low;
                let sw = ComponentId(switch_base + (level * per_level + sw_index) as u32);
                edges.add(ComponentId(host_base + s as u32), sw);
            }
        }
        // Border switches: the first `border_switches` switches of the
        // top level peer with external.
        let top_base = switch_base + ((levels - 1) * per_level) as u32;
        let mut borders = Vec::new();
        for b in 0..self.border_switches {
            let sw = ComponentId(top_base + b);
            edges.add(sw, external);
            borders.push(sw);
        }
        let graph = edges.build(components.len());

        // Power: round-robin over switches, then over level-0 server
        // groups (the servers of one level-0 switch share a supply —
        // they share the same chassis row).
        let mut power_of = vec![u32::MAX; components.len()];
        let mut rr = RoundRobinPower::new(&power_supplies);
        for c in &components {
            if c.kind.is_switch() {
                power_of[c.id.index()] = rr.next_supply().0;
            }
        }
        for group in 0..per_level {
            let supply = rr.next_supply();
            for j in 0..n {
                let server = group * n + j;
                power_of[host_base as usize + server] = supply.0;
            }
        }

        let hosts = (0..n_servers).map(|i| ComponentId(host_base + i as u32)).collect();
        Topology::assemble(
            components,
            graph,
            external,
            hosts,
            borders,
            power_supplies,
            power_of,
            TopologyKind::Custom,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_bcube_formulas() {
        // BCube_1 with n = 4: 16 servers, 2 levels x 4 switches.
        let p = BCubeParams::new(4, 1);
        assert_eq!(p.num_servers(), 16);
        assert_eq!(p.switches_per_level(), 4);
        let t = p.build();
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.count_kind(ComponentKind::Switch), 8);
        assert_eq!(t.border_switches().len(), 2);
    }

    #[test]
    fn every_server_has_k_plus_1_links() {
        let t = BCubeParams::new(4, 1).build();
        for &h in t.hosts() {
            assert_eq!(t.graph().degree(h), 2, "BCube_1 servers have 2 NICs");
        }
        let t = BCubeParams::new(3, 2).build();
        for &h in t.hosts() {
            assert_eq!(t.graph().degree(h), 3, "BCube_2 servers have 3 NICs");
        }
    }

    #[test]
    fn every_switch_has_n_server_links() {
        let t = BCubeParams::new(4, 1).build();
        for c in t.components() {
            if c.kind == ComponentKind::Switch {
                let server_links = t
                    .graph()
                    .neighbors(c.id)
                    .iter()
                    .filter(|e| t.kind_of(e.to) == ComponentKind::Host)
                    .count();
                assert_eq!(server_links, 4);
            }
        }
    }

    #[test]
    fn level0_neighbors_differ_in_digit0() {
        // Servers 0..4 share level-0 switch 0 (digits 00, 01, 02, 03).
        let t = BCubeParams::new(4, 1).build();
        let sw0 = t.components().iter().find(|c| c.kind == ComponentKind::Switch).unwrap().id;
        let servers: Vec<u32> = t
            .graph()
            .neighbors(sw0)
            .iter()
            .filter(|e| t.kind_of(e.to) == ComponentKind::Host)
            .map(|e| e.to.0)
            .collect();
        assert_eq!(servers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn servers_of_a_level0_group_share_power() {
        let t = BCubeParams::new(4, 1).build();
        for group in 0..4usize {
            let base = t.hosts()[group * 4];
            let p = t.power_of(base).unwrap();
            for j in 0..4usize {
                assert_eq!(t.power_of(t.hosts()[group * 4 + j]), Some(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn tiny_n_rejected() {
        BCubeParams::new(1, 1).build();
    }
}
