//! VL2 generator: the Clos network of Greenberg et al. (SIGCOMM '09),
//! the paper's citation [31].
//!
//! VL2 is a three-tier Clos built from two switch port counts:
//!
//! * `d_i`-port **intermediate** switches (the top tier);
//! * `d_a`-port **aggregation** switches — `d_a/2` uplinks (one to each
//!   of the `d_a/2` intermediate switches, a full bipartite mesh) and
//!   `d_a/2` downlinks to ToRs;
//! * **ToR** switches with 2 uplinks to two distinct aggregation switches
//!   and `servers_per_tor` (canonically 20) server ports.
//!
//! We follow the canonical sizing: `d_a/2` intermediate switches, `d_i`
//! aggregation switches, `d_i · d_a/4` ToRs, `20 · d_i · d_a/4` servers.
//! External connectivity peers a configurable number of intermediate
//! switches with the external node.

use crate::component::{Component, ComponentKind};
use crate::graph::EdgeList;
use crate::id::ComponentId;
use crate::power::RoundRobinPower;
use crate::topology::{Topology, TopologyKind};

/// Parameters for a VL2 topology.
#[derive(Clone, Copy, Debug)]
pub struct Vl2Params {
    /// Aggregation switch port count `d_a` (even, ≥ 4). There are
    /// `d_a/2` intermediate switches.
    pub d_a: u32,
    /// Intermediate switch port count `d_i` (≥ 2). There are `d_i`
    /// aggregation switches.
    pub d_i: u32,
    /// Servers per ToR (canonical VL2: 20).
    pub servers_per_tor: u32,
    /// How many intermediate switches peer with the external world.
    pub border_switches: u32,
    /// Number of shared power supplies.
    pub power_supplies: u32,
}

impl Vl2Params {
    /// Canonical VL2 with 20 servers per ToR, 2 border intermediates and
    /// 5 power supplies.
    pub fn new(d_a: u32, d_i: u32) -> Self {
        Vl2Params { d_a, d_i, servers_per_tor: 20, border_switches: 2, power_supplies: 5 }
    }

    /// Overrides the servers-per-ToR count.
    pub fn servers_per_tor(mut self, n: u32) -> Self {
        self.servers_per_tor = n;
        self
    }

    /// Number of ToR switches: `d_i · d_a / 4`.
    pub fn num_tors(&self) -> usize {
        (self.d_i * self.d_a / 4) as usize
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.num_tors() * self.servers_per_tor as usize
    }

    /// The generator's preconditions: `d_a` even and at least 4,
    /// `d_i >= 2`, at least one server per ToR, and `border_switches` in
    /// `1..=d_a/2`.
    pub fn check(&self) -> Result<(), String> {
        if self.d_a < 4 || !self.d_a.is_multiple_of(2) {
            return Err("d_a must be even and >= 4".into());
        }
        if self.d_i < 2 {
            return Err("d_i must be >= 2".into());
        }
        if self.servers_per_tor == 0 {
            return Err("need at least one server per ToR".into());
        }
        if self.border_switches == 0 || self.border_switches > self.d_a / 2 {
            return Err("border_switches must be in 1..=d_a/2".into());
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics on odd/small `d_a`, `d_i < 2`, zero servers per ToR, or an
    /// invalid border count (see [`Vl2Params::check`]).
    pub fn build(self) -> Topology {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let n_int = (self.d_a / 2) as usize;
        let n_agg = self.d_i as usize;
        let n_tor = self.num_tors();
        let n_servers = self.num_servers();
        let n_power = self.power_supplies as usize;

        let mut components = Vec::with_capacity(n_int + n_agg + n_tor + n_servers + 1 + n_power);
        let push = |components: &mut Vec<Component>, kind, ordinal| {
            let id = ComponentId::from_index(components.len());
            components.push(Component { id, kind, ordinal });
            id
        };
        let int_base = 0u32;
        for i in 0..n_int {
            push(&mut components, ComponentKind::CoreSwitch, i as u32);
        }
        let agg_base = components.len() as u32;
        for i in 0..n_agg {
            push(&mut components, ComponentKind::AggSwitch, i as u32);
        }
        let tor_base = components.len() as u32;
        for i in 0..n_tor {
            push(&mut components, ComponentKind::EdgeSwitch, i as u32);
        }
        let host_base = components.len() as u32;
        for i in 0..n_servers {
            push(&mut components, ComponentKind::Host, i as u32);
        }
        let external = push(&mut components, ComponentKind::External, 0);
        let mut power_supplies = Vec::with_capacity(n_power);
        for i in 0..n_power {
            power_supplies.push(push(&mut components, ComponentKind::PowerSupply, i as u32));
        }

        let mut edges = EdgeList::new();
        // Full bipartite agg <-> intermediate.
        for a in 0..n_agg {
            for i in 0..n_int {
                edges.add(ComponentId(agg_base + a as u32), ComponentId(int_base + i as u32));
            }
        }
        // Each ToR connects to two distinct aggregation switches. VL2
        // pairs them deterministically: ToR t -> agg (2t) and (2t+1)
        // modulo the agg count, which spreads ToRs evenly.
        for t in 0..n_tor {
            let a1 = (2 * t) % n_agg;
            let mut a2 = (2 * t + 1) % n_agg;
            if a2 == a1 {
                a2 = (a1 + 1) % n_agg;
            }
            let tor = ComponentId(tor_base + t as u32);
            edges.add(tor, ComponentId(agg_base + a1 as u32));
            edges.add(tor, ComponentId(agg_base + a2 as u32));
            for s in 0..self.servers_per_tor as usize {
                edges.add(
                    ComponentId(host_base + (t * self.servers_per_tor as usize + s) as u32),
                    tor,
                );
            }
        }
        let mut borders = Vec::new();
        for b in 0..self.border_switches {
            let sw = ComponentId(int_base + b);
            edges.add(sw, external);
            borders.push(sw);
        }
        let graph = edges.build(components.len());

        let mut power_of = vec![u32::MAX; components.len()];
        let mut rr = RoundRobinPower::new(&power_supplies);
        for c in &components {
            if c.kind.is_switch() {
                power_of[c.id.index()] = rr.next_supply().0;
            }
        }
        for t in 0..n_tor {
            let supply = rr.next_supply();
            for s in 0..self.servers_per_tor as usize {
                power_of[host_base as usize + t * self.servers_per_tor as usize + s] = supply.0;
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
    fn canonical_sizing() {
        // d_a = 8, d_i = 4: 4 intermediates, 4 aggs, 8 ToRs, 160 servers.
        let p = Vl2Params::new(8, 4);
        assert_eq!(p.num_tors(), 8);
        assert_eq!(p.num_servers(), 160);
        let t = p.build();
        assert_eq!(t.count_kind(ComponentKind::CoreSwitch), 4);
        assert_eq!(t.count_kind(ComponentKind::AggSwitch), 4);
        assert_eq!(t.count_kind(ComponentKind::EdgeSwitch), 8);
        assert_eq!(t.num_hosts(), 160);
    }

    #[test]
    fn tors_have_two_distinct_uplinks() {
        let t = Vl2Params::new(8, 4).servers_per_tor(2).build();
        for c in t.components() {
            if c.kind == ComponentKind::EdgeSwitch {
                let aggs: Vec<_> = t
                    .graph()
                    .neighbors(c.id)
                    .iter()
                    .filter(|e| t.kind_of(e.to) == ComponentKind::AggSwitch)
                    .map(|e| e.to)
                    .collect();
                assert_eq!(aggs.len(), 2, "{c}");
                assert_ne!(aggs[0], aggs[1], "{c}");
            }
        }
    }

    #[test]
    fn agg_layer_is_fully_meshed_to_intermediates() {
        let t = Vl2Params::new(6, 3).servers_per_tor(1).build();
        for c in t.components() {
            if c.kind == ComponentKind::AggSwitch {
                let ints = t
                    .graph()
                    .neighbors(c.id)
                    .iter()
                    .filter(|e| t.kind_of(e.to) == ComponentKind::CoreSwitch)
                    .count();
                assert_eq!(ints, 3, "every agg reaches every intermediate");
            }
        }
    }

    #[test]
    fn servers_share_tor_power_group() {
        let t = Vl2Params::new(8, 4).servers_per_tor(5).build();
        for tor in 0..8usize {
            let base = t.hosts()[tor * 5];
            let p = t.power_of(base).unwrap();
            for s in 0..5usize {
                assert_eq!(t.power_of(t.hosts()[tor * 5 + s]), Some(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_a must be even")]
    fn odd_da_rejected() {
        Vl2Params::new(7, 4).build();
    }
}
