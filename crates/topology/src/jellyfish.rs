//! Jellyfish generator: switches wired as a random regular graph.
//!
//! Singla et al. (NSDI '12) showed that random regular switch graphs beat
//! structured topologies on bandwidth-per-dollar. The paper cites Jellyfish
//! among the architectures reCloud supports (§3.1 [70]); because Jellyfish
//! has no up/down structure, it exercises the *generic BFS* route-and-check
//! path rather than the analytic fat-tree router — exactly the "change this
//! step's routing protocol" swap §3.2.1 describes.
//!
//! The construction follows the original paper: repeatedly join random pairs
//! of switches with free ports; when stuck, perform edge swaps. We use a
//! deterministic seeded generator so topologies are reproducible. The small
//! SplitMix64 here is intentionally local — the full statistical RNG suite
//! lives in `recloud-sampling`, and this crate stays dependency-free.

use crate::component::{Component, ComponentKind};
use crate::graph::EdgeList;
use crate::id::ComponentId;
use crate::power::RoundRobinPower;
use crate::topology::{Topology, TopologyKind};

/// Parameters for a Jellyfish topology.
#[derive(Clone, Copy, Debug)]
pub struct JellyfishParams {
    /// Number of switches.
    pub switches: u32,
    /// Ports per switch dedicated to switch-to-switch wiring.
    pub network_ports: u32,
    /// Hosts attached to each switch.
    pub hosts_per_switch: u32,
    /// How many switches peer with the external world.
    pub border_switches: u32,
    /// Number of shared power supplies.
    pub power_supplies: u32,
    /// Seed for the random wiring.
    pub seed: u64,
}

impl JellyfishParams {
    /// A Jellyfish with the given dimensions, 2 border switches and 5 power
    /// supplies, seeded deterministically.
    pub fn new(switches: u32, network_ports: u32, hosts_per_switch: u32) -> Self {
        JellyfishParams {
            switches,
            network_ports,
            hosts_per_switch,
            border_switches: 2.min(switches),
            power_supplies: 5,
            seed: 0x7e11_f15f,
        }
    }

    /// Overrides the wiring seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of border switches.
    pub fn border_switches(mut self, n: u32) -> Self {
        self.border_switches = n;
        self
    }

    /// The generator's preconditions: at least 2 switches, at least one
    /// network port per switch, and `border_switches` in `1..=switches`.
    pub fn check(&self) -> Result<(), String> {
        if self.switches < 2 {
            return Err("Jellyfish needs at least 2 switches".into());
        }
        if self.network_ports == 0 {
            return Err("need at least 1 network port per switch".into());
        }
        if self.border_switches == 0 || self.border_switches > self.switches {
            return Err("border_switches must be in 1..=switches".into());
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics on degenerate dimensions (fewer than 2 switches, zero ports,
    /// or more border switches than switches; see
    /// [`JellyfishParams::check`]).
    pub fn build(self) -> Topology {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        let n_sw = self.switches as usize;
        let n_hosts = (self.switches * self.hosts_per_switch) as usize;
        let n_power = self.power_supplies as usize;

        let mut components = Vec::with_capacity(n_sw + n_hosts + 1 + n_power);
        let push = |components: &mut Vec<Component>, kind, ordinal| {
            let id = ComponentId::from_index(components.len());
            components.push(Component { id, kind, ordinal });
            id
        };
        let sw_base = 0u32;
        for i in 0..n_sw {
            push(&mut components, ComponentKind::Switch, i as u32);
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

        // Random regular wiring with retry + edge-swap completion.
        let mut rng = SplitMix64::new(self.seed);
        let mut free: Vec<u32> = Vec::new(); // switch indices, one entry per free port
        for s in 0..self.switches {
            for _ in 0..self.network_ports {
                free.push(s);
            }
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_sw];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut stuck = 0;
        while free.len() >= 2 {
            let i = (rng.next() as usize) % free.len();
            let mut j = (rng.next() as usize) % free.len();
            if i == j {
                j = (j + 1) % free.len();
            }
            let (a, b) = (free[i], free[j]);
            if a != b && !adj[a as usize].contains(&b) {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
                pairs.push((a, b));
                // Remove the two used ports (higher index first).
                let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                free.swap_remove(hi);
                free.swap_remove(lo);
                stuck = 0;
            } else {
                stuck += 1;
                if stuck > 50 {
                    // Edge swap: break a random existing edge (x, y) and form
                    // (a, x), (b', y) when legal; this unsticks the endgame.
                    if pairs.is_empty() {
                        break;
                    }
                    let e = (rng.next() as usize) % pairs.len();
                    let (x, y) = pairs.swap_remove(e);
                    adj[x as usize].retain(|&v| v != y);
                    adj[y as usize].retain(|&v| v != x);
                    free.push(x);
                    free.push(y);
                    stuck = 0;
                }
            }
        }

        let mut edges = EdgeList::new();
        for (a, b) in &pairs {
            edges.add(ComponentId(sw_base + a), ComponentId(sw_base + b));
        }
        for s in 0..self.switches {
            for h in 0..self.hosts_per_switch {
                edges.add(
                    ComponentId(host_base + s * self.hosts_per_switch + h),
                    ComponentId(sw_base + s),
                );
            }
        }
        let mut borders = Vec::new();
        for s in 0..self.border_switches {
            let b = ComponentId(sw_base + s);
            edges.add(b, external);
            borders.push(b);
        }
        let graph = edges.build(components.len());

        let mut power_of = vec![u32::MAX; components.len()];
        let mut rr = RoundRobinPower::new(&power_supplies);
        for c in &components {
            if c.kind.is_switch() {
                power_of[c.id.index()] = rr.next_supply().0;
            }
        }
        for s in 0..self.switches {
            let supply = rr.next_supply();
            for h in 0..self.hosts_per_switch {
                power_of[(host_base + s * self.hosts_per_switch + h) as usize] = supply.0;
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
            TopologyKind::Jellyfish {
                switches: self.switches,
                ports: self.network_ports,
                hosts_per_switch: self.hosts_per_switch,
            },
        )
    }
}

/// Minimal deterministic generator for wiring decisions only.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = JellyfishParams::new(20, 4, 2).seed(7).build();
        let b = JellyfishParams::new(20, 4, 2).seed(7).build();
        let ea: Vec<_> = a.graph().edges().map(|(x, e)| (x.0, e.to.0)).collect();
        let eb: Vec<_> = b.graph().edges().map(|(x, e)| (x.0, e.to.0)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seed_changes_wiring() {
        let a = JellyfishParams::new(20, 4, 2).seed(1).build();
        let b = JellyfishParams::new(20, 4, 2).seed(2).build();
        let ea: Vec<_> = a.graph().edges().map(|(x, e)| (x.0, e.to.0)).collect();
        let eb: Vec<_> = b.graph().edges().map(|(x, e)| (x.0, e.to.0)).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn respects_port_budget() {
        let t = JellyfishParams::new(30, 5, 3).build();
        for c in t.components() {
            if c.kind == ComponentKind::Switch {
                // network ports + hosts + maybe external
                let d = t.graph().degree(c.id);
                assert!(d <= 5 + 3 + 1, "switch degree {d} exceeds port budget");
            }
        }
        assert_eq!(t.num_hosts(), 90);
    }

    #[test]
    fn almost_regular_wiring() {
        let t = JellyfishParams::new(40, 4, 1).border_switches(1).build();
        // The random construction should use nearly all ports: allow a
        // couple of unmatched ports from the endgame.
        let total_sw_deg: usize = t
            .components()
            .iter()
            .filter(|c| c.kind == ComponentKind::Switch)
            .map(|c| {
                t.graph()
                    .neighbors(c.id)
                    .iter()
                    .filter(|e| t.kind_of(e.to) == ComponentKind::Switch)
                    .count()
            })
            .sum();
        assert!(total_sw_deg >= 40 * 4 - 4, "too many unused ports: {total_sw_deg}");
    }
}
