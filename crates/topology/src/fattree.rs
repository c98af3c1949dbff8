//! Fat-tree generator with a dedicated border pod (§3.1, Fig 1, Table 2).
//!
//! A classic k-ary fat-tree has k pods. Following the paper (which follows
//! Google's Jupiter practice for external connectivity), one pod is
//! *dedicated* to external peering: its k/2 switches are **border switches**
//! that connect the core layer to the external world, providing full
//! external bandwidth to all remaining k−1 *host pods*.
//!
//! Component counts therefore match Table 2 exactly:
//!
//! | k  | core (k/2)² | agg (k−1)·k/2 | edge (k−1)·k/2 | border k/2 | hosts (k−1)·(k/2)² |
//! |----|-------------|----------------|-----------------|------------|---------------------|
//! | 8  | 16          | 28             | 28              | 4          | 112                 |
//! | 16 | 64          | 120            | 120             | 8          | 960                 |
//! | 24 | 144         | 276            | 276             | 12         | 3,312               |
//! | 48 | 576         | 1,128          | 1,128           | 24         | 27,072              |
//!
//! Wiring: hosts attach to edge switches (k/2 per edge); each edge switch
//! connects to all k/2 agg switches of its pod; agg switch g of every pod
//! connects to all k/2 core switches of *core group* g; border switch g
//! connects to all of core group g and to the external node. Five power
//! supplies (configurable) are assigned round-robin to every switch and to
//! every edge-switch host group, maximizing power diversity as in §4.1.

use crate::component::{Component, ComponentKind};
use crate::graph::EdgeList;
use crate::id::ComponentId;
use crate::power::RoundRobinPower;
use crate::topology::{Topology, TopologyKind};

/// Parameters for building a fat-tree topology.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeParams {
    /// Switch port count `k` (must be even, ≥ 4). k pods total: k−1 host
    /// pods plus the dedicated border pod.
    pub k: u32,
    /// Number of shared power supplies (the paper's evaluation uses 5).
    pub power_supplies: u32,
    /// When true, every cable becomes a `Link` component that can fail
    /// independently. The paper's evaluation does not fail cables, so this
    /// defaults to `false`.
    pub with_links: bool,
}

impl FatTreeParams {
    /// Fat-tree of the given port count with the paper's defaults
    /// (5 power supplies, no link components).
    pub fn new(k: u32) -> Self {
        FatTreeParams { k, power_supplies: 5, with_links: false }
    }

    /// Sets the number of shared power supplies.
    pub fn power_supplies(mut self, n: u32) -> Self {
        self.power_supplies = n;
        self
    }

    /// Enables per-cable link components.
    pub fn with_links(mut self, yes: bool) -> Self {
        self.with_links = yes;
        self
    }

    /// The generator's preconditions: `k` even and at least 4.
    pub fn check(&self) -> Result<(), String> {
        let k = self.k;
        if k < 4 {
            return Err(format!("fat-tree needs k >= 4 (got {k})"));
        }
        if !k.is_multiple_of(2) {
            return Err(format!("fat-tree needs even k (got {k})"));
        }
        Ok(())
    }

    /// Builds the topology.
    ///
    /// # Panics
    /// Panics if `k` is odd or `< 4` (see [`FatTreeParams::check`]).
    pub fn build(self) -> Topology {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        build_fat_tree(self)
    }
}

/// Positional coordinates of a host inside a fat-tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostPosition {
    /// Host pod index in `0..k-1`.
    pub pod: u32,
    /// Edge switch index within the pod, `0..k/2`.
    pub edge: u32,
    /// Slot under the edge switch, `0..k/2`.
    pub slot: u32,
}

/// Arithmetic layout of a generated fat-tree: role-contiguous id ranges that
/// let routers and symmetry checks avoid hash lookups entirely.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeMeta {
    /// Port count.
    pub k: u32,
    /// k/2, cached.
    pub half: u32,
    /// Number of host pods (k − 1).
    pub host_pods: u32,
    /// First core switch id. Core (group g, member j) = `core_base + g*half + j`.
    pub core_base: u32,
    /// First agg switch id. Agg (pod p, group g) = `agg_base + p*half + g`.
    pub agg_base: u32,
    /// First edge switch id. Edge (pod p, index e) = `edge_base + p*half + e`.
    pub edge_base: u32,
    /// First host id. Host (p, e, s) = `host_base + (p*half + e)*half + s`.
    pub host_base: u32,
    /// First border switch id. Border g = `border_base + g`.
    pub border_base: u32,
    /// The external node id.
    pub external: u32,
}

impl FatTreeMeta {
    /// Core switch id for group `g`, member `j`.
    #[inline]
    pub fn core(&self, g: u32, j: u32) -> ComponentId {
        debug_assert!(g < self.half && j < self.half);
        ComponentId(self.core_base + g * self.half + j)
    }

    /// Agg switch id for host pod `p`, group `g`.
    #[inline]
    pub fn agg(&self, p: u32, g: u32) -> ComponentId {
        debug_assert!(p < self.host_pods && g < self.half);
        ComponentId(self.agg_base + p * self.half + g)
    }

    /// Edge switch id for host pod `p`, index `e`.
    #[inline]
    pub fn edge(&self, p: u32, e: u32) -> ComponentId {
        debug_assert!(p < self.host_pods && e < self.half);
        ComponentId(self.edge_base + p * self.half + e)
    }

    /// Host id for pod `p`, edge `e`, slot `s`.
    #[inline]
    pub fn host(&self, p: u32, e: u32, s: u32) -> ComponentId {
        debug_assert!(p < self.host_pods && e < self.half && s < self.half);
        ComponentId(self.host_base + (p * self.half + e) * self.half + s)
    }

    /// Border switch id for core group `g`.
    #[inline]
    pub fn border(&self, g: u32) -> ComponentId {
        debug_assert!(g < self.half);
        ComponentId(self.border_base + g)
    }

    /// Inverse of [`FatTreeMeta::host`].
    #[inline]
    pub fn host_position(&self, host: ComponentId) -> HostPosition {
        let rel = host.0 - self.host_base;
        let slot = rel % self.half;
        let rack = rel / self.half;
        HostPosition { pod: rack / self.half, edge: rack % self.half, slot }
    }

    /// True if `id` is a host of this fat-tree.
    #[inline]
    pub fn is_host(&self, id: ComponentId) -> bool {
        id.0 >= self.host_base && id.0 < self.host_base + self.num_hosts() as u32
    }

    /// Total host count.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        (self.host_pods * self.half * self.half) as usize
    }

    /// All hosts under edge `(p, e)`.
    pub fn hosts_under_edge(&self, p: u32, e: u32) -> impl Iterator<Item = ComponentId> + '_ {
        let half = self.half;
        (0..half).map(move |s| self.host(p, e, s))
    }
}

fn build_fat_tree(params: FatTreeParams) -> Topology {
    let k = params.k;
    let half = k / 2;
    let host_pods = k - 1;

    let n_core = (half * half) as usize;
    let n_agg = (host_pods * half) as usize;
    let n_edge = n_agg;
    let n_hosts = (host_pods * half * half) as usize;
    let n_border = half as usize;
    let n_power = params.power_supplies as usize;

    let mut components: Vec<Component> =
        Vec::with_capacity(n_core + n_agg + n_edge + n_hosts + n_border + 1 + n_power);
    let push = |components: &mut Vec<Component>, kind: ComponentKind, ordinal: u32| {
        let id = ComponentId::from_index(components.len());
        components.push(Component { id, kind, ordinal });
        id
    };

    // Role-contiguous layout: core, agg, edge, hosts, border, external, power.
    let core_base = components.len() as u32;
    for i in 0..n_core {
        push(&mut components, ComponentKind::CoreSwitch, i as u32);
    }
    let agg_base = components.len() as u32;
    for i in 0..n_agg {
        push(&mut components, ComponentKind::AggSwitch, i as u32);
    }
    let edge_base = components.len() as u32;
    for i in 0..n_edge {
        push(&mut components, ComponentKind::EdgeSwitch, i as u32);
    }
    let host_base = components.len() as u32;
    for i in 0..n_hosts {
        push(&mut components, ComponentKind::Host, i as u32);
    }
    let border_base = components.len() as u32;
    for i in 0..n_border {
        push(&mut components, ComponentKind::BorderSwitch, i as u32);
    }
    let external = push(&mut components, ComponentKind::External, 0);
    let mut power_supplies = Vec::with_capacity(n_power);
    for i in 0..n_power {
        power_supplies.push(push(&mut components, ComponentKind::PowerSupply, i as u32));
    }

    let meta = FatTreeMeta {
        k,
        half,
        host_pods,
        core_base,
        agg_base,
        edge_base,
        host_base,
        border_base,
        external: external.0,
    };

    // Wiring.
    let mut edges = EdgeList::new();
    let link_for = |components: &mut Vec<Component>| -> Option<ComponentId> {
        if params.with_links {
            let ordinal = components.iter().filter(|c| c.kind == ComponentKind::Link).count();
            let id = ComponentId::from_index(components.len());
            components.push(Component { id, kind: ComponentKind::Link, ordinal: ordinal as u32 });
            Some(id)
        } else {
            None
        }
    };
    for p in 0..host_pods {
        for e in 0..half {
            for s in 0..half {
                let l = link_for(&mut components);
                edges.add_with_link(meta.host(p, e, s), meta.edge(p, e), l);
            }
            for g in 0..half {
                let l = link_for(&mut components);
                edges.add_with_link(meta.edge(p, e), meta.agg(p, g), l);
            }
        }
        for g in 0..half {
            for j in 0..half {
                let l = link_for(&mut components);
                edges.add_with_link(meta.agg(p, g), meta.core(g, j), l);
            }
        }
    }
    for g in 0..half {
        for j in 0..half {
            let l = link_for(&mut components);
            edges.add_with_link(meta.border(g), meta.core(g, j), l);
        }
        let l = link_for(&mut components);
        edges.add_with_link(meta.border(g), external, l);
    }
    let graph = edges.build(components.len());

    // Round-robin power assignment, §4.1: each switch, then each group of
    // hosts under an edge switch, in deterministic id order.
    let mut power_of = vec![u32::MAX; components.len()];
    let mut rr = RoundRobinPower::new(&power_supplies);
    for c in &components {
        if c.kind.is_switch() {
            power_of[c.id.index()] = rr.next_supply().0;
        }
    }
    for p in 0..host_pods {
        for e in 0..half {
            let supply = rr.next_supply();
            for h in meta.hosts_under_edge(p, e) {
                power_of[h.index()] = supply.0;
            }
        }
    }

    let hosts: Vec<ComponentId> = (0..n_hosts).map(|i| ComponentId(host_base + i as u32)).collect();
    let borders: Vec<ComponentId> =
        (0..n_border).map(|i| ComponentId(border_base + i as u32)).collect();

    Topology::assemble(
        components,
        graph,
        external,
        hosts,
        borders,
        power_supplies,
        power_of,
        TopologyKind::FatTree(meta),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts_hold_for_all_scales() {
        for (k, core, agg, edge, border, hosts) in [
            (8u32, 16usize, 28usize, 28usize, 4usize, 112usize),
            (16, 64, 120, 120, 8, 960),
            (24, 144, 276, 276, 12, 3_312),
            (48, 576, 1_128, 1_128, 24, 27_072),
        ] {
            let t = FatTreeParams::new(k).build();
            assert_eq!(t.count_kind(ComponentKind::CoreSwitch), core, "k={k} core");
            assert_eq!(t.count_kind(ComponentKind::AggSwitch), agg, "k={k} agg");
            assert_eq!(t.count_kind(ComponentKind::EdgeSwitch), edge, "k={k} edge");
            assert_eq!(t.count_kind(ComponentKind::BorderSwitch), border, "k={k} border");
            assert_eq!(t.count_kind(ComponentKind::Host), hosts, "k={k} hosts");
            assert_eq!(t.count_kind(ComponentKind::PowerSupply), 5, "k={k} power");
            assert_eq!(t.count_kind(ComponentKind::External), 1, "k={k} external");
        }
    }

    #[test]
    fn degrees_match_fat_tree_structure() {
        let t = FatTreeParams::new(8).build();
        let m = t.fat_tree().unwrap();
        let g = t.graph();
        // Every host has exactly one uplink.
        for &h in t.hosts() {
            assert_eq!(g.degree(h), 1);
        }
        // Edge switch: k/2 hosts + k/2 aggs = k ports.
        assert_eq!(g.degree(m.edge(0, 0)), 8);
        // Agg switch: k/2 edges + k/2 cores = k ports.
        assert_eq!(g.degree(m.agg(0, 0)), 8);
        // Core switch: one agg per host pod + one border = k - 1 + 1 = k... no:
        // core (g, j) connects to agg(p, g) for each of the k-1 host pods and
        // to border(g): degree k.
        assert_eq!(g.degree(m.core(0, 0)), 8);
        // Border switch: k/2 cores + external.
        assert_eq!(g.degree(m.border(0)), 5);
        // External: one edge per border switch.
        assert_eq!(g.degree(t.external()), 4);
    }

    #[test]
    fn host_position_roundtrip() {
        let t = FatTreeParams::new(8).build();
        let m = t.fat_tree().unwrap();
        for p in 0..m.host_pods {
            for e in 0..m.half {
                for s in 0..m.half {
                    let h = m.host(p, e, s);
                    assert_eq!(m.host_position(h), HostPosition { pod: p, edge: e, slot: s });
                    assert!(m.is_host(h));
                }
            }
        }
        assert!(!m.is_host(m.edge(0, 0)));
        assert!(!m.is_host(t.external()));
    }

    #[test]
    fn every_host_connects_to_its_edge_switch() {
        let t = FatTreeParams::new(4).build();
        let m = t.fat_tree().unwrap();
        for &h in t.hosts() {
            let pos = m.host_position(h);
            assert!(t.graph().has_edge(h, m.edge(pos.pod, pos.edge)));
        }
    }

    #[test]
    fn border_switches_cover_all_core_groups_and_external() {
        let t = FatTreeParams::new(8).build();
        let m = t.fat_tree().unwrap();
        for gidx in 0..m.half {
            let b = m.border(gidx);
            for j in 0..m.half {
                assert!(t.graph().has_edge(b, m.core(gidx, j)));
            }
            assert!(t.graph().has_edge(b, t.external()));
        }
    }

    #[test]
    fn with_links_creates_link_components() {
        let t = FatTreeParams::new(4).with_links(true).build();
        let n_links = t.count_kind(ComponentKind::Link);
        assert_eq!(n_links, t.graph().num_edges());
        // Every graph edge must carry a link id now.
        for (a, e) in t.graph().edges() {
            assert!(e.link_id().is_some(), "edge from {a} missing link");
        }
    }

    #[test]
    fn power_round_robin_is_balanced_over_switches() {
        let t = FatTreeParams::new(8).build();
        let mut counts = vec![0usize; t.power_supplies().len()];
        for c in t.components() {
            if c.kind.is_switch() {
                let p = t.power_of(c.id).unwrap();
                let slot = t.power_supplies().iter().position(|&x| x == p).unwrap();
                counts[slot] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, t.num_switches());
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "round-robin must balance within 1: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        FatTreeParams::new(5).build();
    }

    #[test]
    #[should_panic(expected = "k >= 4")]
    fn tiny_k_rejected() {
        FatTreeParams::new(2).build();
    }
}
