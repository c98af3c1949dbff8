//! The [`Topology`] arena: components + network graph + role metadata.

use crate::component::{Component, ComponentKind};
use crate::fattree::FatTreeMeta;
use crate::graph::Csr;
use crate::id::ComponentId;
use std::sync::Arc;

/// Which generator produced the topology. Routers use this to pick a fast
/// analytic path (fat-tree) or fall back to generic BFS.
#[derive(Clone, Debug)]
pub enum TopologyKind {
    /// A fat-tree with a dedicated border pod (§3.1, Fig 1).
    FatTree(FatTreeMeta),
    /// Two-tier leaf-spine with border leaves.
    LeafSpine {
        /// Number of spine switches.
        spines: u32,
        /// Number of leaf switches.
        leaves: u32,
        /// Hosts attached to each leaf.
        hosts_per_leaf: u32,
    },
    /// Random regular graph of switches (Jellyfish).
    Jellyfish {
        /// Number of switches.
        switches: u32,
        /// Switch-to-switch ports per switch.
        ports: u32,
        /// Hosts attached to each switch.
        hosts_per_switch: u32,
    },
    /// Hand-built via [`crate::TopologyBuilder`].
    Custom,
}

/// A complete infrastructure description: the component arena, the network
/// graph, per-role indices and the shared power-supply assignment that §4.1
/// adds as the representative correlated-failure dependency.
///
/// Immutable once assembled, and held behind one `Arc`: every engine,
/// router and simulator that keeps "its" topology keeps a reference to
/// the same one, so `clone()` is a reference-count bump.
#[derive(Clone, Debug)]
pub struct Topology(Arc<Parts>);

#[derive(Debug)]
struct Parts {
    components: Vec<Component>,
    graph: Csr,
    external: ComponentId,
    hosts: Vec<ComponentId>,
    borders: Vec<ComponentId>,
    power_supplies: Vec<ComponentId>,
    /// For every component: raw id of the power supply it draws from, or
    /// `u32::MAX` if it has none (hosts inherit the supply of their edge
    /// group; power supplies themselves have none).
    power_of: Vec<u32>,
    kind: TopologyKind,
}

impl Topology {
    /// Total number of components (all classes).
    #[inline]
    pub fn num_components(&self) -> usize {
        self.0.components.len()
    }

    /// All components in id order.
    #[inline]
    pub fn components(&self) -> &[Component] {
        &self.0.components
    }

    /// Looks up one component.
    #[inline]
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.0.components[id.index()]
    }

    /// Kind of one component.
    #[inline]
    pub fn kind_of(&self, id: ComponentId) -> ComponentKind {
        self.0.components[id.index()].kind
    }

    /// The network adjacency graph.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.0.graph
    }

    /// The single external-world node.
    #[inline]
    pub fn external(&self) -> ComponentId {
        self.0.external
    }

    /// All hosts, in id order.
    #[inline]
    pub fn hosts(&self) -> &[ComponentId] {
        &self.0.hosts
    }

    /// Number of hosts.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.0.hosts.len()
    }

    /// Border switches (the ones peering with the external world).
    #[inline]
    pub fn border_switches(&self) -> &[ComponentId] {
        &self.0.borders
    }

    /// Power supplies, in id order.
    #[inline]
    pub fn power_supplies(&self) -> &[ComponentId] {
        &self.0.power_supplies
    }

    /// The power supply feeding `id`, if any.
    #[inline]
    pub fn power_of(&self, id: ComponentId) -> Option<ComponentId> {
        let p = self.0.power_of[id.index()];
        (p != u32::MAX).then_some(ComponentId(p))
    }

    /// Which generator made this topology.
    #[inline]
    pub fn topology_kind(&self) -> &TopologyKind {
        &self.0.kind
    }

    /// Fat-tree metadata if this is a fat-tree.
    #[inline]
    pub fn fat_tree(&self) -> Option<&FatTreeMeta> {
        match &self.0.kind {
            TopologyKind::FatTree(m) => Some(m),
            _ => None,
        }
    }

    /// Counts components of a given kind.
    pub fn count_kind(&self, kind: ComponentKind) -> usize {
        self.0.components.iter().filter(|c| c.kind == kind).count()
    }

    /// Counts all switches (any tier).
    pub fn num_switches(&self) -> usize {
        self.0.components.iter().filter(|c| c.kind.is_switch()).count()
    }

    /// The rack a host belongs to, defined as its edge switch. Used by the
    /// "no two instances in the same rack" placement heuristic and by the
    /// common-practice baseline (§4.2.2).
    ///
    /// Works for any topology: the rack is the unique switch adjacent to the
    /// host (hosts are single-homed in all our generators).
    pub fn rack_of(&self, host: ComponentId) -> ComponentId {
        debug_assert_eq!(self.kind_of(host), ComponentKind::Host);
        self.0
            .graph
            .neighbors(host)
            .iter()
            .map(|e| e.to)
            .find(|&n| self.kind_of(n).is_switch())
            .expect("host has no adjacent switch")
    }

    /// The pod a host belongs to, when the topology has pods (fat-tree);
    /// otherwise falls back to the rack id, which gives heuristics something
    /// sensible to diversify on.
    pub fn pod_of(&self, host: ComponentId) -> u32 {
        match &self.0.kind {
            TopologyKind::FatTree(m) => m.host_position(host).pod,
            _ => self.rack_of(host).0,
        }
    }

    /// Internal: assembles a topology. Generators and the builder use this;
    /// it validates role metadata so every constructed topology is coherent.
    #[allow(clippy::too_many_arguments)] // one call site per generator; a params struct would just rename the fields
    pub(crate) fn assemble(
        components: Vec<Component>,
        graph: Csr,
        external: ComponentId,
        hosts: Vec<ComponentId>,
        borders: Vec<ComponentId>,
        power_supplies: Vec<ComponentId>,
        power_of: Vec<u32>,
        kind: TopologyKind,
    ) -> Self {
        assert_eq!(graph.num_nodes(), components.len(), "graph/arena size mismatch");
        assert_eq!(power_of.len(), components.len(), "power map size mismatch");
        assert_eq!(
            components[external.index()].kind,
            ComponentKind::External,
            "external id must point at the External component"
        );
        for &h in &hosts {
            assert_eq!(components[h.index()].kind, ComponentKind::Host);
        }
        for &b in &borders {
            assert!(components[b.index()].kind.is_switch(), "border must be a switch");
        }
        Topology(Arc::new(Parts {
            components,
            graph,
            external,
            hosts,
            borders,
            power_supplies,
            power_of,
            kind,
        }))
    }
}

#[cfg(test)]
mod tests {
    use crate::fattree::FatTreeParams;

    #[test]
    fn rack_and_pod_queries_on_fat_tree() {
        let t = FatTreeParams::new(4).build();
        let h = t.hosts()[0];
        let rack = t.rack_of(h);
        assert!(t.kind_of(rack).is_switch());
        // first host of pod 0.
        assert_eq!(t.pod_of(h), 0);
        // last host belongs to the last host pod (k-1 pods => pod index k-2).
        let last = *t.hosts().last().unwrap();
        assert_eq!(t.pod_of(last), 2);
    }

    #[test]
    fn clones_share_one_topology() {
        let t = FatTreeParams::new(4).build();
        let u = t.clone();
        assert!(std::ptr::eq(t.components(), u.components()), "a clone copies nothing");
        assert!(std::ptr::eq(t.graph(), u.graph()));
    }

    #[test]
    fn power_assignment_covers_switches_and_hosts() {
        let t = FatTreeParams::new(4).build();
        for c in t.components() {
            if c.kind.is_switch() || c.kind == crate::ComponentKind::Host {
                assert!(t.power_of(c.id).is_some(), "{} must draw power", c);
            }
        }
        // Power supplies and the external node draw no modeled power.
        assert!(t.power_of(t.external()).is_none());
        for &p in t.power_supplies() {
            assert!(t.power_of(p).is_none());
        }
    }

    #[test]
    fn hosts_under_same_edge_share_power_group() {
        let t = FatTreeParams::new(4).build();
        let m = t.fat_tree().unwrap();
        // All hosts under edge (0,0) share one supply (the paper powers the
        // *group* of hosts under each edge switch from one supply).
        let hosts: Vec<_> = m.hosts_under_edge(0, 0).collect();
        let p0 = t.power_of(hosts[0]).unwrap();
        for h in hosts {
            assert_eq!(t.power_of(h), Some(p0));
        }
    }
}
