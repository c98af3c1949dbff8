//! Generic BFS route-and-check over the alive subgraph.
//!
//! Computes *physical* reachability: a path exists through alive nodes and
//! alive links, with no routing-protocol restrictions. This is the right
//! model for fabrics routed over arbitrary graphs (Jellyfish et al.) and
//! an upper bound for hierarchical protocols (see
//! [`crate::updown::UpDownRouter`] for the valley-free variant).
//!
//! Reachability from the external node is flood-filled lazily once per
//! round; host-to-host queries flood from the source host on demand and
//! memoize the visited set for the rest of the round, so assessing a
//! K-instance component costs at most K floods per round.
//!
//! All scratch (epoch-stamped visited arrays, queue) is allocated once at
//! router construction — per-round work is allocation-free, which keeps
//! the measured "context setup" honest.

use crate::Router;
use recloud_sampling::BitMatrix;
use recloud_topology::{ComponentId, Topology};

/// BFS-based router for arbitrary topologies.
pub struct GenericRouter {
    topology: Topology,
    round: usize,
    epoch: u32,
    /// Epoch-stamped visited array for "reachable from external".
    ext_visited: Vec<u32>,
    ext_done: bool,
    ext_alive: bool,
    /// Memoized per-source visited sets for host-to-host queries.
    flood_cache: Vec<(ComponentId, Vec<u32>)>,
    queue: Vec<u32>,
}

impl GenericRouter {
    /// Creates a router for a topology (keeps a reference to it; routers
    /// are long-lived and reused across all rounds and plans).
    pub fn new(topology: &Topology) -> Self {
        let n = topology.num_components();
        GenericRouter {
            topology: topology.clone(),
            round: 0,
            epoch: 0,
            ext_visited: vec![0; n],
            ext_done: false,
            ext_alive: false,
            flood_cache: Vec::new(),
            queue: Vec::with_capacity(n),
        }
    }

    /// Flood-fills the alive subgraph from `start` into `visited`,
    /// stamping with the current epoch. `start` must be alive.
    #[allow(clippy::too_many_arguments)] // split borrows of self; grouping would force extra indirection
    fn flood(
        topology: &Topology,
        states: &BitMatrix,
        round: usize,
        queue: &mut Vec<u32>,
        visited: &mut [u32],
        epoch: u32,
        start: ComponentId,
        skip: Option<ComponentId>,
    ) {
        queue.clear();
        queue.push(start.0);
        visited[start.index()] = epoch;
        let mut head = 0;
        while head < queue.len() {
            let v = ComponentId(queue[head]);
            head += 1;
            for e in topology.graph().neighbors(v) {
                if let Some(link) = e.link_id() {
                    if states.get(link.index(), round) {
                        continue;
                    }
                }
                let to = e.to;
                if Some(to) == skip {
                    continue;
                }
                if visited[to.index()] == epoch || states.get(to.index(), round) {
                    continue;
                }
                visited[to.index()] = epoch;
                queue.push(to.0);
            }
        }
    }
}

impl Router for GenericRouter {
    fn begin_round(&mut self, states: &BitMatrix, round: usize) {
        assert_eq!(
            states.components(),
            self.topology.num_components(),
            "router expects the collapsed matrix (one row per topology component)"
        );
        self.round = round;
        self.epoch = self.epoch.wrapping_add(1).max(1);
        self.ext_done = false;
        self.flood_cache.clear();
    }

    fn external_reaches(&mut self, states: &BitMatrix, host: ComponentId) -> bool {
        if states.get(host.index(), self.round) {
            return false;
        }
        if !self.ext_done {
            let ext = self.topology.external();
            self.ext_alive = !states.get(ext.index(), self.round);
            if self.ext_alive {
                Self::flood(
                    &self.topology,
                    states,
                    self.round,
                    &mut self.queue,
                    &mut self.ext_visited,
                    self.epoch,
                    ext,
                    None,
                );
            }
            self.ext_done = true;
        }
        self.ext_alive && self.ext_visited[host.index()] == self.epoch
    }

    fn connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool {
        if states.get(a.index(), self.round) || states.get(b.index(), self.round) {
            return false;
        }
        if a == b {
            return true;
        }
        let slot = match self.flood_cache.iter().position(|(s, _)| *s == a) {
            Some(i) => i,
            None => {
                let n = self.topology.num_components();
                self.flood_cache.push((a, vec![0; n]));
                let i = self.flood_cache.len() - 1;
                // East-west floods never hairpin through the external peer.
                let skip = Some(self.topology.external());
                Self::flood(
                    &self.topology,
                    states,
                    self.round,
                    &mut self.queue,
                    &mut self.flood_cache[i].1,
                    self.epoch,
                    a,
                    skip,
                );
                i
            }
        };
        // A cache slot found by position() is always from this round,
        // because begin_round clears the cache.
        self.flood_cache[slot].1[b.index()] == self.epoch
    }

    fn name(&self) -> &'static str {
        "generic-bfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::{ComponentKind, LeafSpineParams, TopologyBuilder};

    /// ext -- sw1 -- h1 ; sw1 -- sw2 -- h2 (sw2 not border).
    fn chain() -> (Topology, ComponentId, ComponentId, ComponentId, ComponentId) {
        let mut b = TopologyBuilder::new();
        b.external();
        let sw1 = b.add(ComponentKind::BorderSwitch);
        let sw2 = b.add(ComponentKind::EdgeSwitch);
        let h1 = b.add(ComponentKind::Host);
        let h2 = b.add(ComponentKind::Host);
        b.connect(sw1, h1);
        b.connect(sw1, sw2);
        b.connect(sw2, h2);
        b.mark_border(sw1);
        let t = b.build();
        (t, sw1, sw2, h1, h2)
    }

    #[test]
    fn all_alive_reaches_everything() {
        let (t, _, _, h1, h2) = chain();
        let states = BitMatrix::new(t.num_components(), 1);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(r.external_reaches(&states, h1));
        assert!(r.external_reaches(&states, h2));
        assert!(r.connects(&states, h1, h2));
        assert!(r.connects(&states, h1, h1));
    }

    #[test]
    fn failed_host_is_unreachable_and_disconnected() {
        let (t, _, _, h1, h2) = chain();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(h1.index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(!r.external_reaches(&states, h1));
        assert!(r.external_reaches(&states, h2));
        assert!(!r.connects(&states, h1, h2));
        assert!(!r.connects(&states, h1, h1));
    }

    #[test]
    fn failed_intermediate_switch_cuts_downstream() {
        let (t, _, sw2, h1, h2) = chain();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(sw2.index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(r.external_reaches(&states, h1));
        assert!(!r.external_reaches(&states, h2));
        assert!(!r.connects(&states, h1, h2));
        assert!(r.connects(&states, h1, h1));
    }

    #[test]
    fn failed_border_switch_cuts_everything() {
        let (t, sw1, _, h1, h2) = chain();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(sw1.index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(!r.external_reaches(&states, h1));
        assert!(!r.external_reaches(&states, h2));
        assert!(!r.connects(&states, h1, h2));
    }

    #[test]
    fn rounds_are_independent() {
        let (t, sw1, _, h1, _) = chain();
        let mut states = BitMatrix::new(t.num_components(), 2);
        states.set(sw1.index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(!r.external_reaches(&states, h1));
        r.begin_round(&states, 1);
        assert!(r.external_reaches(&states, h1));
    }

    #[test]
    fn link_failures_cut_edges() {
        let mut b = TopologyBuilder::new();
        b.external();
        let sw = b.add(ComponentKind::BorderSwitch);
        b.mark_border(sw);
        let h = b.add(ComponentKind::Host);
        let link = b.connect_via_link(sw, h);
        let t = b.build();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(link.index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(!r.external_reaches(&states, h));
    }

    #[test]
    fn symmetric_connects() {
        let t = LeafSpineParams::new(2, 3, 2).build();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(t.border_switches()[0].index(), 0);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        let h = t.hosts();
        assert_eq!(r.connects(&states, h[0], h[5]), r.connects(&states, h[5], h[0]));
        assert!(r.connects(&states, h[0], h[5]));
    }

    #[test]
    fn leafspine_loses_external_only_when_all_border_spines_fail() {
        let t = LeafSpineParams::new(3, 2, 2).border_spines(2).build();
        let h = t.hosts()[0];
        let mut states = BitMatrix::new(t.num_components(), 3);
        states.set(t.border_switches()[0].index(), 0);
        states.set(t.border_switches()[0].index(), 1);
        states.set(t.border_switches()[1].index(), 1);
        let mut r = GenericRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(r.external_reaches(&states, h));
        r.begin_round(&states, 1);
        assert!(!r.external_reaches(&states, h));
        r.begin_round(&states, 2);
        assert!(r.external_reaches(&states, h));
    }
}
