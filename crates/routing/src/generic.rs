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
//! [`Router::external_reach_keyed`] floods 256 rounds at once instead: the
//! least fixpoint of `reach[v] = alive[v] ∧ ⋁ over v's half-edges
//! (reach[u] ∧ alive[link])`, `reach[ext] = alive[ext]`, swept from zero in
//! the order an all-alive world is reached until no word changes.
//!
//! All scratch (epoch-stamped visited arrays, queue, flood words) is kept
//! from construction or a round's first use — per-round work is
//! allocation-free once warm, which keeps the measured "context setup" honest.

use crate::{Router, TableKey};
use recloud_sampling::{BitMatrix, WideWord};
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
    /// Per-source visited sets for host-to-host queries: the first
    /// `floods` are this round's, the rest wait for a later round.
    flood_cache: Vec<(ComponentId, Vec<u32>)>,
    floods: usize,
    queue: Vec<u32>,
    /// The nodes an all-alive world reaches from the external node, in
    /// BFS order (the external node first).
    reachable: Vec<u32>,
    /// The wide flood, one word per component; only `reachable` entries
    /// are ever written, so every other node reads as never reached.
    wide_reach: Vec<WideWord>,
}

impl GenericRouter {
    /// Creates a router for a topology (keeps a reference to it; routers
    /// are long-lived and reused across all rounds and plans).
    pub fn new(topology: &Topology) -> Self {
        let n = topology.num_components();
        let (mut queue, ext) = (Vec::with_capacity(n), topology.external());
        Self::flood(topology, &BitMatrix::new(n, 1), 0, &mut queue, &mut vec![0; n], 1, ext, None);
        GenericRouter {
            topology: topology.clone(),
            round: 0,
            epoch: 0,
            ext_visited: vec![0; n],
            ext_done: false,
            ext_alive: false,
            flood_cache: Vec::new(),
            floods: 0,
            reachable: queue.clone(),
            queue,
            wide_reach: vec![WideWord::ZERO; n],
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
        self.floods = 0;
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
        let slot = match self.flood_cache[..self.floods].iter().position(|(s, _)| *s == a) {
            Some(i) => i,
            None => {
                if self.floods == self.flood_cache.len() {
                    self.flood_cache.push((a, vec![0; self.topology.num_components()]));
                }
                let i = self.floods;
                self.floods += 1;
                // A kept set holds only earlier rounds' stamps.
                self.flood_cache[i].0 = a;
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
        self.flood_cache[slot].1[b.index()] == self.epoch
    }

    fn name(&self) -> &'static str {
        "generic-bfs"
    }

    /// The 256-lane flood, wide word by wide word: lane for lane the set
    /// the scalar flood visits, as the graph is undirected (pulling over
    /// `neighbors(v)` sees what their push does), and no node outside
    /// `reachable` is ever reached. It keeps nothing, so `key` is unread.
    fn external_reach_keyed(
        &mut self,
        states: &BitMatrix,
        _key: TableKey,
        hosts: &[ComponentId],
        wides: usize,
        out: &mut [WideWord],
    ) {
        assert_eq!(out.len(), hosts.len() * wides, "one row of `wides` words per host");
        let GenericRouter { topology, reachable, wide_reach, .. } = self;
        let (&ext, rest) = reachable.split_first().expect("the external node reaches itself");
        for ww in 0..wides {
            let alive = |c: usize| !states.wide_word(c, ww);
            rest.iter().for_each(|&v| wide_reach[v as usize] = WideWord::ZERO);
            wide_reach[ext as usize] = alive(ext as usize);
            let mut changed = true;
            while changed {
                changed = false;
                for &v in rest {
                    let mut fed = WideWord::ZERO;
                    for e in topology.graph().neighbors(ComponentId(v)) {
                        let cable = e.link_id().map_or(WideWord::ONES, |l| alive(l.index()));
                        fed |= wide_reach[e.to.index()] & cable;
                    }
                    let reach = fed & alive(v as usize);
                    changed |= reach != wide_reach[v as usize];
                    wide_reach[v as usize] = reach;
                }
            }
            for (row, &h) in out.chunks_exact_mut(wides).zip(hosts) {
                row[ww] = wide_reach[h.index()];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::prop_assert_eq;
    use recloud_sampling::proptest::{forall, Gen};
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

    /// One cable, through a fallible link component or not.
    fn wire(b: &mut TopologyBuilder, g: &mut Gen, x: ComponentId, y: ComponentId) {
        if g.any_bool() {
            b.connect_via_link(x, y);
        } else {
            b.connect(x, y);
        }
    }

    /// The 256-lane flood equals the scalar flood lane for lane: random
    /// graphs with link components and cycles, an island the external
    /// node cannot reach, every component failing at random — the
    /// external node included — at every round count around the 64- and
    /// 256-lane boundaries.
    #[test]
    fn keyed_flood_equals_the_scalar_flood() {
        forall("keyed flood == scalar external_reaches", |g| {
            let mut b = TopologyBuilder::new();
            b.external();
            let mut nodes: Vec<_> =
                (0..g.usize_in(1..3)).map(|_| b.add(ComponentKind::BorderSwitch)).collect();
            nodes.iter().for_each(|&s| b.mark_border(s));
            nodes.extend((0..g.usize_in(0..8)).map(|_| b.add(ComponentKind::EdgeSwitch)));
            nodes.extend(b.add_hosts(g.usize_in(1..12)));
            // A random tree over the nodes, then extra cables: cycles.
            for i in 1..nodes.len() {
                let j = g.usize_in(0..i);
                wire(&mut b, g, nodes[i], nodes[j]);
            }
            for _ in 0..g.usize_in(0..nodes.len() + 1) {
                let (x, y) = (g.usize_in(0..nodes.len()), g.usize_in(0..nodes.len()));
                if x != y {
                    wire(&mut b, g, nodes[x], nodes[y]);
                }
            }
            let island = b.add(ComponentKind::EdgeSwitch);
            for h in b.add_hosts(g.usize_in(1..3)) {
                wire(&mut b, g, island, h);
            }
            let t = b.build();
            let rounds = [1, 63, 64, 65, 255, 256, 257, 300][g.usize_in(0..8)];
            let density = g.f64_in(0.0..0.4);
            let mut states = BitMatrix::new(t.num_components(), rounds);
            for c in 0..t.num_components() {
                (0..rounds).filter(|_| g.f64_in(0.0..1.0) < density).for_each(|r| states.set(c, r));
            }
            let (hosts, wides) = (t.hosts(), states.wide_words_per_row());
            let mut wide = vec![WideWord::ZERO; hosts.len() * wides];
            let key = TableKey { slot: 0, generation: std::num::NonZeroU64::MIN };
            let mut r = GenericRouter::new(&t);
            r.external_reach_keyed(&states, key, hosts, wides, &mut wide);
            for round in 0..rounds {
                r.begin_round(&states, round);
                for (i, &h) in hosts.iter().enumerate() {
                    let lane =
                        wide[i * wides + round / WideWord::LANES].bit(round % WideWord::LANES);
                    prop_assert_eq!(lane, r.external_reaches(&states, h), "round {round} host {h}");
                }
            }
            Ok(())
        });
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
