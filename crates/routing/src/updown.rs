//! Valley-free (up/down) BFS — the protocol-faithful reference router.
//!
//! Hierarchical data-center routing never lets a packet descend and then
//! climb again ("no valleys"): it climbs monotonically to some level, turns
//! around once, and descends monotonically. This router performs BFS over
//! the state space (node, phase ∈ {climbing, descending}) driven by a
//! per-node *hierarchy level*, and therefore computes exactly what the
//! deployed routing protocol can deliver — unlike plain BFS, which also
//! finds physically-present-but-unroutable valley paths.
//!
//! For fat-trees the levels are host(0) < edge(1) < agg(2) < core(3) <
//! border(4) < external(5); [`UpDownRouter::for_fat_tree`] installs them.
//! Any other leveled fabric works through [`UpDownRouter::with_levels`].
//!
//! This router favors clarity over speed; the analytic
//! [`crate::FatTreeRouter`] is the production path and is property-tested
//! against this one.

use crate::Router;
use recloud_sampling::BitMatrix;
use recloud_topology::{ComponentId, ComponentKind, Topology, TopologyKind};

/// Level assigned to components that do not participate in routing.
pub const NON_NETWORK: u8 = u8::MAX;

/// Valley-free BFS router.
pub struct UpDownRouter {
    topology: Topology,
    levels: Vec<u8>,
    round: usize,
    epoch: u32,
    /// Stamp per (node, phase): phase 0 = climbing, 1 = descending.
    visited: [Vec<u32>; 2],
    /// Cached per-round "reachable from external" stamps.
    ext_visited: Vec<u32>,
    ext_done: bool,
    queue: Vec<(u32, u8)>,
}

impl UpDownRouter {
    /// Builds a router with an explicit level per component.
    ///
    /// # Panics
    /// Panics if the level vector length mismatches the component count.
    pub fn with_levels(topology: &Topology, levels: Vec<u8>) -> Self {
        assert_eq!(levels.len(), topology.num_components(), "level vector shape");
        let n = topology.num_components();
        UpDownRouter {
            topology: topology.clone(),
            levels,
            round: 0,
            epoch: 0,
            visited: [vec![0; n], vec![0; n]],
            ext_visited: vec![0; n],
            ext_done: false,
            queue: Vec::new(),
        }
    }

    /// Standard fat-tree levels.
    ///
    /// # Panics
    /// Panics if the topology is not a fat-tree.
    pub fn for_fat_tree(topology: &Topology) -> Self {
        assert!(
            matches!(topology.topology_kind(), TopologyKind::FatTree(_)),
            "for_fat_tree requires a fat-tree topology"
        );
        let levels = topology
            .components()
            .iter()
            .map(|c| match c.kind {
                ComponentKind::Host => 0,
                ComponentKind::EdgeSwitch => 1,
                ComponentKind::AggSwitch => 2,
                ComponentKind::CoreSwitch => 3,
                ComponentKind::BorderSwitch => 4,
                ComponentKind::External => 5,
                _ => NON_NETWORK,
            })
            .collect();
        Self::with_levels(topology, levels)
    }

    /// Standard leaf-spine levels (host 0, leaf 1, spine 2, external 3).
    pub fn for_leaf_spine(topology: &Topology) -> Self {
        let levels = topology
            .components()
            .iter()
            .map(|c| match c.kind {
                ComponentKind::Host => 0,
                ComponentKind::EdgeSwitch => 1,
                ComponentKind::CoreSwitch => 2,
                ComponentKind::External => 3,
                _ => NON_NETWORK,
            })
            .collect();
        Self::with_levels(topology, levels)
    }

    /// Valley-free flood from `start` (must be alive), stamping `visited`
    /// (when `use_ext` is false) or `ext_visited` (when true, tracking only
    /// the descending phase from the external node).
    fn flood(&mut self, states: &BitMatrix, start: ComponentId, use_ext: bool) {
        let epoch = self.epoch;
        self.queue.clear();
        // Phase 0 = still allowed to climb; phase 1 = descending only.
        self.queue.push((start.0, 0));
        if use_ext {
            self.ext_visited[start.index()] = epoch;
        } else {
            self.visited[0][start.index()] = epoch;
        }
        let mut head = 0;
        while head < self.queue.len() {
            let (v_raw, phase) = self.queue[head];
            head += 1;
            let v = ComponentId(v_raw);
            let lv = self.levels[v.index()];
            for e in self.topology.graph().neighbors(v) {
                if let Some(link) = e.link_id() {
                    if states.get(link.index(), self.round) {
                        continue;
                    }
                }
                let w = e.to;
                if states.get(w.index(), self.round) {
                    continue;
                }
                let lw = self.levels[w.index()];
                if lw == NON_NETWORK {
                    continue;
                }
                // East-west traffic never hairpins through the external
                // peer; external participates only in external_reaches
                // floods (where it is the start node).
                if !use_ext && w == self.topology.external() {
                    continue;
                }
                let next_phase = if phase == 0 && lw > lv {
                    0 // keep climbing
                } else if lw < lv {
                    1 // turn (or keep) descending
                } else {
                    continue; // equal levels or climbing after descent: not valley-free
                };
                if use_ext {
                    // From external everything is descending; one stamp array.
                    if self.ext_visited[w.index()] != epoch {
                        self.ext_visited[w.index()] = epoch;
                        self.queue.push((w.0, next_phase));
                    }
                } else {
                    let stamps = &mut self.visited[next_phase as usize];
                    if stamps[w.index()] != epoch {
                        stamps[w.index()] = epoch;
                        self.queue.push((w.0, next_phase));
                    }
                }
            }
        }
    }
}

impl Router for UpDownRouter {
    fn begin_round(&mut self, states: &BitMatrix, round: usize) {
        assert_eq!(states.components(), self.topology.num_components(), "matrix shape");
        self.round = round;
        self.epoch = self.epoch.wrapping_add(1).max(1);
        self.ext_done = false;
    }

    fn external_reaches(&mut self, states: &BitMatrix, host: ComponentId) -> bool {
        if states.get(host.index(), self.round) {
            return false;
        }
        if !self.ext_done {
            let ext = self.topology.external();
            if !states.get(ext.index(), self.round) {
                self.flood(states, ext, true);
            }
            self.ext_done = true;
        }
        self.ext_visited[host.index()] == self.epoch
    }

    fn connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool {
        if states.get(a.index(), self.round) || states.get(b.index(), self.round) {
            return false;
        }
        if a == b {
            return true;
        }
        // Each connects() query refloods (reference implementation; no
        // memoization). Bump the epoch so stale stamps cannot leak, then
        // redo the external flood marker.
        self.epoch = self.epoch.wrapping_add(1).max(1);
        self.ext_done = false;
        self.flood(states, a, false);
        self.visited[0][b.index()] == self.epoch || self.visited[1][b.index()] == self.epoch
    }

    fn name(&self) -> &'static str {
        "updown-bfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::FatTreeParams;

    #[test]
    fn rejects_valley_paths() {
        // Break the direct spine for pod0<->pod1 but leave a physical
        // valley path through a third pod: up/down must say "no".
        let t = FatTreeParams::new(4).build();
        let m = *t.fat_tree().unwrap();
        let mut states = BitMatrix::new(t.num_components(), 1);
        // Pod 0 keeps only agg group 0; pod 1 keeps only agg group 1;
        // pod 2 keeps both (the potential valley relay).
        states.set(m.agg(0, 1).index(), 0);
        states.set(m.agg(1, 0).index(), 0);
        let mut r = UpDownRouter::for_fat_tree(&t);
        r.begin_round(&states, 0);
        // Physically: pod0 -> core(g0) -> agg(2,0) -> edge(2,x) -> agg(2,1)
        // -> core(g1) -> agg(1,1) -> pod1 exists, but it has a valley.
        assert!(!r.connects(&states, m.host(0, 0, 0), m.host(1, 0, 0)));
        // The generic router (physical reachability) disagrees — that is
        // exactly the difference between the two models.
        let mut phys = crate::GenericRouter::new(&t);
        phys.begin_round(&states, 0);
        assert!(phys.connects(&states, m.host(0, 0, 0), m.host(1, 0, 0)));
    }

    #[test]
    fn external_reaches_is_monotone_down() {
        let t = FatTreeParams::new(4).build();
        let m = *t.fat_tree().unwrap();
        let mut states = BitMatrix::new(t.num_components(), 1);
        // Kill border 0's entire core group; border 1 carries everything.
        for j in 0..m.half {
            states.set(m.core(0, j).index(), 0);
        }
        let mut r = UpDownRouter::for_fat_tree(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            let pos = m.host_position(h);
            // Reachable iff pod keeps agg group 1 alive (it does: nothing
            // else failed).
            assert!(r.external_reaches(&states, h), "pod {}", pos.pod);
        }
    }

    #[test]
    fn same_rack_connectivity_survives_total_core_loss() {
        let t = FatTreeParams::new(4).build();
        let m = *t.fat_tree().unwrap();
        let mut states = BitMatrix::new(t.num_components(), 1);
        for g in 0..m.half {
            for j in 0..m.half {
                states.set(m.core(g, j).index(), 0);
            }
        }
        let mut r = UpDownRouter::for_fat_tree(&t);
        r.begin_round(&states, 0);
        assert!(r.connects(&states, m.host(0, 0, 0), m.host(0, 0, 1)));
        assert!(r.connects(&states, m.host(0, 0, 0), m.host(0, 1, 0))); // via agg
        assert!(!r.connects(&states, m.host(0, 0, 0), m.host(1, 0, 0))); // needs core
        assert!(!r.external_reaches(&states, m.host(0, 0, 0)));
    }

    #[test]
    fn interleaved_queries_stay_consistent() {
        // connects() refloods and bumps epochs; external queries before and
        // after must still answer identically within a round.
        let t = FatTreeParams::new(4).build();
        let m = *t.fat_tree().unwrap();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(m.edge(0, 0).index(), 0);
        let mut r = UpDownRouter::for_fat_tree(&t);
        r.begin_round(&states, 0);
        let h_cut = m.host(0, 0, 0);
        let h_ok = m.host(1, 0, 0);
        assert!(!r.external_reaches(&states, h_cut));
        assert!(r.connects(&states, h_ok, m.host(2, 0, 0)));
        assert!(!r.external_reaches(&states, h_cut));
        assert!(r.external_reaches(&states, h_ok));
    }
}

#[cfg(test)]
mod leafspine_tests {
    use super::*;
    use crate::GenericRouter;
    use recloud_sampling::{ExtendedDaggerSampler, Sampler};
    use recloud_topology::LeafSpineParams;

    /// On a full-mesh leaf-spine, every physical path is already
    /// valley-free (any alive spine connects any two alive leaves
    /// directly), so the two routers must agree exactly.
    #[test]
    fn leafspine_valley_free_equals_physical() {
        let t = LeafSpineParams::new(3, 6, 4).border_spines(2).build();
        let rounds = 300;
        let mut states = BitMatrix::new(t.num_components(), rounds);
        let probs: Vec<f64> = t
            .components()
            .iter()
            .map(|c| if c.kind == ComponentKind::External { 0.0 } else { 0.15 })
            .collect();
        ExtendedDaggerSampler::seeded(21).sample_into(&probs, &mut states);

        let mut vf = UpDownRouter::for_leaf_spine(&t);
        let mut phys = GenericRouter::new(&t);
        let hosts = t.hosts();
        for round in 0..rounds {
            vf.begin_round(&states, round);
            phys.begin_round(&states, round);
            for &h in hosts.iter().step_by(3) {
                assert_eq!(
                    vf.external_reaches(&states, h),
                    phys.external_reaches(&states, h),
                    "round {round} host {h}"
                );
            }
            let (a, b) = (hosts[0], hosts[hosts.len() - 1]);
            assert_eq!(vf.connects(&states, a, b), phys.connects(&states, a, b), "round {round}");
        }
    }

    #[test]
    fn leafspine_levels_reject_leaf_relay_valleys() {
        // Hand-built: two leaves that share only ONE spine; if that spine
        // dies, host1 cannot reach host2 even though both are alive.
        let t = LeafSpineParams::new(1, 2, 1).border_spines(1).build();
        let mut states = BitMatrix::new(t.num_components(), 1);
        states.set(t.border_switches()[0].index(), 0); // the only spine
        let mut vf = UpDownRouter::for_leaf_spine(&t);
        vf.begin_round(&states, 0);
        let h = t.hosts();
        assert!(!vf.connects(&states, h[0], h[1]));
        assert!(!vf.external_reaches(&states, h[0]));
    }
}
