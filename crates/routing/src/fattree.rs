//! Analytic fat-tree up/down routing (the fast path of route-and-check).
//!
//! Fat-tree routing is valley-free: a packet climbs host → edge → agg →
//! core, crosses at the top, and descends. Reachability under this
//! protocol therefore has closed form:
//!
//! * **external → host (p, e, s)**: the host and its edge switch are
//!   alive, and some *core group* g exists with `agg(p, g)` alive,
//!   `border(g)` alive, and at least one core switch in group g alive.
//! * **host ↔ host, same edge**: both hosts and the edge switch alive.
//! * **host ↔ host, same pod**: hosts and both edge switches alive, and
//!   some agg switch of the pod alive.
//! * **host ↔ host, cross-pod**: hosts and edge switches alive, and some
//!   group g with `agg(p₁, g)`, `agg(p₂, g)` and a core of group g alive.
//!
//! Per round we digest the switch tiers into three bit masks over core
//! groups — `core_group_alive`, `border_ok = border ∧ core_group_alive`,
//! and a lazily-computed per-pod `agg_mask` — after which every query is a
//! couple of AND operations. The per-round cost is O(#switches), not
//! O(#hosts): begin_round on the Large fabric touches ~2.9K bits.
//!
//! Verdict-equivalence with the valley-free reference BFS is enforced by
//! tests in `lib.rs` and by property tests.

use crate::Router;
use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, FatTreeMeta, Topology};

/// O(1)-per-query router for fat-trees with a dedicated border pod.
pub struct FatTreeRouter {
    meta: FatTreeMeta,
    round: usize,
    /// Mask over core groups: group has ≥ 1 alive core switch.
    core_group_alive: u64,
    /// Mask over core groups: border(g) alive AND core group g alive.
    border_ok: u64,
    /// Lazily-computed per-pod agg masks, epoch-stamped.
    agg_mask: Vec<u64>,
    agg_stamp: Vec<u32>,
    epoch: u32,
    /// Word-protocol context (the bit-sliced kernel). Indexed by round
    /// within the current word: bit r of each mask is round 64·word + r.
    word: usize,
    /// Per core group g: some core of g alive (round-lane mask).
    core_any_w: Vec<u64>,
    /// Per core group g: border(g) alive AND some core of g alive.
    border_ok_w: Vec<u64>,
    /// Per (pod, group): agg(p, g) alive. Lazily filled per pod.
    agg_w: Vec<u64>,
    /// Per pod: OR over g of `agg_w[p][g] & border_ok_w[g]` — the rounds in
    /// which the pod has *some* externally-viable uplink group.
    pod_ext_w: Vec<u64>,
    /// Per pod: OR over g of `agg_w[p][g]` — some agg of the pod alive.
    pod_agg_any_w: Vec<u64>,
    pod_wstamp: Vec<u32>,
    wepoch: u32,
    /// Wide-protocol context (the 256-lane kernel) — same shapes as the
    /// word-protocol masks above, one [`WideWord`] lane per round of the
    /// current wide word.
    wide: usize,
    core_any_ww: Vec<WideWord>,
    border_ok_ww: Vec<WideWord>,
    agg_ww: Vec<WideWord>,
    pod_ext_ww: Vec<WideWord>,
    pod_agg_any_ww: Vec<WideWord>,
    pod_wwstamp: Vec<u32>,
    wwepoch: u32,
}

impl FatTreeRouter {
    /// Creates the router.
    ///
    /// # Panics
    /// Panics if the topology is not a fat-tree, or k > 128 (group masks
    /// are single u64 words; the paper's largest k is 48).
    pub fn new(topology: &Topology) -> Self {
        let meta = *topology.fat_tree().expect("FatTreeRouter requires a fat-tree topology");
        assert!(meta.half <= 64, "fat-tree k > 128 exceeds mask width");
        let pods = meta.host_pods as usize;
        let half = meta.half as usize;
        FatTreeRouter {
            meta,
            round: 0,
            core_group_alive: 0,
            border_ok: 0,
            agg_mask: vec![0; pods],
            agg_stamp: vec![0; pods],
            epoch: 0,
            word: 0,
            core_any_w: vec![0; half],
            border_ok_w: vec![0; half],
            agg_w: vec![0; pods * half],
            pod_ext_w: vec![0; pods],
            pod_agg_any_w: vec![0; pods],
            pod_wstamp: vec![0; pods],
            wepoch: 0,
            wide: 0,
            core_any_ww: vec![WideWord::ZERO; half],
            border_ok_ww: vec![WideWord::ZERO; half],
            agg_ww: vec![WideWord::ZERO; pods * half],
            pod_ext_ww: vec![WideWord::ZERO; pods],
            pod_agg_any_ww: vec![WideWord::ZERO; pods],
            pod_wwstamp: vec![0; pods],
            wwepoch: 0,
        }
    }

    #[inline]
    fn alive(states: &BitMatrix, c: ComponentId, round: usize) -> bool {
        !states.get(c.index(), round)
    }

    /// Round-lane "alive" mask of one component over the 64 rounds of
    /// `word`: bit r set iff the component is alive in round 64·word + r.
    /// Bits beyond the matrix's round count are set (stored tail bits are
    /// zero = alive); callers mask final verdicts.
    #[inline]
    fn alive_word(states: &BitMatrix, c: ComponentId, word: usize) -> u64 {
        !states.word(c.index(), word)
    }

    /// Fills the per-pod word-lane masks on first use within a word. Same
    /// laziness argument as [`FatTreeRouter::agg_mask_of`]: a plan touches
    /// a handful of pods, so most words read k/2 agg rows for ≤ N pods.
    #[inline]
    fn pod_words_of(&mut self, states: &BitMatrix, pod: u32) {
        let p = pod as usize;
        if self.pod_wstamp[p] == self.wepoch {
            return;
        }
        let half = self.meta.half as usize;
        let mut ext = 0u64;
        let mut any = 0u64;
        for g in 0..half {
            let agg = Self::alive_word(states, self.meta.agg(pod, g as u32), self.word);
            self.agg_w[p * half + g] = agg;
            ext |= agg & self.border_ok_w[g];
            any |= agg;
        }
        self.pod_ext_w[p] = ext;
        self.pod_agg_any_w[p] = any;
        self.pod_wstamp[p] = self.wepoch;
    }

    /// 256-lane "alive" mask of one component over the rounds of wide word
    /// `wide`; same tail-lane contract as [`FatTreeRouter::alive_word`].
    #[inline]
    fn alive_wide(states: &BitMatrix, c: ComponentId, wide: usize) -> WideWord {
        !states.wide_word(c.index(), wide)
    }

    /// Fills the per-pod wide-lane masks on first use within a wide word —
    /// the 256-lane mirror of [`FatTreeRouter::pod_words_of`].
    #[inline]
    fn pod_wides_of(&mut self, states: &BitMatrix, pod: u32) {
        let p = pod as usize;
        if self.pod_wwstamp[p] == self.wwepoch {
            return;
        }
        let half = self.meta.half as usize;
        let mut ext = WideWord::ZERO;
        let mut any = WideWord::ZERO;
        for g in 0..half {
            let agg = Self::alive_wide(states, self.meta.agg(pod, g as u32), self.wide);
            self.agg_ww[p * half + g] = agg;
            ext |= agg & self.border_ok_ww[g];
            any |= agg;
        }
        self.pod_ext_ww[p] = ext;
        self.pod_agg_any_ww[p] = any;
        self.pod_wwstamp[p] = self.wwepoch;
    }

    /// Per-pod agg mask, computed on first use in a round. Keeping this
    /// lazy matters: a plan only touches a handful of pods, so most rounds
    /// read k/2 agg bits for ≤ N pods instead of all (k−1)·k/2.
    #[inline]
    fn agg_mask_of(&mut self, states: &BitMatrix, pod: u32) -> u64 {
        let p = pod as usize;
        if self.agg_stamp[p] != self.epoch {
            let mut mask = 0u64;
            for g in 0..self.meta.half {
                if Self::alive(states, self.meta.agg(pod, g), self.round) {
                    mask |= 1 << g;
                }
            }
            self.agg_mask[p] = mask;
            self.agg_stamp[p] = self.epoch;
        }
        self.agg_mask[p]
    }
}

impl Router for FatTreeRouter {
    fn begin_round(&mut self, states: &BitMatrix, round: usize) {
        self.round = round;
        self.epoch = self.epoch.wrapping_add(1).max(1);
        let half = self.meta.half;
        let mut core_alive = 0u64;
        for g in 0..half {
            for j in 0..half {
                if Self::alive(states, self.meta.core(g, j), round) {
                    core_alive |= 1 << g;
                    break;
                }
            }
        }
        self.core_group_alive = core_alive;
        let mut border_ok = 0u64;
        for g in 0..half {
            if (core_alive >> g) & 1 == 1 && Self::alive(states, self.meta.border(g), round) {
                border_ok |= 1 << g;
            }
        }
        self.border_ok = border_ok;
    }

    fn external_reaches(&mut self, states: &BitMatrix, host: ComponentId) -> bool {
        debug_assert!(self.meta.is_host(host), "external_reaches takes a host id");
        if !Self::alive(states, host, self.round) {
            return false;
        }
        let pos = self.meta.host_position(host);
        if !Self::alive(states, self.meta.edge(pos.pod, pos.edge), self.round) {
            return false;
        }
        self.agg_mask_of(states, pos.pod) & self.border_ok != 0
    }

    fn connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool {
        debug_assert!(self.meta.is_host(a) && self.meta.is_host(b), "connects takes host ids");
        if !Self::alive(states, a, self.round) || !Self::alive(states, b, self.round) {
            return false;
        }
        if a == b {
            return true;
        }
        let pa = self.meta.host_position(a);
        let pb = self.meta.host_position(b);
        if !Self::alive(states, self.meta.edge(pa.pod, pa.edge), self.round) {
            return false;
        }
        if pa.pod == pb.pod && pa.edge == pb.edge {
            return true; // same edge switch, already checked alive
        }
        if !Self::alive(states, self.meta.edge(pb.pod, pb.edge), self.round) {
            return false;
        }
        if pa.pod == pb.pod {
            return self.agg_mask_of(states, pa.pod) != 0;
        }
        let ma = self.agg_mask_of(states, pa.pod);
        let mb = self.agg_mask_of(states, pb.pod);
        ma & mb & self.core_group_alive != 0
    }

    fn name(&self) -> &'static str {
        "fat-tree-analytic"
    }

    /// Valley-free routing reads the top of the fabric (every core and
    /// border switch) and, per host, the host itself, its edge switch and
    /// its pod's aggregation switches — the closed forms in the module
    /// docs mention nothing else.
    fn cone(
        &self,
        _components: usize,
        hosts: &mut dyn Iterator<Item = ComponentId>,
        out: &mut Vec<ComponentId>,
    ) {
        let m = &self.meta;
        out.extend((0..m.half * m.half).map(|i| ComponentId(m.core_base + i)));
        out.extend((0..m.half).map(|g| m.border(g)));
        let mut pods_seen = 0u128; // k ≤ 128, so at most 127 host pods
        for h in hosts {
            let pos = m.host_position(h);
            out.push(h);
            out.push(m.edge(pos.pod, pos.edge));
            if (pods_seen >> pos.pod) & 1 == 0 {
                pods_seen |= 1 << pos.pod;
                out.extend((0..m.half).map(|g| m.agg(pos.pod, g)));
            }
        }
    }

    /// Digests the switch tiers once per 64 rounds instead of once per
    /// round — the word-parallel analogue of [`Router::begin_round`], and
    /// the reason batched assessment re-reads ~64× fewer switch bits.
    fn begin_word(&mut self, states: &BitMatrix, word: usize) {
        self.word = word;
        self.wepoch = self.wepoch.wrapping_add(1).max(1);
        let half = self.meta.half;
        for g in 0..half {
            let mut any = 0u64;
            for j in 0..half {
                any |= Self::alive_word(states, self.meta.core(g, j), word);
                if any == !0 {
                    break; // every lane already covered
                }
            }
            self.core_any_w[g as usize] = any;
            self.border_ok_w[g as usize] =
                any & Self::alive_word(states, self.meta.border(g), word);
        }
    }

    fn word_native(&self) -> bool {
        true
    }

    fn external_reach_word(&mut self, states: &BitMatrix, host: ComponentId, word: usize) -> u64 {
        debug_assert!(self.meta.is_host(host), "external_reach_word takes a host id");
        debug_assert_eq!(word, self.word, "begin_word installs the word context");
        let pos = self.meta.host_position(host);
        self.pod_words_of(states, pos.pod);
        Self::alive_word(states, host, word)
            & Self::alive_word(states, self.meta.edge(pos.pod, pos.edge), word)
            & self.pod_ext_w[pos.pod as usize]
    }

    fn connects_word(
        &mut self,
        states: &BitMatrix,
        a: ComponentId,
        b: ComponentId,
        word: usize,
    ) -> u64 {
        debug_assert!(self.meta.is_host(a) && self.meta.is_host(b), "connects_word takes host ids");
        debug_assert_eq!(word, self.word, "begin_word installs the word context");
        let both = Self::alive_word(states, a, word) & Self::alive_word(states, b, word);
        if a == b {
            return both;
        }
        let pa = self.meta.host_position(a);
        let pb = self.meta.host_position(b);
        let ea = Self::alive_word(states, self.meta.edge(pa.pod, pa.edge), word);
        if pa.pod == pb.pod && pa.edge == pb.edge {
            return both & ea;
        }
        let eb = Self::alive_word(states, self.meta.edge(pb.pod, pb.edge), word);
        if pa.pod == pb.pod {
            self.pod_words_of(states, pa.pod);
            return both & ea & eb & self.pod_agg_any_w[pa.pod as usize];
        }
        self.pod_words_of(states, pa.pod);
        self.pod_words_of(states, pb.pod);
        let half = self.meta.half as usize;
        let (ia, ib) = (pa.pod as usize * half, pb.pod as usize * half);
        let mut cross = 0u64;
        for g in 0..half {
            cross |= self.agg_w[ia + g] & self.agg_w[ib + g] & self.core_any_w[g];
        }
        both & ea & eb & cross
    }

    /// Digests the switch tiers once per 256 rounds — the wide analogue of
    /// [`Router::begin_word`].
    fn begin_wide(&mut self, states: &BitMatrix, wide: usize) {
        self.wide = wide;
        self.wwepoch = self.wwepoch.wrapping_add(1).max(1);
        let half = self.meta.half;
        for g in 0..half {
            let mut any = WideWord::ZERO;
            for j in 0..half {
                any |= Self::alive_wide(states, self.meta.core(g, j), wide);
                if any.is_ones() {
                    break; // every lane already covered
                }
            }
            self.core_any_ww[g as usize] = any;
            self.border_ok_ww[g as usize] =
                any & Self::alive_wide(states, self.meta.border(g), wide);
        }
    }

    fn wide_native(&self) -> bool {
        true
    }

    fn external_reach_wide(
        &mut self,
        states: &BitMatrix,
        host: ComponentId,
        wide: usize,
    ) -> WideWord {
        debug_assert!(self.meta.is_host(host), "external_reach_wide takes a host id");
        debug_assert_eq!(wide, self.wide, "begin_wide installs the wide context");
        let pos = self.meta.host_position(host);
        self.pod_wides_of(states, pos.pod);
        Self::alive_wide(states, host, wide)
            & Self::alive_wide(states, self.meta.edge(pos.pod, pos.edge), wide)
            & self.pod_ext_ww[pos.pod as usize]
    }

    fn connects_wide(
        &mut self,
        states: &BitMatrix,
        a: ComponentId,
        b: ComponentId,
        wide: usize,
    ) -> WideWord {
        debug_assert!(self.meta.is_host(a) && self.meta.is_host(b), "connects_wide takes host ids");
        debug_assert_eq!(wide, self.wide, "begin_wide installs the wide context");
        let both = Self::alive_wide(states, a, wide) & Self::alive_wide(states, b, wide);
        if a == b {
            return both;
        }
        let pa = self.meta.host_position(a);
        let pb = self.meta.host_position(b);
        let ea = Self::alive_wide(states, self.meta.edge(pa.pod, pa.edge), wide);
        if pa.pod == pb.pod && pa.edge == pb.edge {
            return both & ea;
        }
        let eb = Self::alive_wide(states, self.meta.edge(pb.pod, pb.edge), wide);
        if pa.pod == pb.pod {
            self.pod_wides_of(states, pa.pod);
            return both & ea & eb & self.pod_agg_any_ww[pa.pod as usize];
        }
        self.pod_wides_of(states, pa.pod);
        self.pod_wides_of(states, pb.pod);
        let half = self.meta.half as usize;
        let (ia, ib) = (pa.pod as usize * half, pb.pod as usize * half);
        let mut cross = WideWord::ZERO;
        for g in 0..half {
            cross |= self.agg_ww[ia + g] & self.agg_ww[ib + g] & self.core_any_ww[g];
        }
        both & ea & eb & cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_topology::FatTreeParams;

    fn setup(k: u32) -> (Topology, FatTreeMeta, BitMatrix) {
        let t = FatTreeParams::new(k).build();
        let m = *t.fat_tree().unwrap();
        let states = BitMatrix::new(t.num_components(), 1);
        (t, m, states)
    }

    #[test]
    fn all_alive_everything_reachable() {
        let (t, _, states) = setup(4);
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            assert!(r.external_reaches(&states, h));
        }
        let h = t.hosts();
        assert!(r.connects(&states, h[0], h[h.len() - 1]));
    }

    #[test]
    fn dead_edge_switch_cuts_its_rack_only() {
        let (t, m, mut states) = setup(4);
        states.set(m.edge(0, 0).index(), 0);
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            let pos = m.host_position(h);
            let expect = !(pos.pod == 0 && pos.edge == 0);
            assert_eq!(r.external_reaches(&states, h), expect, "{h}");
        }
    }

    #[test]
    fn pod_loses_external_when_all_its_aggs_die() {
        let (t, m, mut states) = setup(4);
        for g in 0..m.half {
            states.set(m.agg(1, g).index(), 0);
        }
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            let pos = m.host_position(h);
            assert_eq!(r.external_reaches(&states, h), pos.pod != 1, "{h}");
        }
        // And pod 1 hosts cannot reach other pods...
        let in_pod1 = m.host(1, 0, 0);
        let in_pod0 = m.host(0, 0, 0);
        assert!(!r.connects(&states, in_pod1, in_pod0));
        // ...but still talk within the pod? No: same-pod needs an agg too,
        // except under the same edge switch.
        let same_edge = m.host(1, 0, 1);
        assert!(r.connects(&states, in_pod1, same_edge));
        let other_edge = m.host(1, 1, 0);
        assert!(!r.connects(&states, in_pod1, other_edge));
    }

    #[test]
    fn all_borders_down_cuts_external_but_not_east_west() {
        let (t, m, mut states) = setup(4);
        for g in 0..m.half {
            states.set(m.border(g).index(), 0);
        }
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            assert!(!r.external_reaches(&states, h));
        }
        // Cross-pod traffic still flows through the cores.
        assert!(r.connects(&states, m.host(0, 0, 0), m.host(2, 1, 1)));
    }

    #[test]
    fn whole_core_group_must_die_to_matter() {
        let (t, m, mut states) = setup(4);
        // Kill one core of group 0: nothing changes (other member covers).
        states.set(m.core(0, 0).index(), 0);
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        assert!(r.external_reaches(&states, m.host(0, 0, 0)));
        // Kill the whole group 0 *and* group 1's border: external dies
        // (group 0 has no cores; group 1 has no border).
        states.set(m.core(0, 1).index(), 0);
        states.set(m.border(1).index(), 0);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            assert!(!r.external_reaches(&states, h), "{h}");
        }
        // Cross-pod east-west still works through group 1 cores.
        assert!(r.connects(&states, m.host(0, 0, 0), m.host(1, 0, 0)));
    }

    #[test]
    fn cross_pod_needs_shared_alive_group() {
        let (t, m, mut states) = setup(4);
        // Pod 0 keeps only agg group 0; pod 1 keeps only agg group 1.
        states.set(m.agg(0, 1).index(), 0);
        states.set(m.agg(1, 0).index(), 0);
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        // No shared group -> no cross-pod path (valley-free).
        assert!(!r.connects(&states, m.host(0, 0, 0), m.host(1, 0, 0)));
        // Both can still reach external through their own group.
        assert!(r.external_reaches(&states, m.host(0, 0, 0)));
        assert!(r.external_reaches(&states, m.host(1, 0, 0)));
        // And pod 0 <-> pod 2 still fine via group 0.
        assert!(r.connects(&states, m.host(0, 0, 0), m.host(2, 0, 0)));
    }

    #[test]
    fn larger_k_smoke() {
        let (t, _, states) = setup(8);
        let mut r = FatTreeRouter::new(&t);
        r.begin_round(&states, 0);
        for &h in t.hosts() {
            assert!(r.external_reaches(&states, h));
        }
    }

    /// Word lanes are independent: failures staged in different rounds of
    /// one word must each only affect their own bit.
    #[test]
    fn word_lanes_are_independent() {
        let (t, m, _) = setup(4);
        let mut states = BitMatrix::new(t.num_components(), 70);
        // Round 0: kill host's edge. Round 1: kill all of pod 0's aggs.
        // Round 5: kill group 0 cores + group 1 border. Round 64: kill the
        // host itself (exercises the second word).
        states.set(m.edge(0, 0).index(), 0);
        for g in 0..m.half {
            states.set(m.agg(0, g).index(), 1);
        }
        for j in 0..m.half {
            states.set(m.core(0, j).index(), 5);
        }
        states.set(m.border(1).index(), 5);
        let h = m.host(0, 0, 0);
        states.set(h.index(), 64);

        let mut r = FatTreeRouter::new(&t);
        r.begin_word(&states, 0);
        let reach = r.external_reach_word(&states, h, 0) & states.word_mask(0);
        assert_eq!(reach & 0b100011, 0, "rounds 0, 1, 5 must fail");
        assert_eq!(reach | 0b100011, !0, "all other rounds must succeed");
        r.begin_word(&states, 1);
        let reach1 = r.external_reach_word(&states, h, 1) & states.word_mask(1);
        assert_eq!(reach1, states.word_mask(1) & !1, "round 64 must fail");

        // Cross-pod connectivity: round 5's dead core group 0 still leaves
        // group 1 cores for east-west, so only rounds 0 and 1 cut it.
        r.begin_word(&states, 0);
        let conn = r.connects_word(&states, h, m.host(1, 0, 0), 0) & states.word_mask(0);
        assert_eq!(conn & 0b11, 0);
        assert_eq!(conn | 0b11, !0);
    }

    /// Wide lanes are independent across the full 256-lane span and across
    /// wide-word boundaries — the 256-lane mirror of
    /// `word_lanes_are_independent`.
    #[test]
    fn wide_lanes_are_independent() {
        let (t, m, _) = setup(4);
        let mut states = BitMatrix::new(t.num_components(), 300);
        // Failures staged one per lane region: round 0 (word 0), round 65
        // (word 1), round 130 (word 2), round 200 (word 3), round 256
        // (second wide word).
        states.set(m.edge(0, 0).index(), 0);
        for g in 0..m.half {
            states.set(m.agg(0, g).index(), 65);
        }
        for j in 0..m.half {
            states.set(m.core(0, j).index(), 130);
        }
        states.set(m.border(1).index(), 130);
        let h = m.host(0, 0, 0);
        states.set(h.index(), 200);
        states.set(h.index(), 256);

        let mut r = FatTreeRouter::new(&t);
        r.begin_wide(&states, 0);
        let reach = r.external_reach_wide(&states, h, 0) & states.wide_mask(0);
        let mut expect = WideWord::ONES;
        for lane in [0usize, 65, 130, 200] {
            expect.set_word(lane / 64, expect.word(lane / 64) & !(1u64 << (lane % 64)));
        }
        assert_eq!(reach, expect & states.wide_mask(0));
        r.begin_wide(&states, 1);
        let reach1 = r.external_reach_wide(&states, h, 1) & states.wide_mask(1);
        let mut expect1 = states.wide_mask(1);
        expect1.set_word(0, expect1.word(0) & !1); // round 256 = lane 0
        assert_eq!(reach1, expect1);

        // Cross-pod connectivity: round 130's dead core group 0 still
        // leaves group 1 cores for east-west, so only rounds 0, 65, 200 cut
        // it in the first wide word.
        r.begin_wide(&states, 0);
        let conn = r.connects_wide(&states, h, m.host(1, 0, 0), 0) & states.wide_mask(0);
        let mut cexpect = WideWord::ONES;
        for lane in [0usize, 65, 200] {
            cexpect.set_word(lane / 64, cexpect.word(lane / 64) & !(1u64 << (lane % 64)));
        }
        assert_eq!(conn, cexpect & states.wide_mask(0));
    }

    /// The native wide path must equal the four word queries it replaces.
    #[test]
    fn wide_equals_stacked_words() {
        let (t, m, _) = setup(4);
        let rounds = 257;
        let mut states = BitMatrix::new(t.num_components(), rounds);
        let mut rng = recloud_sampling::Rng::new(42);
        for c in 0..states.components() {
            for r in 0..rounds {
                if rng.next_below(12) == 0 {
                    states.set(c, r);
                }
            }
        }
        let mut r = FatTreeRouter::new(&t);
        let hosts = [m.host(0, 0, 0), m.host(0, 0, 1), m.host(1, 1, 0), m.host(2, 0, 1)];
        for ww in 0..states.wide_words_per_row() {
            r.begin_wide(&states, ww);
            let mask = states.wide_mask(ww);
            let reach: Vec<WideWord> =
                hosts.iter().map(|&h| r.external_reach_wide(&states, h, ww) & mask).collect();
            let conn: Vec<WideWord> =
                hosts.iter().map(|&h| r.connects_wide(&states, hosts[0], h, ww) & mask).collect();
            for i in 0..WideWord::WORDS {
                let w = ww * WideWord::WORDS + i;
                r.begin_word(&states, w);
                for (j, &h) in hosts.iter().enumerate() {
                    let rw = r.external_reach_word(&states, h, w) & states.word_mask(w);
                    assert_eq!(reach[j].word(i), rw, "reach ww={ww} sub={i} host={h}");
                    let cw = r.connects_word(&states, hosts[0], h, w) & states.word_mask(w);
                    assert_eq!(conn[j].word(i), cw, "conn ww={ww} sub={i} host={h}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a fat-tree")]
    fn rejects_non_fat_tree() {
        let t = recloud_topology::LeafSpineParams::new(2, 2, 2).build();
        FatTreeRouter::new(&t);
    }
}
