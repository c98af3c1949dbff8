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
//! The 256-lane protocol goes one step further. Of the masks above,
//! `border_ok` and the per-pod `pod_ext = OR_g agg(p, g) ∧ border_ok[g]`
//! mention no host: they are digests of the table's rows, the same for
//! every plan that lands in the pod. And a host's whole answer,
//! `reach = host ∧ edge ∧ pod_ext[pod]`, mentions no *other* host: it is
//! the same for every plan the host is part of.
//! [`Router::external_reach_keyed`] names the table those rows belong to,
//! so the router keeps all three per table slot in a [`Memo`]: `border_ok`
//! and `pod_ext` per wide word for as long as the generation lasts, and
//! the reach rows of the hosts of the last few plans. A neighbour of the
//! last plan finds all but one of its rows built; a K-of-N verdict over a
//! held table is then a count over N kept rows with no routing in it.
//!
//! A kept row is found in O(1): a small index maps a host's hash to the
//! row it was last put in, a hint checked against the row's host, so the
//! scan for the least recently used row runs only on a miss. A new row is
//! built from three row slices resolved once — the host's, its edge
//! switch's and its pod's `pod_ext` — and then copied, as every kept row
//! is, into the caller's buffer.
//!
//! Verdict-equivalence with the valley-free reference BFS is enforced by
//! tests in `lib.rs` and by property tests.

use crate::{MemoStats, Router, TableKey};
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
    /// Wide-protocol context (the 256-lane kernel): the wide word
    /// [`Router::begin_wide`] installed. Its digests live in `memos[0]`.
    wide: usize,
    /// `memos[0]` serves the unkeyed [`Router::begin_wide`] (one wide word,
    /// forgotten on every call); `memos[1 + slot]` holds what is kept of
    /// table slot `slot`. Sized on first use.
    memos: Vec<Memo>,
    /// What [`Router::memo_stats`] reports, over all memos.
    stats: MemoStats,
}

/// What is kept of one state matrix under one generation: per wide word
/// the plan-independent digests, each built the first time it is read, and
/// a small set of per-host reach rows with an index to find them by. A new
/// generation zeroes the built counts and empties the rows, and so forgets
/// everything.
#[derive(Default)]
struct Memo {
    /// What everything below was built under; 0 before the first.
    generation: u64,
    /// Memo wide word `at` holds the matrix's wide word `base + at`: 0 for a
    /// table slot, the installed wide word for the unkeyed memo.
    base: usize,
    /// Memo wide words per row.
    width: usize,
    /// Wide words `0..border_built` of `border_ok` are built.
    border_built: usize,
    /// `[wide · half + g]`: border(g) alive AND some core of group g alive.
    /// Every `pod_ext` of the wide word is built from it, whenever a plan
    /// first brings its pod there.
    border_ok: Vec<WideWord>,
    /// `[pod]`: wide words `0..pod_built[p]` of pod p's `pod_ext` are built.
    pod_built: Vec<u32>,
    /// `[pod · width + wide]`: OR over g of `agg(p, g) & border_ok[g]` —
    /// the rounds in which pod p has some externally-viable uplink group.
    pod_ext: Vec<WideWord>,
    /// The hosts whose reach is kept, and `[row · width + wide]` their
    /// reach: host ∧ edge ∧ `pod_ext[pod]`. At most [`MAX_REACH_ROWS`],
    /// and no more than twice the hosts of the largest plan shown.
    rows: Vec<ReachRow>,
    reach: Vec<WideWord>,
    /// `[hash(host)]`: the row `host` was last put in, if it is still
    /// there — a hint, checked against `rows`, that spares the LRU scan.
    /// [`INDEX`] entries once the memo keeps any row.
    index: Vec<u8>,
    /// [`Router::external_reach_keyed`] calls so far: a row `used` in this
    /// one belongs to the plan being checked.
    call: u64,
}

/// One kept reach row.
#[derive(Clone, Copy)]
struct ReachRow {
    /// The host's component index; [`NO_HOST`] while the row is empty.
    host: u32,
    /// Wide words `0..built` of the row are built. A shorter follow-up
    /// builds fewer than a later, longer one under the same generation
    /// asks for; that one extends the row.
    built: u32,
    /// The last call that asked for the host.
    used: u64,
}

const NO_HOST: u32 = u32::MAX;
const EMPTY_ROW: ReachRow = ReachRow { host: NO_HOST, built: 0, used: 0 };

/// Most reach rows kept per slot, whatever the plan: a plan with more
/// hosts than this is answered through the same rows, a few at a time.
/// 64 rows of a 10⁴-round Medium slot (10 wide words) are 20 KB.
const MAX_REACH_ROWS: usize = 64;

/// Entries of [`Memo::index`]: twice the most rows, so that the hosts of
/// one plan rarely share one.
const INDEX: usize = 2 * MAX_REACH_ROWS;

impl Memo {
    /// Starts over under `generation`, for a matrix of `width` wide words
    /// per row. Allocates only when a size changes.
    fn restart(&mut self, generation: u64, width: usize, meta: &FatTreeMeta) {
        self.generation = generation;
        self.width = width;
        self.border_built = 0;
        self.pod_built.clear();
        self.pod_built.resize(meta.host_pods as usize, 0);
        self.border_ok.resize(width * meta.half as usize, WideWord::ZERO);
        self.pod_ext.resize(width * meta.host_pods as usize, WideWord::ZERO);
        self.rows.fill(EMPTY_ROW);
        self.reach.resize(self.rows.len() * width, WideWord::ZERO);
    }

    fn bytes(&self) -> usize {
        let wide_words = self.border_ok.len() + self.pod_ext.len() + self.reach.len();
        std::mem::size_of::<WideWord>() * wide_words
            + std::mem::size_of_val(&self.pod_built[..])
            + std::mem::size_of::<ReachRow>() * self.rows.len()
            + self.index.len()
    }

    /// Builds pod `pod`'s externally-viable-uplink mask over the memo's wide
    /// words `0..wides`, those not built yet, from the pod's agg rows and
    /// each word's `border_ok`, itself built on first read from the border
    /// and core rows. It reads only the base cone and a `pod` host's cone,
    /// and only when such a host is asked about. Adds what it built to
    /// `digests`.
    fn build_pod_ext(
        &mut self,
        meta: &FatTreeMeta,
        states: &BitMatrix,
        pod: u32,
        wides: usize,
        digests: &mut u64,
    ) {
        let (half, p) = (meta.half as usize, pod as usize);
        let from = self.pod_built[p] as usize;
        if from >= wides {
            return;
        }
        for at in self.border_built..wides {
            let wide = self.base + at;
            for (g, ok) in self.border_ok[at * half..][..half].iter_mut().enumerate() {
                let mut any = WideWord::ZERO;
                for j in 0..half {
                    let core = meta.core(g as u32, j as u32);
                    any |= FatTreeRouter::alive_wide(states, core, wide);
                    if any.is_ones() {
                        break; // every lane already covered
                    }
                }
                *ok = any & FatTreeRouter::alive_wide(states, meta.border(g as u32), wide);
            }
            *digests += 1;
        }
        self.border_built = self.border_built.max(wides);
        let ext = &mut self.pod_ext[p * self.width..][from..wides];
        ext.fill(WideWord::ZERO);
        for g in 0..half {
            let agg = states.row_words(meta.agg(pod, g as u32).index());
            for (at, ext) in (from..wides).zip(ext.iter_mut()) {
                *ext |= alive_at(agg, self.base + at) & self.border_ok[at * half + g];
            }
        }
        self.pod_built[p] = wides as u32;
        *digests += (wides - from) as u64;
    }

    /// The row that holds `host`'s reach: the one the index names, if it
    /// still holds the host; else, by a scan, the one it is in or the
    /// least recently used one, emptied. With at least one row more than
    /// the plan has hosts, that is never a row of the plan being checked.
    #[inline]
    fn row_of(&mut self, host: u32) -> usize {
        let hash = (host.wrapping_mul(0x9E37_79B9) >> (32 - INDEX.trailing_zeros())) as usize;
        let hint = self.index[hash] as usize;
        if self.rows.get(hint).is_some_and(|row| row.host == host) {
            return hint;
        }
        let mut oldest = 0;
        for (i, row) in self.rows.iter().enumerate() {
            if row.host == host {
                self.index[hash] = i as u8;
                return i;
            }
            if row.used < self.rows[oldest].used {
                oldest = i;
            }
        }
        self.rows[oldest] = ReachRow { host, ..EMPTY_ROW };
        self.index[hash] = oldest as u8;
        oldest
    }
}

/// Lanes alive in wide word `ww` of a row's raw words.
#[inline(always)]
fn alive_at(row: &[u64], ww: usize) -> WideWord {
    let w = &row[ww * WideWord::WORDS..][..WideWord::WORDS];
    !WideWord([w[0], w[1], w[2], w[3]])
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
        FatTreeRouter {
            meta,
            round: 0,
            core_group_alive: 0,
            border_ok: 0,
            agg_mask: vec![0; pods],
            agg_stamp: vec![0; pods],
            epoch: 0,
            wide: 0,
            memos: Vec::new(),
            stats: MemoStats::default(),
        }
    }

    #[inline]
    fn alive(states: &BitMatrix, c: ComponentId, round: usize) -> bool {
        !states.get(c.index(), round)
    }

    /// 256-lane "alive" mask of one component over the rounds of wide word
    /// `wide`: lane r set iff the component is alive in round 256·wide + r.
    /// Lanes beyond the matrix's round count are set (stored tail bits are
    /// zero = alive); callers mask final verdicts.
    #[inline]
    fn alive_wide(states: &BitMatrix, c: ComponentId, wide: usize) -> WideWord {
        !states.wide_word(c.index(), wide)
    }

    /// Makes `memos[memo]` hold `generation` of a matrix of `width` wide
    /// words per row — forgetting what it held under any other — with room
    /// for at least `rows` reach rows.
    fn memo_under(&mut self, memo: usize, generation: u64, width: usize, rows: usize) {
        if self.memos.len() <= memo {
            self.memos.resize_with(memo + 1, Memo::default);
        }
        let m = &mut self.memos[memo];
        let before = m.bytes();
        if m.generation != generation {
            m.restart(generation, width, &self.meta);
        }
        debug_assert_eq!(m.width, width, "a generation names one matrix");
        if m.rows.len() < rows {
            m.rows.resize(rows, EMPTY_ROW);
            m.reach.resize(rows * width, WideWord::ZERO);
            m.index.resize(INDEX, 0);
        }
        self.stats.bytes = self.stats.bytes + m.bytes() - before;
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
    /// border switch: the base cone) and, per host, the host itself, its
    /// edge switch and its pod's aggregation switches — the closed forms in
    /// the module docs mention nothing else.
    fn cone(
        &self,
        _components: usize,
        hosts: &mut dyn Iterator<Item = ComponentId>,
        out: &mut Vec<ComponentId>,
    ) {
        let m = &self.meta;
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
        if pods_seen == 0 {
            // No hosts: the base cone.
            out.extend((0..m.half * m.half).map(|i| ComponentId(m.core_base + i)));
            out.extend((0..m.half).map(|g| m.border(g)));
        }
    }

    /// Installs wide word `wide` of a matrix the router knows nothing
    /// about: `states` may have been overwritten since the last call, so
    /// the digests live in a one-word memo that is forgotten here.
    fn begin_wide(&mut self, _states: &BitMatrix, wide: usize) {
        let forgotten = self.memos.first().map_or(0, |m| m.generation) + 1;
        self.memo_under(0, forgotten, 1, 0);
        self.memos[0].base = wide;
        self.wide = wide;
    }

    /// Serves each host's reach from table slot `key.slot`'s memo. Rows
    /// never change under one generation, so whatever an earlier plan
    /// built under `key.generation` — a pod's digest, a host's whole row —
    /// is served as it is; only a host the slot's last few plans did not
    /// hold is derived, from its own row, its edge switch's and its pod's
    /// digest.
    fn external_reach_keyed(
        &mut self,
        states: &BitMatrix,
        key: TableKey,
        hosts: &[ComponentId],
        wides: usize,
        out: &mut [WideWord],
    ) {
        assert_eq!(out.len(), hosts.len() * wides, "one row of `wides` words per host");
        let width = states.wide_words_per_row();
        assert!(wides <= width, "more wide words than the matrix holds");
        let rows = (2 * hosts.len()).min(MAX_REACH_ROWS);
        self.memo_under(1 + key.slot, key.generation.get(), width, rows);
        let FatTreeRouter { memos, stats, meta, .. } = self;
        let m = &mut memos[1 + key.slot];
        m.call += 1;
        for (&host, out) in hosts.iter().zip(out.chunks_exact_mut(wides)) {
            debug_assert!(meta.is_host(host), "external_reach_keyed takes host ids");
            let row = m.row_of(host.0);
            m.rows[row].used = m.call;
            let built = m.rows[row].built as usize;
            if built < wides {
                let pos = meta.host_position(host);
                m.build_pod_ext(meta, states, pos.pod, wides, &mut stats.digests_built);
                let own = states.row_words(host.index());
                let edge = states.row_words(meta.edge(pos.pod, pos.edge).index());
                let ext = &m.pod_ext[pos.pod as usize * width..][..wides];
                let reach = &mut m.reach[row * width..][..wides];
                for ww in built..wides {
                    reach[ww] = alive_at(own, ww) & alive_at(edge, ww) & ext[ww];
                }
                m.rows[row].built = wides as u32;
                stats.reach_rows_built += 1;
            }
            out.copy_from_slice(&m.reach[row * width..][..wides]);
        }
    }

    fn memo_stats(&self) -> MemoStats {
        self.stats
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
        let unkeyed = &mut self.memos[0];
        unkeyed.build_pod_ext(&self.meta, states, pos.pod, 1, &mut self.stats.digests_built);
        Self::alive_wide(states, host, wide)
            & Self::alive_wide(states, self.meta.edge(pos.pod, pos.edge), wide)
            & unkeyed.pod_ext[pos.pod as usize]
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

    /// A matrix in which every bit fails with probability 1/12.
    fn random_states(t: &Topology, rounds: usize, seed: u64) -> BitMatrix {
        let mut states = BitMatrix::new(t.num_components(), rounds);
        let mut rng = recloud_sampling::Rng::new(seed);
        for c in 0..states.components() {
            for r in 0..rounds {
                if rng.next_below(12) == 0 {
                    states.set(c, r);
                }
            }
        }
        states
    }

    /// Every host's reach over every wide word of `s`: through the keyed
    /// call `plan` hosts at a time, or wide word by wide word unkeyed.
    fn ask(
        r: &mut FatTreeRouter,
        t: &Topology,
        s: &BitMatrix,
        key: Option<(TableKey, usize)>,
    ) -> Vec<WideWord> {
        let wides = s.wide_words_per_row();
        let mut out = vec![WideWord::ZERO; t.hosts().len() * wides];
        match key {
            Some((key, plan)) => {
                for (hosts, out) in t.hosts().chunks(plan).zip(out.chunks_mut(plan * wides)) {
                    r.external_reach_keyed(s, key, hosts, wides, out);
                }
            }
            None => {
                for ww in 0..wides {
                    r.begin_wide(s, ww);
                    for (i, &h) in t.hosts().iter().enumerate() {
                        out[i * wides + ww] = r.external_reach_wide(s, h, ww);
                    }
                }
            }
        }
        for row in out.chunks_mut(wides) {
            row.iter_mut().enumerate().for_each(|(ww, w)| *w &= s.wide_mask(ww));
        }
        out
    }

    /// What is kept is kept per (slot, generation) and only there. The
    /// plan-independent digests — one border row per wide word, one
    /// `pod_ext` per pod and wide word — are built once per generation
    /// whatever the plans; host reach rows are built when a host enters
    /// the slot's bounded set, so a repeat of the last plan builds nothing
    /// and a walk over more hosts than the set holds builds them again; a
    /// new generation or another slot derives its own; and the unkeyed
    /// call follows the matrix it is handed even when that changed since
    /// the last call. These assertions count what is *built*, never what
    /// is answered.
    #[test]
    fn keyed_wide_keeps_digests_per_generation_and_unkeyed_never_remembers() {
        let (t, _, _) = setup(4);
        let (a, b) = (random_states(&t, 300, 42), random_states(&t, 300, 43));
        let (hosts, wides) = (t.hosts().len() as u64, 2);
        let want_a = ask(&mut FatTreeRouter::new(&t), &t, &a, None);
        let want_b = ask(&mut FatTreeRouter::new(&t), &t, &b, None);
        assert_ne!(want_a, want_b);

        let mut r = FatTreeRouter::new(&t);
        assert_eq!(r.memo_stats(), MemoStats::default(), "nothing is kept before the first call");
        assert_eq!(ask(&mut r, &t, &a, None), want_a);
        assert_eq!(ask(&mut r, &t, &b, None), want_b, "unkeyed: same router, new contents");
        assert_eq!(r.memo_stats().reach_rows_built, 0, "unkeyed calls keep no host rows");

        let generation = |g| std::num::NonZeroU64::new(g).expect("nonzero");
        let key = TableKey { slot: 2, generation: generation(7) };
        let before = r.memo_stats();
        assert_eq!(ask(&mut r, &t, &a, Some((key, 4))), want_a);
        let first = r.memo_stats();
        // k = 4: per wide word one border row and three host pods.
        assert_eq!(first.digests_built - before.digests_built, wides * (1 + 3));
        assert_eq!(first.reach_rows_built, hosts, "every host entered the set once");
        // The same walk again: 4-host plans keep 8 rows, the fabric has 12
        // hosts, so every host left the set before it came back — all rows
        // are built again, and not one digest.
        assert_eq!(ask(&mut r, &t, &a, Some((key, 4))), want_a);
        let second = r.memo_stats();
        assert_eq!(second.digests_built, first.digests_built, "a held table builds no digest");
        assert_eq!(second.reach_rows_built, 2 * hosts);
        assert_eq!(second.bytes, first.bytes, "the set is bounded by the plan, not the walk");
        // The last plan again: served as it is.
        let last = &t.hosts()[t.hosts().len() - 4..];
        let mut out = vec![WideWord::ZERO; 4 * wides as usize];
        r.external_reach_keyed(&a, key, last, wides as usize, &mut out);
        assert_eq!(r.memo_stats(), second, "a repeat builds nothing");
        // A row first built for one wide word is extended for two.
        let fresh = TableKey { slot: 3, generation: generation(20) };
        r.external_reach_keyed(&a, fresh, last, 1, &mut out[..4]);
        r.external_reach_keyed(&a, fresh, last, 2, &mut out);
        let got: Vec<_> = out.iter().enumerate().map(|(i, w)| *w & a.wide_mask(i % 2)).collect();
        assert_eq!(got, want_a[want_a.len() - 8..], "extended rows");
        assert_eq!(r.memo_stats().reach_rows_built, second.reach_rows_built + 8);

        let built = r.memo_stats();
        let rekeyed = TableKey { generation: generation(8), ..key };
        assert_eq!(ask(&mut r, &t, &b, Some((rekeyed, 4))), want_b, "new generation, new contents");
        let again = r.memo_stats();
        assert_eq!(again.bytes, built.bytes, "same memory");
        assert_eq!(again.digests_built - built.digests_built, wides * (1 + 3), "built anew");
        let other = TableKey { slot: 0, generation: generation(9) };
        assert_eq!(ask(&mut r, &t, &a, Some((other, 4))), want_a);
        let built = r.memo_stats().digests_built;
        assert_eq!(ask(&mut r, &t, &b, Some((rekeyed, 4))), want_b, "slot 2 still holds 8");
        assert_eq!(r.memo_stats().digests_built, built);
        // A plan larger than the set can ever be is answered all the same.
        let many: Vec<ComponentId> = t.hosts().iter().cycle().take(100).copied().collect();
        let mut out = vec![WideWord::ZERO; 100 * wides as usize];
        r.external_reach_keyed(&b, rekeyed, &many, wides as usize, &mut out);
        for (i, row) in out.chunks(wides as usize).enumerate() {
            let at = (i % t.hosts().len()) * wides as usize;
            let got: Vec<_> = row.iter().enumerate().map(|(ww, w)| *w & b.wide_mask(ww)).collect();
            assert_eq!(got, want_b[at..at + wides as usize], "host {i} of 100");
        }
        let capped = r.memo_stats().bytes;
        r.external_reach_keyed(&b, rekeyed, &many, wides as usize, &mut out);
        assert_eq!(r.memo_stats().bytes, capped, "the set has a cap");
    }

    /// Every row the keyed call answers equals the unkeyed
    /// `external_reach_wide`, wide word by wide word: fat-trees with and
    /// without link components; walks of one-host moves over two slots
    /// that return to hosts the memo has since dropped; new generations,
    /// some over new contents; calls shorter and longer than the last under
    /// a generation; and plans with more hosts than the memo keeps rows.
    #[test]
    fn keyed_rows_equal_the_unkeyed_wide_path() {
        use recloud_sampling::prop_assert_eq;
        use recloud_sampling::proptest::forall;
        forall("keyed rows == external_reach_wide", |g| {
            let k = [4, 6, 8][g.usize_in(0..3)];
            let t = FatTreeParams::new(k).with_links(g.any_bool()).build();
            let hosts = t.hosts();
            let rounds = [1, 255, 257, 600][g.usize_in(0..4)];
            let tables: Vec<BitMatrix> =
                (0..3).map(|_| random_states(&t, rounds, g.any_u64())).collect();
            let width = tables[0].wide_words_per_row();
            let (mut r, mut reference) = (FatTreeRouter::new(&t), FatTreeRouter::new(&t));
            let mut out = Vec::new();
            let n = match g.usize_in(0..6) {
                0 => g.usize_in(MAX_REACH_ROWS..MAX_REACH_ROWS + 40),
                _ => g.usize_in(1..8),
            };
            let mut plan: Vec<ComponentId> =
                (0..n).map(|_| hosts[g.usize_in(0..hosts.len())]).collect();
            // Per slot: its generation and the table it names.
            let mut slots = [(1u64, 0usize), (2, 1)];
            let mut minted = 2;
            for step in 0..g.usize_in(1..40) {
                let slot = g.usize_in(0..2);
                if g.usize_in(0..5) == 0 {
                    minted += 1;
                    slots[slot] = (minted, g.usize_in(0..tables.len()));
                }
                let (generation, table) = slots[slot];
                let key =
                    TableKey { slot, generation: std::num::NonZeroU64::new(generation).unwrap() };
                let (s, wides) = (&tables[table], g.usize_in(1..width + 1));
                out.resize(n * wides, WideWord::ZERO);
                r.external_reach_keyed(s, key, &plan, wides, &mut out);
                for ww in 0..wides {
                    reference.begin_wide(s, ww);
                    for (&h, row) in plan.iter().zip(out.chunks_exact(wides)) {
                        let want = reference.external_reach_wide(s, h, ww) & s.wide_mask(ww);
                        let got = row[ww] & s.wide_mask(ww);
                        prop_assert_eq!(got, want, "step {step} host {h} wide word {ww}");
                    }
                }
                plan[g.usize_in(0..n)] = hosts[g.usize_in(0..hosts.len())];
            }
            Ok(())
        });
    }

    /// The provided `external_reach_keyed` is `begin_wide` +
    /// `external_reach_wide` per wide word, for routers that keep nothing.
    #[test]
    fn default_keyed_reach_is_the_unkeyed_wide_path() {
        let (t, _, _) = setup(4);
        let s = random_states(&t, 600, 7);
        let wides = s.wide_words_per_row();
        let key = TableKey { slot: 1, generation: std::num::NonZeroU64::new(3).expect("nonzero") };
        let routers: [Box<dyn Router>; 2] = [
            Box::new(crate::UpDownRouter::for_fat_tree(&t)),
            Box::new(crate::GenericRouter::new(&t)),
        ];
        for mut r in routers {
            let hosts: Vec<ComponentId> = t.hosts().iter().step_by(3).copied().collect();
            let mut got = vec![WideWord::ZERO; hosts.len() * wides];
            r.external_reach_keyed(&s, key, &hosts, wides, &mut got);
            for ww in 0..wides {
                r.begin_wide(&s, ww);
                for (i, &h) in hosts.iter().enumerate() {
                    let want = r.external_reach_wide(&s, h, ww) & s.wide_mask(ww);
                    assert_eq!(
                        got[i * wides + ww] & s.wide_mask(ww),
                        want,
                        "{} {h} {ww}",
                        r.name()
                    );
                }
            }
            assert_eq!(r.memo_stats(), MemoStats::default(), "{} keeps nothing", r.name());
        }
    }

    #[test]
    #[should_panic(expected = "requires a fat-tree")]
    fn rejects_non_fat_tree() {
        let t = recloud_topology::LeafSpineParams::new(2, 2, 2).build();
        FatTreeRouter::new(&t);
    }
}
