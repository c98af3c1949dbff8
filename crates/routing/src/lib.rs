#![warn(missing_docs)]

//! # recloud-routing
//!
//! The "route-and-check" step of reliability assessment (§3.2.1, Fig 2):
//! given the *effective* (fault-tree-collapsed) failure states of one
//! sampling round, decide which application hosts are reachable from the
//! border switches and which host pairs can reach each other.
//!
//! Three routers implement the [`Router`] trait:
//!
//! * [`fattree::FatTreeRouter`] — an analytic emulation of fat-tree
//!   up/down (valley-free) routing: per round it digests the switch tiers
//!   into core-group / border / per-pod aggregation masks, after which
//!   every reachability query is O(1) bit algebra. This is what makes
//!   10⁴-round assessment of a 27K-host data center take milliseconds.
//! * [`updown::UpDownRouter`] — protocol-faithful valley-free BFS driven
//!   by a hierarchy-level function. Same verdicts as the analytic router
//!   (property-tested against it), works on any leveled topology; used as
//!   the reference implementation and for leveled non-fat-tree fabrics.
//! * [`generic::GenericRouter`] — plain BFS over the alive subgraph:
//!   *physical* reachability, an upper bound on what any routing protocol
//!   can deliver. This is the right model for topologies routed by
//!   shortest-path/ECMP over arbitrary graphs (e.g. Jellyfish), and it
//!   honors per-cable link components.
//!
//! Swapping routers is the paper's "to work with another architecture,
//! only change this step's routing protocol" (§3.2.1). Per-round *context
//! setup* is an explicit step ([`Router::begin_round`]) because §4.2.3
//! attributes most of the per-plan cost to it.

pub mod explain;
pub mod fattree;
pub mod generic;
pub mod updown;

pub use explain::{explain_unreachable, Unreachable};
pub use fattree::FatTreeRouter;
pub use generic::GenericRouter;
pub use updown::UpDownRouter;

use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, Topology, TopologyKind};
use std::num::NonZeroU64;

/// Reachability oracle for one sampling round — or, through the word and
/// wide APIs, for 64 or 256 rounds at a time.
///
/// Scalar protocol: call [`Router::begin_round`] with the collapsed state
/// matrix and a round index, then issue queries *against the same matrix
/// and round*. The matrix is passed by reference on every call so routers
/// can read states lazily without copying a 30K-component column per round.
///
/// Word protocol (the bit-sliced kernel): call [`Router::begin_word`] with
/// a word index `w`, then issue [`Router::external_reach_word`] /
/// [`Router::connects_word`] queries for the same `(states, w)`. Bit `r`
/// of a result word is the verdict for round `64·w + r`, bit-identical to
/// the scalar query on that round. Bits beyond the matrix's round count
/// are unspecified — callers mask with [`BitMatrix::word_mask`].
///
/// Wide protocol (the 256-lane kernel): call [`Router::begin_wide`] with a
/// wide-word index `ww`, then issue [`Router::external_reach_wide`] queries
/// for the same `(states, ww)`. Lane `r` of a result wide word is the
/// verdict for round `256·ww + r`. The default implementation decomposes a
/// wide word into its four 64-round subwords through the word API, so
/// every router gets the wide API for free and the 64-bit path remains the
/// degenerate width. There is no wide `connects`: structures with
/// cross-component requirements are checked through the word protocol.
///
/// Keyed protocol (a chunk at a time): when `states` is a slot of a
/// failure-state table, [`Router::external_reach_keyed`] answers a whole
/// plan's hosts over all of the chunk's wide words in one call, and names
/// the table's contents so a router may keep what it derived from them.
/// It needs no `begin_*` call.
///
/// All protocols share router scratch: interleaving them is allowed only by
/// re-issuing the relevant `begin_*` call first.
pub trait Router {
    /// Installs the failure states of one round (the per-round context
    /// setup). `states` must be the *collapsed* matrix: one row per
    /// topology component, correlated failures already folded in.
    fn begin_round(&mut self, states: &BitMatrix, round: usize);

    /// True if `host` is alive and reachable from any border switch that
    /// itself peers with the external world (Fig 2's definition of an
    /// alive instance).
    fn external_reaches(&mut self, states: &BitMatrix, host: ComponentId) -> bool;

    /// True if alive hosts `a` and `b` can reach each other through alive
    /// network components (Fig 6's cross-component connectivity check).
    /// `connects(h, h)` is true iff `h` itself is alive.
    fn connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool;

    /// Human-readable router name for reports.
    fn name(&self) -> &'static str;

    /// The *cone* of a set of hosts: appends to `out` a superset of every
    /// row of a `components`-row state matrix that `begin_round`/`_word`/
    /// `_wide` and the `external_reach*`/`connects*` queries may read while
    /// all queried hosts are among `hosts`. Verdicts about
    /// those hosts are a function of the cone's rows alone, so a caller
    /// may leave every other row unsampled. Repeats are allowed. (The
    /// `screen_*` masks may read any row: stale rows only make them more
    /// conservative.)
    ///
    /// The rows named for no hosts at all — what the router reads whatever
    /// is asked — come first in every cone, so a caller can check that
    /// prefix once and only each plan's remainder afterwards.
    ///
    /// The default names every row, which is correct for any router.
    fn cone(
        &self,
        components: usize,
        _hosts: &mut dyn Iterator<Item = ComponentId>,
        out: &mut Vec<ComponentId>,
    ) {
        out.extend((0..components).map(ComponentId::from_index));
    }

    /// Installs the context for the 64 rounds of word `word` (the batched
    /// analogue of [`Router::begin_round`]). The default is a no-op:
    /// fallback word implementations re-derive any scalar context they
    /// need per round.
    fn begin_word(&mut self, _states: &BitMatrix, _word: usize) {}

    /// True when the word queries are answered natively in O(1) bit
    /// algebra rather than by a per-round fallback loop. Batched callers
    /// use this to decide between host-major word queries (native) and
    /// round-major screening (fallback).
    fn word_native(&self) -> bool {
        false
    }

    /// Screen mask for word `word`: bit r **clear** proves that round
    /// `64·w + r`'s verdicts equal the all-alive baseline, so the round
    /// can skip routing entirely. The default — OR of every component row,
    /// i.e. "anything failed at all" — is correct for every router because
    /// verdicts are a pure function of the round's states.
    fn screen_word(&mut self, states: &BitMatrix, word: usize) -> u64 {
        states.any_failed_word(word)
    }

    /// All-alive-world verdict of [`Router::external_reaches`] — what a
    /// screened-out (clean) round resolves to. The default derives it from
    /// a 1-round all-alive matrix through the scalar path; routers
    /// override to serve it from a topology-static cache. Clobbers scalar
    /// per-round context.
    fn baseline_external(&mut self, states: &BitMatrix, host: ComponentId) -> bool {
        let alive = BitMatrix::new(states.components(), 1);
        self.begin_round(&alive, 0);
        self.external_reaches(&alive, host)
    }

    /// All-alive-world verdict of [`Router::connects`]; same contract as
    /// [`Router::baseline_external`].
    fn baseline_connects(&mut self, states: &BitMatrix, a: ComponentId, b: ComponentId) -> bool {
        let alive = BitMatrix::new(states.components(), 1);
        self.begin_round(&alive, 0);
        self.connects(&alive, a, b)
    }

    /// 64-round batched [`Router::external_reaches`]: bit r of the result
    /// is the verdict for round `64·word + r`. The default falls back to
    /// the scalar query on the set bits of the screen mask — clean rounds
    /// shortcut to the all-alive verdict without any routing. Clobbers
    /// scalar per-round context.
    fn external_reach_word(&mut self, states: &BitMatrix, host: ComponentId, word: usize) -> u64 {
        let valid = states.word_mask(word);
        let screen = self.screen_word(states, word) & valid;
        let mut out = 0u64;
        if screen != valid && self.baseline_external(states, host) {
            out = valid & !screen;
        }
        let mut dirty = screen;
        while dirty != 0 {
            let r = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            self.begin_round(states, word * 64 + r);
            if self.external_reaches(states, host) {
                out |= 1 << r;
            }
        }
        out
    }

    /// 64-round batched [`Router::connects`]; same contract and default
    /// strategy as [`Router::external_reach_word`].
    fn connects_word(
        &mut self,
        states: &BitMatrix,
        a: ComponentId,
        b: ComponentId,
        word: usize,
    ) -> u64 {
        let valid = states.word_mask(word);
        let screen = self.screen_word(states, word) & valid;
        let mut out = 0u64;
        if screen != valid && self.baseline_connects(states, a, b) {
            out = valid & !screen;
        }
        let mut dirty = screen;
        while dirty != 0 {
            let r = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            self.begin_round(states, word * 64 + r);
            if self.connects(states, a, b) {
                out |= 1 << r;
            }
        }
        out
    }

    /// Installs the context for the 256 rounds of wide word `wide` (the
    /// 256-lane analogue of [`Router::begin_word`]). The default is a
    /// no-op: the fallback wide queries re-issue [`Router::begin_word`]
    /// per 64-round subword.
    fn begin_wide(&mut self, _states: &BitMatrix, _wide: usize) {}

    /// [`Router::external_reach_wide`] for a matrix with an identity, a
    /// chunk at a time: `states` is slot `key.slot` of a failure-state
    /// table, and for every `i` and every `ww < wides` the call sets
    /// `out[i · wides + ww]` to `hosts[i]`'s reach over wide word `ww` —
    /// what [`Router::begin_wide`] + [`Router::external_reach_wide`] answer
    /// for `(states, hosts[i], ww)`, which is the default.
    ///
    /// Every row the router may read for the hosts it is asked about (their
    /// [`Router::cone`]) holds the same bits whenever the same `key` is
    /// presented again, up to the round count the table holds under it. A
    /// router may therefore keep, per slot, anything it derives from those
    /// rows — a host's whole answer included — and serve it to later plans
    /// under the same generation; under any other generation it must
    /// derive it anew. What it keeps must be bounded by the plans it is
    /// shown (`hosts.len()`), not by how many hosts it has been asked about
    /// over time. The unkeyed calls promise nothing about `states` and
    /// must not remember.
    ///
    /// Clobbers the wide context: re-issue [`Router::begin_wide`] before
    /// the next [`Router::external_reach_wide`].
    fn external_reach_keyed(
        &mut self,
        states: &BitMatrix,
        _key: TableKey,
        hosts: &[ComponentId],
        wides: usize,
        out: &mut [WideWord],
    ) {
        assert_eq!(out.len(), hosts.len() * wides, "one row of `wides` words per host");
        for ww in 0..wides {
            self.begin_wide(states, ww);
            for (i, &host) in hosts.iter().enumerate() {
                out[i * wides + ww] = self.external_reach_wide(states, host, ww);
            }
        }
    }

    /// What the router keeps for [`Router::external_reach_keyed`]. The
    /// default keeps nothing.
    fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// True when the wide queries are answered natively in 256-lane bit
    /// algebra rather than by the word-decomposition default.
    fn wide_native(&self) -> bool {
        false
    }

    /// Screen mask for wide word `wide` — the 256-lane analogue of
    /// [`Router::screen_word`]: a clear lane proves the round equals the
    /// all-alive baseline.
    fn screen_wide(&mut self, states: &BitMatrix, wide: usize) -> WideWord {
        states.any_failed_wide(wide)
    }

    /// 256-round batched [`Router::external_reaches`]: lane r of the
    /// result is the verdict for round `256·wide + r`. The default
    /// assembles the four 64-round subwords through the word API
    /// (re-issuing [`Router::begin_word`] per subword); alignment-padding
    /// subwords contribute zero lanes. Lanes beyond the round count are
    /// unspecified — callers mask with [`BitMatrix::wide_mask`].
    fn external_reach_wide(
        &mut self,
        states: &BitMatrix,
        host: ComponentId,
        wide: usize,
    ) -> WideWord {
        let mut out = WideWord::ZERO;
        for i in 0..WideWord::WORDS {
            let w = wide * WideWord::WORDS + i;
            if states.rounds_in_word(w) == 0 {
                break;
            }
            self.begin_word(states, w);
            out.set_word(i, self.external_reach_word(states, host, w));
        }
        out
    }
}

/// What a router keeps between [`Router::external_reach_keyed`] calls, and
/// how much it has derived so far. The two counts only grow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Bytes held.
    pub bytes: usize,
    /// Plan-independent digests derived from table rows. Stands still
    /// while plans are served from one table generation.
    pub digests_built: u64,
    /// Per-host reach rows derived (or extended to more wide words). A
    /// one-host move on a held table adds one per slot; a plan unrelated
    /// to the last one, or larger than the router's bound, adds one per
    /// host per slot.
    pub reach_rows_built: u64,
}

/// Names the contents of one slot of a failure-state table for
/// [`Router::external_reach_keyed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableKey {
    /// The slot within its table (tables hold a bounded number of them).
    pub slot: usize,
    /// Minted anew whenever the slot's rows may no longer be what they
    /// were — on every re-key to another seed or round count, which is
    /// also the first thing to happen after an invalidation — and never
    /// reused within the process.
    pub generation: NonZeroU64,
}

/// Picks the best router for a topology: analytic for fat-trees, generic
/// BFS for everything else.
pub fn make_router(topology: &Topology) -> Box<dyn Router + Send> {
    match topology.topology_kind() {
        TopologyKind::FatTree(_) => Box::new(FatTreeRouter::new(topology)),
        _ => Box::new(GenericRouter::new(topology)),
    }
}

#[cfg(test)]
mod agreement_tests {
    use super::*;
    use recloud_sampling::{ExtendedDaggerSampler, Rng, Sampler};
    use recloud_topology::{ComponentKind, FatTreeParams};

    fn random_states(t: &Topology, rounds: usize, p: f64, seed: u64) -> BitMatrix {
        let mut states = BitMatrix::new(t.num_components(), rounds);
        let probs: Vec<f64> = t
            .components()
            .iter()
            .map(|c| if c.kind == ComponentKind::External { 0.0 } else { p })
            .collect();
        ExtendedDaggerSampler::seeded(seed).sample_into(&probs, &mut states);
        states
    }

    /// The analytic router must agree with the valley-free reference BFS
    /// on every query — the key cross-validation of the analytic shortcut.
    #[test]
    fn analytic_agrees_with_updown_reference() {
        let t = FatTreeParams::new(6).build();
        let rounds = 400;
        let states = random_states(&t, rounds, 0.12, 77);
        let mut fast = FatTreeRouter::new(&t);
        let mut reference = UpDownRouter::for_fat_tree(&t);
        let mut rng = Rng::new(5);
        let hosts = t.hosts();
        for round in 0..rounds {
            fast.begin_round(&states, round);
            reference.begin_round(&states, round);
            for _ in 0..10 {
                let h = hosts[rng.next_below(hosts.len())];
                assert_eq!(
                    fast.external_reaches(&states, h),
                    reference.external_reaches(&states, h),
                    "round {round} host {h}"
                );
                let h2 = hosts[rng.next_below(hosts.len())];
                assert_eq!(
                    fast.connects(&states, h, h2),
                    reference.connects(&states, h, h2),
                    "round {round} pair {h}-{h2}"
                );
            }
        }
    }

    /// Physical reachability (generic BFS) upper-bounds valley-free
    /// reachability: whenever the protocol router says reachable, so must
    /// the physical one.
    #[test]
    fn physical_reachability_upper_bounds_protocol() {
        let t = FatTreeParams::new(4).build();
        let rounds = 300;
        let states = random_states(&t, rounds, 0.2, 13);
        let mut fast = FatTreeRouter::new(&t);
        let mut phys = GenericRouter::new(&t);
        for round in 0..rounds {
            fast.begin_round(&states, round);
            phys.begin_round(&states, round);
            for &h in t.hosts() {
                if fast.external_reaches(&states, h) {
                    assert!(phys.external_reaches(&states, h), "round {round} host {h}");
                }
            }
        }
    }

    /// Every router's word API must agree bit-for-bit with its own scalar
    /// verdicts — native bit algebra (analytic) and screened fallback
    /// (reference BFS routers) alike — including on a ragged tail word.
    #[test]
    fn word_api_agrees_with_scalar_for_every_router() {
        let t = FatTreeParams::new(4).build();
        let rounds = 150; // 2 full words + a 22-round tail
        let states = random_states(&t, rounds, 0.08, 3);
        let hosts = t.hosts();
        let probes: Vec<_> = hosts.iter().step_by(5).copied().collect();
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(FatTreeRouter::new(&t)),
            Box::new(UpDownRouter::for_fat_tree(&t)),
            Box::new(GenericRouter::new(&t)),
        ];
        for mut r in routers {
            let name = r.name();
            for w in 0..rounds.div_ceil(64) {
                let valid = states.word_mask(w);
                r.begin_word(&states, w);
                let reach: Vec<u64> =
                    probes.iter().map(|&h| r.external_reach_word(&states, h, w)).collect();
                r.begin_word(&states, w);
                let conn: Vec<u64> =
                    probes.iter().map(|&h| r.connects_word(&states, probes[0], h, w)).collect();
                for bit in 0..states.rounds_in_word(w) {
                    let round = w * 64 + bit;
                    r.begin_round(&states, round);
                    for (i, &h) in probes.iter().enumerate() {
                        assert_eq!(
                            (reach[i] >> bit) & 1 == 1,
                            r.external_reaches(&states, h),
                            "{name}: external round {round} host {h}"
                        );
                        assert_eq!(
                            (conn[i] >> bit) & 1 == 1,
                            r.connects(&states, probes[0], h),
                            "{name}: connects round {round} host {h}"
                        );
                    }
                }
                // Valid-bit masking must be harmless (callers mask anyway).
                for m in &reach {
                    let _ = m & valid;
                }
            }
        }
    }

    /// Every router's wide API must agree lane-for-lane with its own word
    /// verdicts — native 256-lane algebra (analytic) and the
    /// word-decomposition default (reference BFS routers) alike — across a
    /// full wide word plus a ragged tail. (`connects` has no wide form;
    /// `word_api_agrees_with_scalar_for_every_router` covers its words.)
    #[test]
    fn wide_api_agrees_with_word_for_every_router() {
        let t = FatTreeParams::new(4).build();
        let rounds = 300; // 1 full wide word + a 44-round tail
        let states = random_states(&t, rounds, 0.08, 21);
        let hosts = t.hosts();
        let probes: Vec<_> = hosts.iter().step_by(5).copied().collect();
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(FatTreeRouter::new(&t)),
            Box::new(UpDownRouter::for_fat_tree(&t)),
            Box::new(GenericRouter::new(&t)),
        ];
        for mut r in routers {
            let name = r.name();
            for ww in 0..states.wide_words_per_row() {
                let mask = states.wide_mask(ww);
                r.begin_wide(&states, ww);
                let screen = r.screen_wide(&states, ww);
                let reach: Vec<WideWord> =
                    probes.iter().map(|&h| r.external_reach_wide(&states, h, ww) & mask).collect();
                for i in 0..WideWord::WORDS {
                    let w = ww * WideWord::WORDS + i;
                    let wmask = states.word_mask(w);
                    assert_eq!(screen.word(i), states.any_failed_word(w), "{name}: screen");
                    r.begin_word(&states, w);
                    for (j, &h) in probes.iter().enumerate() {
                        assert_eq!(
                            reach[j].word(i),
                            r.external_reach_word(&states, h, w) & wmask,
                            "{name}: external ww={ww} sub={i} host {h}"
                        );
                    }
                }
            }
        }
    }

    /// The cone contract: with every row outside the declared cone forced
    /// failed, every protocol still returns the verdicts of the true
    /// matrix for queries about the cone's hosts.
    #[test]
    fn verdicts_depend_on_cone_rows_only() {
        let t = FatTreeParams::new(6).build();
        let rounds = 300;
        let states = random_states(&t, rounds, 0.15, 41);
        let m = t.fat_tree().unwrap();
        // Pairs under one edge switch, in one pod, and across pods.
        let hosts = [m.host(0, 0, 0), m.host(0, 0, 1), m.host(0, 1, 0), m.host(3, 2, 1)];
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(FatTreeRouter::new(&t)),
            Box::new(UpDownRouter::for_fat_tree(&t)),
            Box::new(GenericRouter::new(&t)),
        ];
        for mut r in routers {
            let name = r.name();
            let mut cone = Vec::new();
            r.cone(t.num_components(), &mut hosts.iter().copied(), &mut cone);
            let mut poisoned = BitMatrix::new(t.num_components(), rounds);
            for c in 0..t.num_components() {
                poisoned.row_words_mut(c).fill(!0);
            }
            for c in &cone {
                poisoned.row_words_mut(c.index()).copy_from_slice(states.row_words(c.index()));
            }
            if name == "fat-tree-analytic" {
                assert!(cone.len() < t.num_components() / 2, "analytic cone is narrow");
            }
            for ww in 0..states.wide_words_per_row() {
                let mask = states.wide_mask(ww);
                let mut ask = |m: &BitMatrix| -> Vec<WideWord> {
                    r.begin_wide(m, ww);
                    hosts.iter().map(|&h| r.external_reach_wide(m, h, ww) & mask).collect()
                };
                assert_eq!(ask(&states), ask(&poisoned), "{name}: wide word {ww}");
            }
            for w in 0..rounds.div_ceil(64) {
                let mask = states.word_mask(w);
                let mut ask = |m: &BitMatrix| -> Vec<u64> {
                    r.begin_word(m, w);
                    let mut out: Vec<u64> =
                        hosts.iter().map(|&h| r.external_reach_word(m, h, w) & mask).collect();
                    r.begin_word(m, w);
                    for &a in &hosts {
                        for &b in &hosts {
                            out.push(r.connects_word(m, a, b, w) & mask);
                        }
                    }
                    out
                };
                assert_eq!(ask(&states), ask(&poisoned), "{name}: word {w}");
            }
            for round in (0..rounds).step_by(7) {
                let mut ask = |m: &BitMatrix| -> Vec<bool> {
                    r.begin_round(m, round);
                    let mut out: Vec<bool> =
                        hosts.iter().map(|&h| r.external_reaches(m, h)).collect();
                    for &a in &hosts {
                        for &b in &hosts {
                            out.push(r.connects(m, a, b));
                        }
                    }
                    out
                };
                assert_eq!(ask(&states), ask(&poisoned), "{name}: round {round}");
            }
        }
    }

    #[test]
    fn only_analytic_router_is_wide_native() {
        let t = FatTreeParams::new(4).build();
        assert!(FatTreeRouter::new(&t).wide_native());
        assert!(!UpDownRouter::for_fat_tree(&t).wide_native());
        assert!(!GenericRouter::new(&t).wide_native());
    }

    /// The screen mask may only clear a bit when the round is genuinely
    /// all-alive; set bits are allowed to be conservative.
    #[test]
    fn screen_word_is_sound() {
        let t = FatTreeParams::new(4).build();
        let rounds = 100;
        let states = random_states(&t, rounds, 0.02, 9);
        let mut r = GenericRouter::new(&t);
        for w in 0..rounds.div_ceil(64) {
            let screen = r.screen_word(&states, w);
            for bit in 0..states.rounds_in_word(w) {
                if (screen >> bit) & 1 == 0 {
                    let round = w * 64 + bit;
                    for c in 0..states.components() {
                        assert!(!states.get(c, round), "clean round {round} has a failure");
                    }
                }
            }
        }
    }

    #[test]
    fn only_analytic_router_is_word_native() {
        let t = FatTreeParams::new(4).build();
        assert!(FatTreeRouter::new(&t).word_native());
        assert!(!UpDownRouter::for_fat_tree(&t).word_native());
        assert!(!GenericRouter::new(&t).word_native());
    }

    #[test]
    fn make_router_picks_analytic_for_fat_tree() {
        let t = FatTreeParams::new(4).build();
        assert_eq!(make_router(&t).name(), "fat-tree-analytic");
        let ls = recloud_topology::LeafSpineParams::new(2, 2, 2).build();
        assert_eq!(make_router(&ls).name(), "generic-bfs");
    }
}
