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
//! only change this step's routing protocol" (§3.2.1). The trait has two
//! widths and no more. The *scalar* protocol — [`Router::begin_round`],
//! then [`Router::external_reaches`] / [`Router::connects`] about that
//! round — is the reference, and all a new router must write; per-round
//! *context setup* is its own step because §4.2.3 attributes most of the
//! per-plan cost to it. The *wide* protocol — [`Router::begin_wide`] +
//! [`Router::external_reach_wide`], 256 rounds per answer — is provided as
//! a loop over the scalar one and overridden by the analytic router with
//! closed-form masks. [`Router::external_reach_keyed`] is the wide
//! protocol a chunk at a time over a table whose contents have a name,
//! which is what lets a router keep what it derived; it is the kernel
//! every K-of-N assessment runs through, answered by the analytic router
//! from its masks and by the BFS router with a 256-lane flood.

pub mod fattree;
pub mod generic;
pub mod updown;

pub use fattree::FatTreeRouter;
pub use generic::GenericRouter;
pub use updown::UpDownRouter;

use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, Topology, TopologyKind};
use std::num::NonZeroU64;

/// Reachability oracle in two widths: one sampling round at a time (the
/// reference), or 256 rounds at a time (the kernel).
///
/// Scalar protocol: call [`Router::begin_round`] with the collapsed state
/// matrix and a round index, then issue queries *against the same matrix
/// and round*. The matrix is passed by reference on every call so routers
/// can read states lazily without copying a 30K-component column per round.
/// This is all a new router has to write; it is also the only protocol
/// with a `connects`, so structures with cross-component requirements are
/// always checked a round at a time.
///
/// Wide protocol (the 256-lane kernel): call [`Router::begin_wide`] with a
/// wide-word index `ww`, then issue [`Router::external_reach_wide`] queries
/// for the same `(states, ww)`. Lane `r` of a result wide word is the
/// verdict for round `256·ww + r`, bit-identical to the scalar query on
/// that round. Lanes beyond the matrix's round count are unspecified —
/// callers mask with [`BitMatrix::wide_mask`]. The provided implementation
/// loops the scalar protocol over the lanes; a router that answers in
/// 256-lane bit algebra overrides it.
///
/// Keyed protocol (the wide one, a chunk at a time): when `states` is a
/// slot of a failure-state table, [`Router::external_reach_keyed`] answers
/// a whole plan's hosts over all of the chunk's wide words in one call, and
/// names the table's contents so a router may keep what it derived from
/// them. It needs no `begin_*` call.
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

    /// The *cone* of a set of hosts, appended to `out` (repeats allowed):
    /// with no hosts, the *base cone*, the rows of a `components`-row state
    /// matrix the router reads whatever is asked; with hosts, only what they
    /// add to it. While all queried hosts are among `hosts`, no `begin_*`,
    /// `external_reach*` or `connects` call reads outside the two, so a
    /// caller may leave every other row unsampled. The default names every
    /// row as the base cone, correct for any router, and nothing for hosts.
    fn cone(
        &self,
        components: usize,
        hosts: &mut dyn Iterator<Item = ComponentId>,
        out: &mut Vec<ComponentId>,
    ) {
        if hosts.next().is_none() {
            out.extend((0..components).map(ComponentId::from_index));
        }
    }

    /// Installs the context for the 256 rounds of wide word `wide` (the
    /// batched analogue of [`Router::begin_round`]). The default is a
    /// no-op: the provided [`Router::external_reach_wide`] re-issues
    /// [`Router::begin_round`] per lane.
    fn begin_wide(&mut self, _states: &BitMatrix, _wide: usize) {}

    /// [`Router::external_reach_wide`] for a matrix with an identity, a
    /// chunk at a time: `states` is slot `key.slot` of a failure-state
    /// table, and for every `i` and every `ww < wides` the call sets
    /// `out[i · wides + ww]` to `hosts[i]`'s reach over wide word `ww` —
    /// what [`Router::begin_wide`] + [`Router::external_reach_wide`] answer
    /// for `(states, hosts[i], ww)`, which is the default.
    ///
    /// Every row the router may read for the hosts it is asked about (the
    /// base [`Router::cone`] and theirs) holds the same bits whenever the
    /// same `key` is presented again, up to the round count it holds. A
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

    /// 256-round batched [`Router::external_reaches`]: lane r of the
    /// result is the verdict for round `256·wide + r`. The default is the
    /// reference: [`Router::begin_round`] + [`Router::external_reaches`]
    /// on every lane the matrix has, so it clobbers the scalar context.
    /// Lanes beyond the round count are unspecified — callers mask with
    /// [`BitMatrix::wide_mask`].
    fn external_reach_wide(
        &mut self,
        states: &BitMatrix,
        host: ComponentId,
        wide: usize,
    ) -> WideWord {
        let mut out = WideWord::ZERO;
        for lane in 0..states.rounds_in_wide(wide) {
            self.begin_round(states, wide * WideWord::LANES + lane);
            if self.external_reaches(states, host) {
                out.set_word(lane / 64, out.word(lane / 64) | 1 << (lane % 64));
            }
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

    fn every_router(t: &Topology) -> Vec<Box<dyn Router>> {
        vec![
            Box::new(FatTreeRouter::new(t)),
            Box::new(UpDownRouter::for_fat_tree(t)),
            Box::new(GenericRouter::new(t)),
        ]
    }

    /// Every router's wide API must agree lane for lane with its own
    /// scalar verdicts — native 256-lane algebra (analytic) and the
    /// provided lane loop (reference BFS routers) alike — at every round
    /// count around the 64- and 256-lane boundaries. The second matrix
    /// stages one failure per lane region on an otherwise healthy fabric:
    /// each must cut exactly its own lane, on either side of a wide-word
    /// boundary.
    #[test]
    fn wide_api_agrees_with_scalar_for_every_router() {
        let t = FatTreeParams::new(4).build();
        let m = *t.fat_tree().unwrap();
        let probes: Vec<_> = t.hosts().iter().step_by(5).copied().collect();
        let h = probes[0];
        assert_eq!(h, m.host(0, 0, 0));
        for rounds in [1usize, 63, 64, 65, 255, 256, 257, 300] {
            let mut staged = BitMatrix::new(t.num_components(), rounds);
            // The host's edge, all of its pod's aggs, core group 0 with
            // group 1's border, and the host itself (twice).
            let cuts: [(usize, Vec<ComponentId>); 5] = [
                (0, vec![m.edge(0, 0)]),
                (65, (0..m.half).map(|g| m.agg(0, g)).collect()),
                (130, (0..m.half).map(|j| m.core(0, j)).chain([m.border(1)]).collect()),
                (200, vec![h]),
                (256, vec![h]),
            ];
            let mut cut_lanes = Vec::new();
            for (round, components) in &cuts {
                if *round < rounds {
                    components.iter().for_each(|c| staged.set(c.index(), *round));
                    cut_lanes.push(*round);
                }
            }
            let random = random_states(&t, rounds, 0.08, 3);
            for (is_staged, states) in [(false, random), (true, staged)] {
                for mut r in every_router(&t) {
                    let name = r.name();
                    for ww in 0..states.wide_words_per_row() {
                        r.begin_wide(&states, ww);
                        let reach: Vec<WideWord> =
                            probes.iter().map(|&p| r.external_reach_wide(&states, p, ww)).collect();
                        for lane in 0..states.rounds_in_wide(ww) {
                            let round = ww * WideWord::LANES + lane;
                            r.begin_round(&states, round);
                            for (i, &p) in probes.iter().enumerate() {
                                assert_eq!(
                                    reach[i].bit(lane),
                                    r.external_reaches(&states, p),
                                    "{name}: {rounds} rounds, round {round}, host {p}"
                                );
                            }
                            if is_staged {
                                let cut = cut_lanes.contains(&round);
                                assert_eq!(reach[0].bit(lane), !cut, "{name}: staged {round}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The cone contract: with every row outside the declared cone forced
    /// failed, every protocol — scalar, unkeyed wide and keyed — still
    /// returns the verdicts of the true matrix for queries about the cone's
    /// hosts.
    #[test]
    fn verdicts_depend_on_cone_rows_only() {
        let t = FatTreeParams::new(6).build();
        let rounds = 300;
        let states = random_states(&t, rounds, 0.15, 41);
        let wides = states.wide_words_per_row();
        let m = t.fat_tree().unwrap();
        // Pairs under one edge switch, in one pod, and across pods.
        let hosts = [m.host(0, 0, 0), m.host(0, 0, 1), m.host(0, 1, 0), m.host(3, 2, 1)];
        for mut r in every_router(&t) {
            let name = r.name();
            let mut cone = Vec::new();
            r.cone(t.num_components(), &mut std::iter::empty(), &mut cone);
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
            for ww in 0..wides {
                let mask = states.wide_mask(ww);
                let mut ask = |m: &BitMatrix| -> Vec<WideWord> {
                    r.begin_wide(m, ww);
                    hosts.iter().map(|&h| r.external_reach_wide(m, h, ww) & mask).collect()
                };
                assert_eq!(ask(&states), ask(&poisoned), "{name}: wide word {ww}");
            }
            // Two matrices, two generations: the second call must read the
            // poisoned rows rather than serve what it kept of the first.
            let mut ask_keyed = |m: &BitMatrix, generation: u64| -> Vec<WideWord> {
                let key = TableKey { slot: 0, generation: NonZeroU64::new(generation).unwrap() };
                let mut out = vec![WideWord::ZERO; hosts.len() * wides];
                r.external_reach_keyed(m, key, &hosts, wides, &mut out);
                out.iter().enumerate().map(|(i, w)| *w & m.wide_mask(i % wides)).collect()
            };
            assert_eq!(ask_keyed(&states, 1), ask_keyed(&poisoned, 2), "{name}: keyed");
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
    fn make_router_picks_analytic_for_fat_tree() {
        let t = FatTreeParams::new(4).build();
        assert_eq!(make_router(&t).name(), "fat-tree-analytic");
        let ls = recloud_topology::LeafSpineParams::new(2, 2, 2).build();
        assert_eq!(make_router(&ls).name(), "generic-bfs");
    }
}
