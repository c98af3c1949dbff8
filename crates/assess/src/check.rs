//! Per-round structure checking (§3.2.1 Fig 2, §3.2.4 Fig 6).
//!
//! Given one round's effective failure states and a reachability oracle,
//! decide whether the deployment plan is *reliable in this round*:
//!
//! * **K-of-N** (single component, external requirement): at least K of
//!   the N instance hosts are alive and reachable from a border switch.
//! * **Complex structures**: the requirement graph may reference other
//!   components ("at least K_{Ci,Cj} instances of Ci reachable from Cj").
//!   We compute each component's *active* instance set — alive instances
//!   reachable from at least one active instance of every component they
//!   depend on (Fig 6: a database only counts when reached from a frontend
//!   that is itself border-reachable) — as a greatest fixpoint, which on
//!   DAGs reduces to plain layer-order evaluation and also gives cyclic
//!   microservice meshes a well-defined "mutually supporting set"
//!   semantics. A requirement `(Ci, Cj, k)` then holds when at least `k`
//!   alive instances of Ci are reachable from Cj's active set.
//!
//! K-of-N is the one-component case of the fixpoint, and the one scalar
//! checker ([`StructureChecker::round_reliable`]) answers it as such. The
//! 256-lane paths answer it as a bit-sliced count over the hosts' reach
//! words, with one counting kernel for a chunk and for a wide word alike.
//!
//! The checker owns per-plan scratch and never allocates per round.

use recloud_apps::{ApplicationSpec, Connectivity, DeploymentPlan, Source};
use recloud_routing::{Router, TableKey};
use recloud_sampling::{BitMatrix, ResultAccumulator, WideWord};
use recloud_topology::ComponentId;

/// Reusable per-plan round checker.
pub struct StructureChecker {
    /// Flattened instance hosts per component.
    hosts: Vec<Vec<ComponentId>>,
    requirements: Vec<Connectivity>,
    /// `Some(k)` when the plan is K-of-N (one component, external
    /// requirements only, `k` the most of them asks): the 256-lane paths
    /// then count reach words instead of running the fixpoint.
    simple_k: Option<u32>,
    /// Scratch: active flags per component instance.
    active: Vec<Vec<bool>>,
    /// Scratch for the bit-sliced K-of-N count: `gew[j]` is the round-lane
    /// mask of "at least j+1 instances reachable so far".
    gew: Vec<WideWord>,
    /// Scratch for the K-of-N count: the plan's reach rows, one row of the
    /// chunk's wide words (or of one wide word) per host.
    reach: Vec<WideWord>,
}

impl StructureChecker {
    /// Prepares a checker for one (spec, plan) pair.
    pub fn new(spec: &ApplicationSpec, plan: &DeploymentPlan) -> Self {
        let mut checker = StructureChecker {
            hosts: Vec::new(),
            requirements: Vec::new(),
            simple_k: None,
            active: Vec::new(),
            gew: Vec::new(),
            reach: Vec::new(),
        };
        checker.retarget(spec, plan);
        checker
    }

    /// Makes this the checker of another (spec, plan) pair, in the memory
    /// it already has: a plan of the shape of the last one allocates
    /// nothing.
    pub(crate) fn retarget(&mut self, spec: &ApplicationSpec, plan: &DeploymentPlan) {
        assert_eq!(
            plan.num_components(),
            spec.num_components(),
            "plan and spec disagree on component count"
        );
        let components = spec.num_components();
        self.hosts.resize_with(components, Vec::new);
        self.active.resize_with(components, Vec::new);
        for (c, (hosts, active)) in self.hosts.iter_mut().zip(&mut self.active).enumerate() {
            hosts.clear();
            hosts.extend_from_slice(plan.hosts_of(c));
            active.clear();
            active.resize(hosts.len(), false);
        }
        self.requirements.clear();
        self.requirements.extend_from_slice(spec.requirements());
        self.simple_k = (components == 1
            && self.requirements.iter().all(|r| r.from == Source::External))
        .then(|| self.requirements.iter().map(|r| r.k).max().expect("non-empty requirements"));
    }

    /// Every instance host of the plan, in component order — the hosts
    /// this checker will ask a router about.
    pub fn hosts(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.hosts.iter().flatten().copied()
    }

    /// Checks the first `rounds` rounds of `states` — slot `key.slot` of a
    /// failure-state table, holding `key.generation` — and feeds the
    /// verdicts into `acc`, bit-identical to
    /// [`StructureChecker::wide_reliable`] wide word by wide word.
    ///
    /// K-of-N asks once per chunk: one [`Router::external_reach_keyed`]
    /// call hands back every host's reach over all its wide words (from
    /// what the router kept under `key`, where it keeps anything), and the
    /// verdicts are a count over those rows with no routing in it.
    /// Structures with cross-component requirements go wide word by wide
    /// word through the unkeyed [`Router::begin_wide`] and `wide_reliable`.
    pub fn chunk_reliable(
        &mut self,
        router: &mut dyn Router,
        states: &BitMatrix,
        key: TableKey,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) {
        let wides = rounds.div_ceil(WideWord::LANES);
        match self.simple_k {
            Some(k) if k > 0 => {
                let hosts = &self.hosts[0];
                self.reach.resize(hosts.len() * wides, WideWord::ZERO);
                router.external_reach_keyed(states, key, hosts, wides, &mut self.reach);
                count_chunk(&mut self.gew, &self.reach, hosts.len(), k as usize, wides, |ww, w| {
                    acc.push_wide(w, lanes_of(rounds, ww) as u32)
                });
            }
            _ => {
                for ww in 0..wides {
                    let lanes = lanes_of(rounds, ww);
                    router.begin_wide(states, ww);
                    let mask = self.wide_reliable(router, states, ww, lanes);
                    acc.push_wide(mask, lanes as u32);
                }
            }
        }
    }

    /// Checks the (up to) 256 rounds of wide word `wide` in one sweep; lane
    /// r of the result is the verdict of round `256·wide + r`, bit-identical
    /// to [`StructureChecker::round_reliable`] on that round. Only the low
    /// `n` lanes are meaningful. The router must already have had
    /// [`Router::begin_wide`] called for (`states`, `wide`).
    ///
    /// Strategy: K-of-N gathers each host's 256-lane reach word
    /// ([`Router::external_reach_wide`]) and counts them with the chunk
    /// path's kernel — no per-round work in the checker. Cross-component
    /// structures run round-major behind a screen: the OR of every row's
    /// wide word proves in which rounds nothing failed, those all take the
    /// verdict of the first of them, and only the dirty rounds pay for the
    /// scalar fixpoint. Verdicts are a pure function of a round's states,
    /// so a stale or poisoned row can only make the screen more
    /// conservative.
    pub fn wide_reliable(
        &mut self,
        router: &mut dyn Router,
        states: &BitMatrix,
        wide: usize,
        n: usize,
    ) -> WideWord {
        debug_assert!(
            (1..=WideWord::LANES).contains(&n),
            "a verdict wide word holds 1..=256 rounds"
        );
        if let Some(k) = self.simple_k {
            if k == 0 {
                return WideWord::ONES; // vacuous requirement, reliable in every round
            }
            let hosts = &self.hosts[0];
            self.reach.clear();
            self.reach.extend(hosts.iter().map(|&h| router.external_reach_wide(states, h, wide)));
            let mut out = WideWord::ZERO;
            count_chunk(&mut self.gew, &self.reach, hosts.len(), k as usize, 1, |_, w| out = w);
            return out;
        }
        let valid = WideWord::lane_mask(n);
        let dirty = states.any_failed_wide(wide) & valid;
        let (clean, mut out) = (valid & !dirty, WideWord::ZERO);
        if let Some((i, w)) = clean.words().iter().enumerate().find(|(_, w)| **w != 0) {
            let round = wide * WideWord::LANES + i * 64 + w.trailing_zeros() as usize;
            router.begin_round(states, round);
            if self.round_reliable(router, states, round) {
                out = clean;
            }
        }
        for (i, &word) in dirty.words().iter().enumerate() {
            let (mut left, mut ok) = (word, out.word(i));
            while left != 0 {
                let bit = left.trailing_zeros() as usize;
                left &= left - 1;
                let round = wide * WideWord::LANES + i * 64 + bit;
                router.begin_round(states, round);
                if self.round_reliable(router, states, round) {
                    ok |= 1 << bit;
                }
            }
            out.set_word(i, ok);
        }
        out
    }

    /// Checks one round: the fixpoint of the module docs, of which K-of-N
    /// is the one-component case. The router must already have had
    /// [`Router::begin_round`] called for (`states`, `round`).
    pub fn round_reliable(
        &mut self,
        router: &mut dyn Router,
        states: &BitMatrix,
        round: usize,
    ) -> bool {
        // Initialize active = alive.
        for (c, hosts) in self.hosts.iter().enumerate() {
            for (i, &h) in hosts.iter().enumerate() {
                self.active[c][i] = !states.get(h.index(), round);
            }
        }
        // Greatest fixpoint: repeatedly deactivate instances that lost all
        // of their required feeders. Terminates because the active sets
        // only shrink; bound iterations defensively by total instances.
        let max_iters = self.hosts.iter().map(|h| h.len()).sum::<usize>() + 1;
        for _ in 0..max_iters {
            let mut changed = false;
            for r in &self.requirements {
                let of = r.of;
                for i in 0..self.hosts[of].len() {
                    if !self.active[of][i] {
                        continue;
                    }
                    let h = self.hosts[of][i];
                    let fed = match r.from {
                        Source::External => router.external_reaches(states, h),
                        Source::Component(j) => {
                            let feeders = &self.hosts[j];
                            let feeder_active = &self.active[j];
                            feeders
                                .iter()
                                .zip(feeder_active)
                                .any(|(&f, &act)| act && router.connects(states, f, h))
                        }
                    };
                    if !fed {
                        self.active[of][i] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Requirement counts: alive instances of Ci reachable from the
        // active set of Cj.
        for r in &self.requirements {
            let mut count = 0u32;
            for (i, &h) in self.hosts[r.of].iter().enumerate() {
                // An instance counts for this edge if it is alive and fed
                // by this edge's source; `active` already conjoins all
                // edges, so recheck this single edge for alive instances.
                let alive = !states.get(h.index(), round);
                if !alive {
                    continue;
                }
                let fed = if self.active[r.of][i] {
                    true // active implies fed by every edge
                } else {
                    match r.from {
                        Source::External => router.external_reaches(states, h),
                        Source::Component(j) => self.hosts[j]
                            .iter()
                            .zip(&self.active[j])
                            .any(|(&f, &act)| act && router.connects(states, f, h)),
                    }
                };
                if fed {
                    count += 1;
                    if count >= r.k {
                        break;
                    }
                }
            }
            if count < r.k {
                return false;
            }
        }
        true
    }
}

/// The K-of-N counting kernel: folds one host's reach word into the
/// saturating unary counter `ge`, after which lane r of `ge[j]` is set iff
/// at least j + 1 of the words folded so far had lane r set.
#[inline(always)]
fn count_reach(ge: &mut [WideWord], reach: WideWord) {
    for j in (1..ge.len()).rev() {
        let below = ge[j - 1];
        ge[j] |= below & reach;
    }
    ge[0] |= reach;
}

/// The K-of-N kernel over reach rows: `reach[i · wides + ww]` is host i's
/// reach over wide word `ww`, for `n` hosts. Wide word by wide word,
/// `verdict` gets the lanes in which at least `k` ≥ 1 of them are
/// reachable. It counts whichever settles a lane sooner: k reachable
/// hosts, or the n − k + 1 unreachable ones that rule them out (4-of-5 is
/// "fewer than two down"). A short counter lives in registers: same
/// kernel, its length known to the compiler; a longer one in `gew`.
#[inline(always)]
fn count_chunk(
    gew: &mut Vec<WideWord>,
    reach: &[WideWord],
    n: usize,
    k: usize,
    wides: usize,
    verdict: impl FnMut(usize, WideWord),
) {
    let down = (n + 1).saturating_sub(k);
    let (need, of_down) = if (1..k).contains(&down) { (down, true) } else { (k, false) };
    match need {
        1 => count_words(&mut [WideWord::ZERO; 1], reach, of_down, wides, verdict),
        2 => count_words(&mut [WideWord::ZERO; 2], reach, of_down, wides, verdict),
        3 => count_words(&mut [WideWord::ZERO; 3], reach, of_down, wides, verdict),
        4 => count_words(&mut [WideWord::ZERO; 4], reach, of_down, wides, verdict),
        _ => {
            gew.resize(need, WideWord::ZERO);
            count_words(gew, reach, of_down, wides, verdict)
        }
    }
}

/// [`count_chunk`] with its counter `ge` chosen: as many lanes as hosts
/// are needed, counting reachable hosts or, `of_down`, unreachable ones.
#[inline(always)]
fn count_words(
    ge: &mut [WideWord],
    reach: &[WideWord],
    of_down: bool,
    wides: usize,
    mut verdict: impl FnMut(usize, WideWord),
) {
    for ww in 0..wides {
        ge.fill(WideWord::ZERO);
        for row in reach.chunks_exact(wides) {
            count_reach(ge, if of_down { !row[ww] } else { row[ww] });
        }
        let enough = ge[ge.len() - 1];
        verdict(ww, if of_down { !enough } else { enough });
    }
}

/// Rounds of a `rounds`-round chunk that fall into its wide word `ww`.
fn lanes_of(rounds: usize, ww: usize) -> usize {
    (rounds - ww * WideWord::LANES).min(WideWord::LANES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_apps::ApplicationSpec;
    use recloud_routing::GenericRouter;
    use recloud_topology::{ComponentKind, Topology, TopologyBuilder};

    /// Two racks behind one border switch:
    /// ext - b ; b - e1 - {h0, h1} ; b - e2 - {h2, h3}.
    fn two_racks() -> (Topology, Vec<ComponentId>, ComponentId, ComponentId, ComponentId) {
        let mut bl = TopologyBuilder::new();
        bl.external();
        let b = bl.add(ComponentKind::BorderSwitch);
        bl.mark_border(b);
        let e1 = bl.add(ComponentKind::EdgeSwitch);
        let e2 = bl.add(ComponentKind::EdgeSwitch);
        bl.connect(b, e1);
        bl.connect(b, e2);
        let hosts = bl.add_hosts(4);
        bl.connect(e1, hosts[0]);
        bl.connect(e1, hosts[1]);
        bl.connect(e2, hosts[2]);
        bl.connect(e2, hosts[3]);
        let t = bl.build();
        (t, hosts, b, e1, e2)
    }

    fn check(
        t: &Topology,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        failed: &[ComponentId],
    ) -> bool {
        let mut states = BitMatrix::new(t.num_components(), 1);
        for f in failed {
            states.set(f.index(), 0);
        }
        let mut router = GenericRouter::new(t);
        router.begin_round(&states, 0);
        let mut checker = StructureChecker::new(spec, plan);
        checker.round_reliable(&mut router, &states, 0)
    }

    #[test]
    fn k_of_n_counting() {
        let (t, hosts, _, e1, _) = two_racks();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::new(&spec, vec![vec![hosts[0], hosts[1], hosts[2]]]);
        // All alive: 3 >= 2.
        assert!(check(&t, &spec, &plan, &[]));
        // One host down: 2 >= 2.
        assert!(check(&t, &spec, &plan, &[hosts[0]]));
        // Rack e1 down: only h2 alive -> 1 < 2.
        assert!(!check(&t, &spec, &plan, &[e1]));
    }

    #[test]
    fn fig6_two_layer_semantics() {
        // FE on rack1, DB on rack2; K_FE,ext = 1, K_DB,FE = 1.
        let (t, hosts, _, e1, e2) = two_racks();
        let mut b = ApplicationSpec::builder();
        let fe = b.component("fe", 2);
        let db = b.component("db", 2);
        b.require_external(fe, 1);
        b.require(db, Source::Component(fe), 1);
        let spec = b.build();
        let plan =
            DeploymentPlan::new(&spec, vec![vec![hosts[0], hosts[1]], vec![hosts[2], hosts[3]]]);
        // Healthy.
        assert!(check(&t, &spec, &plan, &[]));
        // One FE down: still 1 FE and DBs reachable.
        assert!(check(&t, &spec, &plan, &[hosts[0]]));
        // FE rack down: no border-reachable FE -> unreliable, even though
        // DBs are alive.
        assert!(!check(&t, &spec, &plan, &[e1]));
        // DB rack down: FE fine but no DB reachable from FE.
        assert!(!check(&t, &spec, &plan, &[e2]));
        // Both DB hosts down.
        assert!(!check(&t, &spec, &plan, &[hosts[2], hosts[3]]));
    }

    #[test]
    fn cascade_depth_three() {
        // layer0 -> layer1 -> layer2, one instance each on separate racks:
        // cutting layer0 must invalidate layer2 even though layers 1-2 are
        // perfectly connected.
        let (t, hosts, _, e1, _) = two_racks();
        let spec = ApplicationSpec::layered(&[(1, 1), (1, 1), (1, 1)]);
        let plan = DeploymentPlan::new(&spec, vec![vec![hosts[0]], vec![hosts[2]], vec![hosts[3]]]);
        assert!(check(&t, &spec, &plan, &[]));
        // Layer 0's rack dies: its instance is unreachable from ext, so
        // layer 1 has no active feeder, so layer 2 fails too.
        assert!(!check(&t, &spec, &plan, &[e1]));
    }

    #[test]
    fn mesh_fixpoint_mutual_support() {
        // Two cores that must reach each other (1-of-1 each way), plus
        // external on core0.
        let (t, hosts, _, _, e2) = two_racks();
        let mut b = ApplicationSpec::builder();
        let c0 = b.component("core-0", 1);
        let c1 = b.component("core-1", 1);
        b.require_external(c0, 1);
        b.require(c0, Source::Component(c1), 1);
        b.require(c1, Source::Component(c0), 1);
        let spec = b.build();
        let plan = DeploymentPlan::new(&spec, vec![vec![hosts[0]], vec![hosts[2]]]);
        assert!(check(&t, &spec, &plan, &[]));
        // Cut core1's rack: the mesh breaks both ways.
        assert!(!check(&t, &spec, &plan, &[e2]));
        // Cut core1's host directly: same.
        assert!(!check(&t, &spec, &plan, &[hosts[2]]));
    }

    #[test]
    fn redundant_mesh_survives_partial_loss() {
        let (t, hosts, _, _, _) = two_racks();
        let mut b = ApplicationSpec::builder();
        let c0 = b.component("core-0", 2);
        let c1 = b.component("core-1", 2);
        b.require_external(c0, 1);
        b.require(c0, Source::Component(c1), 1);
        b.require(c1, Source::Component(c0), 1);
        let spec = b.build();
        let plan =
            DeploymentPlan::new(&spec, vec![vec![hosts[0], hosts[2]], vec![hosts[1], hosts[3]]]);
        // Lose one instance of each: still 1+1 meshed.
        assert!(check(&t, &spec, &plan, &[hosts[2], hosts[1]]));
        // Lose both of c1: mesh dead.
        assert!(!check(&t, &spec, &plan, &[hosts[1], hosts[3]]));
    }

    #[test]
    fn checker_is_reusable_across_rounds() {
        let (t, hosts, _, e1, _) = two_racks();
        let spec = ApplicationSpec::k_of_n(2, 2);
        let plan = DeploymentPlan::new(&spec, vec![vec![hosts[0], hosts[2]]]);
        let mut states = BitMatrix::new(t.num_components(), 2);
        states.set(e1.index(), 1);
        let mut router = GenericRouter::new(&t);
        let mut checker = StructureChecker::new(&spec, &plan);
        router.begin_round(&states, 0);
        assert!(checker.round_reliable(&mut router, &states, 0));
        router.begin_round(&states, 1);
        assert!(!checker.round_reliable(&mut router, &states, 1));
    }

    /// The screen stops sweeping once every lane is dirty. On a matrix
    /// whose first two rows saturate it between them — one switch of a
    /// redundant pair down in even rounds, the other in odd ones — every
    /// lane must get the verdict of the unscreened scalar loop: K-of-N,
    /// layered and microservice structures, native and BFS router.
    #[test]
    fn saturated_screen_gives_the_scalar_verdicts() {
        use recloud_routing::make_router;
        use recloud_sampling::Rng;
        use recloud_topology::{FatTreeParams, LeafSpineParams};
        let rounds = 300;
        let specs = [
            ApplicationSpec::k_of_n(2, 3),
            ApplicationSpec::layered(&[(1, 2), (1, 2)]),
            ApplicationSpec::microservice(2, 1, 1, 2),
        ];
        let fabrics =
            [FatTreeParams::new(4).build(), LeafSpineParams::new(3, 4, 3).border_spines(2).build()];
        for t in fabrics {
            let mut rng = Rng::new(17);
            let mut states = BitMatrix::new(t.num_components(), rounds);
            for c in 2..t.num_components() {
                if t.component(ComponentId::from_index(c)).kind != ComponentKind::External {
                    (0..rounds).filter(|_| rng.next_below(8) == 0).for_each(|r| states.set(c, r));
                }
            }
            (0..rounds).for_each(|r| states.set(r % 2, r));
            let mut router = make_router(&t);
            let mut verdicts = [0usize; 2];
            for spec in &specs {
                let plan = DeploymentPlan::random(spec, t.hosts(), &mut rng);
                let mut wide = StructureChecker::new(spec, &plan);
                let mut scalar = StructureChecker::new(spec, &plan);
                for ww in 0..states.wide_words_per_row() {
                    let lanes = lanes_of(rounds, ww);
                    let full = WideWord::lane_mask(lanes);
                    assert_eq!(states.any_failed_wide(ww) & full, full, "saturated");
                    router.begin_wide(&states, ww);
                    let got = wide.wide_reliable(router.as_mut(), &states, ww, lanes);
                    for lane in 0..lanes {
                        let round = ww * WideWord::LANES + lane;
                        router.begin_round(&states, round);
                        let want = scalar.round_reliable(router.as_mut(), &states, round);
                        assert_eq!(got.bit(lane), want, "{} round {round}", router.name());
                        verdicts[want as usize] += 1;
                    }
                }
            }
            assert!(verdicts[0] > 0 && verdicts[1] > 0, "{}: {verdicts:?}", router.name());
        }
    }

    #[test]
    #[should_panic(expected = "disagree on component count")]
    fn mismatched_plan_rejected() {
        let (_t, hosts, _, _, _) = two_racks();
        let one = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&one, vec![vec![hosts[0], hosts[1]]]);
        let two = ApplicationSpec::layered(&[(1, 1), (1, 1)]);
        StructureChecker::new(&two, &plan);
    }
}
