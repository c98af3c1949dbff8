//! The assembled fault model: probabilities + dependency fault trees +
//! auxiliary dependency components.
//!
//! [`FaultModel`] is what the assessment pipeline consumes. It owns:
//!
//! * the failure-probability vector over all *sampled events* — every
//!   topology component plus any auxiliary components (e.g. a shared OS
//!   image that is not part of the physical topology);
//! * an optional fault tree per topology component, describing when that
//!   component fails *because of its dependencies* (§3.2.3). A component's
//!   effective state in a round is `own sampled state OR tree(deps)`.
//!
//! Collapsing raw sampled states into effective states is row-local: a
//! component's effective row needs only its own raw row and the raw rows
//! of its tree's basic events ([`FaultModel::or_dependencies_into`]), and
//! for the trees the `attach_*` calls build — an OR of leaves — it *is*
//! those rows ORed together, a row at a time. [`FaultModel::collapse_into`]
//! is that step for every row of a full-width matrix; the assessor runs
//! it for the rows a plan can read, keeping the raw rows of the
//! *dependency events* — events some tree references, indexed by
//! [`FaultModel::dependency_slot`] — so consumers of one power supply
//! share one sampled row.
//!
//! # One tree, stored once
//!
//! Thousands of components hang off a handful of failure domains, so the
//! structure keeps each *distinct* tree once, in a pool, and per
//! component a `u32` into it: the paper-default model of a 27K-host
//! fat-tree is five trees and an index vector, not 30,000 allocations.
//! What a tree's shape decides — whether it is a plain OR of leaves — is
//! noted once, when the tree enters the pool. A tree leaves the pool with
//! its last user.
//!
//! # Structure and numbers
//!
//! A model has two parts with different lifetimes. The *structure* —
//! trees, dependency events and their slots, auxiliary components — is
//! the infrastructure (§3.2.3): it changes when a dependency feed does.
//! The *numbers* — the probability vector — are a feed (§2.1, §3.2.2
//! "can adjust p quickly"): a new model seed, a monitoring update. The
//! structure sits behind one `Arc` that clones share and that the first
//! structural change of a clone copies ([`FaultModel::set_tree`],
//! [`FaultModel::or_attach`], [`FaultModel::add_auxiliary`], the
//! `attach_*` calls); the numbers are owned per model, so `clone()`
//! copies one `f64` vector, and [`FaultModel::redraw`] overwrites it in
//! place. Either way two models never see each other's changes.

use crate::probability::ProbabilityConfig;
use crate::tree::FaultTree;
use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, ComponentKind, SoftwareKind, Topology};
use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

/// An auxiliary sampled event that is not a topology component (shared OS
/// image, library version, room-level cooling, …).
#[derive(Clone, Debug, PartialEq)]
pub struct AuxComponent {
    /// Its id in the extended event space (≥ `Topology::num_components`).
    pub id: ComponentId,
    /// What it models.
    pub kind: ComponentKind,
    /// Free-form label for reports.
    pub label: String,
}

/// Probabilities and dependency structure for one topology.
#[derive(Clone, Debug)]
pub struct FaultModel {
    topo_components: usize,
    /// The numbers: one probability per event, owned by this model.
    probs: Vec<f64>,
    /// Everything a seed does not draw, shared copy-on-write with clones.
    structure: Arc<Structure>,
}

/// The seed-independent part of a [`FaultModel`].
#[derive(Clone, Debug)]
struct Structure {
    aux: Vec<AuxComponent>,
    /// Per topology component: its tree's slot in `pool`, or `NO_TREE`.
    tree_of: Vec<u32>,
    pool: TreePool,
    /// Events referenced by at least one tree, in first-attachment order.
    dep_events: Vec<ComponentId>,
    /// Per event: its position in `dep_events`, or `NO_SLOT`.
    dep_slot: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;
const NO_TREE: u32 = u32::MAX;

/// One distinct tree and what its shape decides, noted when it entered
/// the pool.
#[derive(Clone, Debug)]
struct Pooled {
    tree: Arc<FaultTree>,
    /// The leaves, when the tree is a plain OR of them (`FaultTree::or_leaves`).
    or_leaves: Option<Box<[ComponentId]>>,
    /// Components whose tree this is.
    users: u32,
}

/// The distinct trees of a structure, each stored once and counted by
/// its users.
#[derive(Clone, Debug, Default)]
struct TreePool {
    slots: Vec<Option<Pooled>>,
    /// Tree → its slot. Never iterated, so its order is nobody's.
    index: HashMap<Arc<FaultTree>, u32>,
    /// Slots whose tree lost its last user.
    free: Vec<u32>,
}

impl TreePool {
    fn get(&self, slot: u32) -> &Pooled {
        self.slots[slot as usize].as_ref().expect("a component's tree is in the pool")
    }

    /// Counts one more user of `tree` — pooling it if no equal tree is
    /// there yet — and returns its slot.
    fn acquire(&mut self, tree: FaultTree) -> u32 {
        if let Some(&slot) = self.index.get(&tree) {
            return self.share(slot);
        }
        let tree = Arc::new(tree);
        let pooled = Some(Pooled {
            or_leaves: tree.or_leaves().map(Vec::into_boxed_slice),
            tree: Arc::clone(&tree),
            users: 1,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = pooled;
                slot
            }
            None => {
                self.slots.push(pooled);
                u32::try_from(self.slots.len() - 1).expect("fewer trees than components")
            }
        };
        self.index.insert(tree, slot);
        slot
    }

    /// Counts one more user of the tree in `slot`.
    fn share(&mut self, slot: u32) -> u32 {
        self.slots[slot as usize].as_mut().expect("a held tree is in the pool").users += 1;
        slot
    }

    /// Counts one user of `slot`'s tree less; the last one takes the tree
    /// out of the pool.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        let pooled = entry.as_mut().expect("a component's tree is in the pool");
        pooled.users -= 1;
        if pooled.users == 0 {
            self.index.remove(&pooled.tree);
            *entry = None;
            self.free.push(slot);
        }
    }

    fn distinct(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn bytes(&self) -> usize {
        let trees: usize = self
            .slots
            .iter()
            .flatten()
            .map(|p| p.tree.bytes() + p.or_leaves.as_deref().map_or(0, size_of_val))
            .sum();
        trees
            + self.slots.capacity() * size_of::<Option<Pooled>>()
            + self.index.capacity() * size_of::<(Arc<FaultTree>, u32)>()
            + self.free.capacity() * size_of::<u32>()
    }
}

impl Structure {
    /// Registers a tree's basic events as dependency events. Events of a
    /// tree that is later replaced stay registered, which only costs an
    /// unused slot.
    fn index_dependencies(&mut self, tree: &FaultTree) {
        for e in tree.leaf_events() {
            let slot = &mut self.dep_slot[e.index()];
            if *slot == NO_SLOT {
                *slot = self.dep_events.len() as u32;
                self.dep_events.push(e);
            }
        }
    }

    /// Hands component `id` the use of pool slot `new` the caller took,
    /// and gives back the use of the slot it had.
    fn replace(&mut self, id: ComponentId, new: u32) {
        let old = std::mem::replace(&mut self.tree_of[id.index()], new);
        if old != NO_TREE {
            self.pool.release(old);
        }
    }

    /// Pools `tree` and registers its events. The caller has one use of
    /// the returned slot: to attach to any number of components
    /// ([`Structure::or_attach_held`]) and then release, or to hand to
    /// one ([`Structure::replace`]).
    fn hold(&mut self, tree: FaultTree) -> u32 {
        self.index_dependencies(&tree);
        self.pool.acquire(tree)
    }

    /// ORs the held tree into component `id`'s. A component without a
    /// tree shares the held one as it is: no tree is built, none hashed.
    fn or_attach_held(&mut self, id: ComponentId, held: u32) {
        assert!(id.index() < self.tree_of.len(), "trees attach to topology components");
        let new = match self.tree_of[id.index()] {
            NO_TREE => self.pool.share(held),
            existing => {
                let (existing, held) = (&self.pool.get(existing).tree, &self.pool.get(held).tree);
                self.pool.acquire(FaultTree::or_merge(existing, held))
            }
        };
        self.replace(id, new);
    }

    fn or_attach(&mut self, id: ComponentId, tree: FaultTree) {
        let held = self.hold(tree);
        self.or_attach_held(id, held);
        self.pool.release(held);
    }
}

impl FaultModel {
    /// Builds a model with the given probability assignment and **no**
    /// dependency trees (hosts and switches fail only by themselves).
    pub fn new(topology: &Topology, config: &ProbabilityConfig, seed: u64) -> Self {
        let probs = config.assign(topology, seed);
        FaultModel {
            topo_components: topology.num_components(),
            probs,
            structure: Arc::new(Structure {
                aux: Vec::new(),
                tree_of: vec![NO_TREE; topology.num_components()],
                pool: TreePool::default(),
                dep_events: Vec::new(),
                dep_slot: vec![NO_SLOT; topology.num_components()],
            }),
        }
    }

    /// The paper's §4.1 evaluation model: paper-default probabilities plus
    /// power-supply dependency trees for every switch and host.
    pub fn paper_default(topology: &Topology, seed: u64) -> Self {
        let mut m = FaultModel::new(topology, &ProbabilityConfig::PaperDefault, seed);
        m.attach_power_dependencies(topology);
        m
    }

    /// Draws the topology components' probabilities again, in place, for
    /// `seed`: afterwards the model is the one that was built with `seed`
    /// in the first place — `paper_default(t, a)` redrawn under
    /// [`ProbabilityConfig::PaperDefault`] with `b` equals
    /// `paper_default(t, b)` field for field — because the structure never
    /// depended on the seed and the numbers come from the same stream
    /// [`ProbabilityConfig::assign`] reads. Auxiliary events are not part
    /// of any assignment and keep their probabilities.
    ///
    /// # Panics
    /// Panics if `topology` is not the one the model was built for
    /// (component count mismatch).
    pub fn redraw(&mut self, topology: &Topology, config: &ProbabilityConfig, seed: u64) {
        config.fill(topology, seed, &mut self.probs[..self.topo_components]);
    }

    /// Total number of sampled events (topology components + auxiliaries).
    pub fn num_events(&self) -> usize {
        self.probs.len()
    }

    /// Number of topology components (= rows of a collapsed matrix).
    pub fn num_topology_components(&self) -> usize {
        self.topo_components
    }

    /// The probability vector over all events, indexable by raw id.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// One event's probability.
    pub fn prob_of(&self, id: ComponentId) -> f64 {
        self.probs[id.index()]
    }

    /// Overrides one event's probability (e.g. a bathtub-curve update or a
    /// near-real-time monitoring feed; §3.2.2 notes reCloud "can adjust p
    /// quickly").
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_prob(&mut self, id: ComponentId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.probs[id.index()] = p;
    }

    /// Registered auxiliary components.
    pub fn aux_components(&self) -> &[AuxComponent] {
        &self.structure.aux
    }

    /// Adds an auxiliary sampled event and returns its id.
    pub fn add_auxiliary(&mut self, kind: ComponentKind, label: &str, p: f64) -> ComponentId {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let id = ComponentId::from_index(self.probs.len());
        self.probs.push(p);
        let structure = Arc::make_mut(&mut self.structure);
        structure.dep_slot.push(NO_SLOT);
        structure.aux.push(AuxComponent { id, kind, label: label.to_owned() });
        id
    }

    /// The dependency tree of a topology component, if any.
    pub fn tree_of(&self, id: ComponentId) -> Option<&FaultTree> {
        let slot = self.structure.tree_of[id.index()];
        (slot != NO_TREE).then(|| &*self.structure.pool.get(slot).tree)
    }

    /// Number of distinct trees the components share between them.
    pub fn distinct_trees(&self) -> usize {
        self.structure.pool.distinct()
    }

    /// Bytes the structure holds — the per-component tree and dependency
    /// indices, the pooled trees, the auxiliaries — shared by every clone
    /// that has not changed it. With `8 × num_events()` for the numbers,
    /// what a model costs to keep.
    pub fn structure_bytes(&self) -> usize {
        let s = &*self.structure;
        size_of::<Structure>()
            + size_of_val(&s.tree_of[..])
            + size_of_val(&s.dep_events[..])
            + size_of_val(&s.dep_slot[..])
            + s.aux.iter().map(|a| size_of::<AuxComponent>() + a.label.len()).sum::<usize>()
            + s.pool.bytes()
    }

    /// Replaces a component's dependency tree.
    pub fn set_tree(&mut self, id: ComponentId, tree: FaultTree) {
        assert!(id.index() < self.topo_components, "trees attach to topology components");
        let structure = Arc::make_mut(&mut self.structure);
        let held = structure.hold(tree);
        structure.replace(id, held);
    }

    /// The dependency events: every event some component's tree
    /// references (power supplies, shared software, …).
    pub fn dependency_events(&self) -> &[ComponentId] {
        &self.structure.dep_events
    }

    /// Position of `event` in [`FaultModel::dependency_events`], if any
    /// tree references it.
    #[inline]
    pub fn dependency_slot(&self, event: ComponentId) -> Option<usize> {
        let slot = self.structure.dep_slot[event.index()];
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// ORs another dependency tree into a component's existing tree (or
    /// installs it if none exists) — the "integrate new dependency feeds
    /// seamlessly" path.
    pub fn or_attach(&mut self, id: ComponentId, tree: FaultTree) {
        Arc::make_mut(&mut self.structure).or_attach(id, tree);
    }

    /// Attaches the topology's power assignment as dependency trees: every
    /// powered component fails when its supply fails (§4.1).
    pub fn attach_power_dependencies(&mut self, topology: &Topology) {
        let structure = Arc::make_mut(&mut self.structure);
        // A supply's leaf is pooled once, when its first consumer comes by
        // — which is also when the supply becomes a dependency event, so
        // the events keep the consumers' order — and held until the last
        // consumer has it.
        let mut leaves: Vec<u32> = Vec::new(); // by the supply's dependency slot
        for c in topology.components() {
            let Some(supply) = topology.power_of(c.id) else { continue };
            let known = leaves.get(structure.dep_slot[supply.index()] as usize);
            let leaf = match known {
                Some(&leaf) if leaf != NO_TREE => leaf,
                _ => {
                    let leaf = structure.hold(FaultTree::single(supply));
                    let dep = structure.dep_slot[supply.index()] as usize;
                    leaves.resize(leaves.len().max(dep + 1), NO_TREE);
                    leaves[dep] = leaf;
                    leaf
                }
            };
            structure.or_attach_held(c.id, leaf);
        }
        for leaf in leaves.into_iter().filter(|&leaf| leaf != NO_TREE) {
            structure.pool.release(leaf);
        }
    }

    /// Attaches a shared software stack: `images` OS images are created as
    /// auxiliary events and assigned to hosts round-robin by rack, plus one
    /// shared library used by every host (the GitHub/Azure-style fleet-wide
    /// dependency). Returns the created event ids (images, then library).
    pub fn attach_shared_software(
        &mut self,
        topology: &Topology,
        images: usize,
        image_prob: f64,
        library_prob: f64,
    ) -> Vec<ComponentId> {
        assert!(images >= 1, "need at least one OS image");
        let mut ids = Vec::with_capacity(images + 1);
        for i in 0..images {
            ids.push(self.add_auxiliary(
                ComponentKind::Software(SoftwareKind::Os),
                &format!("os-image-{i}"),
                image_prob,
            ));
        }
        let lib = self.add_auxiliary(
            ComponentKind::Software(SoftwareKind::Library),
            "shared-library",
            library_prob,
        );
        ids.push(lib);
        for (idx, &h) in topology.hosts().iter().enumerate() {
            let image = ids[idx % images];
            self.or_attach(h, FaultTree::single(image));
            self.or_attach(h, FaultTree::single(lib));
        }
        ids
    }

    /// Effective failure state of a topology component in one round:
    /// its own sampled state OR its dependency tree.
    pub fn effective_failed(&self, raw: &BitMatrix, id: ComponentId, round: usize) -> bool {
        if raw.get(id.index(), round) {
            return true;
        }
        self.tree_of(id).is_some_and(|t| t.eval(&|c: ComponentId| raw.get(c.index(), round)))
    }

    /// The *blast radius* of one event: every topology component that
    /// fails when `event` (and nothing else) fails. Quantifies the
    /// correlated-failure exposure of shared dependencies — the paper's
    /// motivating outages (GitHub power, Azure storage) are exactly
    /// large-blast-radius events. DieHard-style failure domains fall out
    /// of grouping components by the events whose radius contains them.
    pub fn blast_radius(&self, event: ComponentId) -> Vec<ComponentId> {
        let mut raw = BitMatrix::new(self.num_events(), 1);
        raw.set(event.index(), 0);
        (0..self.topo_components)
            .map(ComponentId::from_index)
            .filter(|&c| self.effective_failed(&raw, c, 0))
            .collect()
    }

    /// ORs component `c`'s dependency tree into `row`, which must already
    /// hold `c`'s own sampled states over `rounds` rounds; `leaf_row(e)`
    /// is basic event `e`'s *raw* sampled row. A no-op for a component
    /// without a tree.
    ///
    /// A plain OR of leaves — every tree the `attach_*` calls build — is
    /// the leaves' rows ORed in, a row at a time; a tree with an AND or
    /// K-of-N gate is evaluated 256 rounds at a time
    /// ([`FaultTree::eval_wide`]). Neither masks the last word: raw rows
    /// are clear from `rounds` on ([`recloud_sampling::Sampler::sample_row`]
    /// and [`crate::FaultInjector`] both leave them so), and no gate
    /// fails on inputs that all hold.
    ///
    /// # Panics
    /// Panics if a row is shorter than `rounds` rounded up to whole wide
    /// words (rows of a [`BitMatrix`] never are).
    pub fn or_dependencies_into<'a>(
        &self,
        c: usize,
        row: &mut [u64],
        rounds: usize,
        leaf_row: impl Fn(ComponentId) -> &'a [u64],
    ) {
        let slot = self.structure.tree_of[c];
        if slot == NO_TREE {
            return;
        }
        let pooled = self.structure.pool.get(slot);
        let wides = rounds.div_ceil(WideWord::LANES);
        let row = &mut row[..wides * WideWord::WORDS];
        let leaf_row = |e: ComponentId| {
            let leaf = leaf_row(e);
            debug_assert!(clear_from(leaf, rounds), "raw row of {e} has bits past round {rounds}");
            &leaf[..wides * WideWord::WORDS]
        };
        match &pooled.or_leaves {
            Some(leaves) => {
                for &e in leaves.iter() {
                    for (word, leaf) in row.iter_mut().zip(leaf_row(e)) {
                        *word |= leaf;
                    }
                }
            }
            None => {
                for (ww, out) in row.chunks_exact_mut(WideWord::WORDS).enumerate() {
                    let dep = pooled.tree.eval_wide(&|e: ComponentId| {
                        let wide = &leaf_row(e)[ww * WideWord::WORDS..][..WideWord::WORDS];
                        WideWord(wide.try_into().expect("one wide word"))
                    });
                    for (word, dep) in out.iter_mut().zip(dep.words()) {
                        *word |= dep;
                    }
                }
            }
        }
    }

    /// Collapses raw sampled event states into effective per-component
    /// states: every row of `out` becomes the component's own raw row
    /// ORed with its dependency tree
    /// ([`FaultModel::or_dependencies_into`]). `out` must have
    /// `num_topology_components()` rows and the same round count as `raw`
    /// (which makes their row layouts match).
    ///
    /// After this call, downstream route-and-check only ever looks at
    /// `out`: all correlated-failure reasoning has been folded in.
    pub fn collapse_into(&self, raw: &BitMatrix, out: &mut BitMatrix) {
        assert_eq!(raw.components(), self.num_events(), "raw matrix shape mismatch");
        assert_eq!(out.components(), self.topo_components, "out matrix shape mismatch");
        assert_eq!(raw.rounds(), out.rounds(), "round count mismatch");
        let rounds = raw.rounds();
        for c in 0..self.topo_components {
            let row = out.row_words_mut(c);
            row.copy_from_slice(raw.row_words(c));
            self.or_dependencies_into(c, row, rounds, |e| raw.row_words(e.index()));
        }
    }
}

/// True when `row` has no bit set from round `rounds` on.
fn clear_from(row: &[u64], rounds: usize) -> bool {
    row.iter().enumerate().all(|(w, &word)| match rounds.saturating_sub(w * 64) {
        64.. => true,
        n => word >> n == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::proptest::forall;
    use recloud_sampling::{prop_assert, prop_assert_eq, ExtendedDaggerSampler, Sampler};
    use recloud_topology::{FatTreeParams, LeafSpineParams};

    fn tiny_model() -> (Topology, FaultModel) {
        let t = FatTreeParams::new(4).build();
        let m = FaultModel::paper_default(&t, 1);
        (t, m)
    }

    #[test]
    fn paper_default_has_power_trees_everywhere() {
        let (t, m) = tiny_model();
        for c in t.components() {
            let has_tree = m.tree_of(c.id).is_some();
            let has_power = t.power_of(c.id).is_some();
            assert_eq!(has_tree, has_power, "{c}");
        }
        assert_eq!(m.num_events(), t.num_components());
    }

    #[test]
    fn power_failure_propagates_to_consumers() {
        let (t, m) = tiny_model();
        let host = t.hosts()[0];
        let supply = t.power_of(host).unwrap();
        let mut raw = BitMatrix::new(m.num_events(), 4);
        raw.set(supply.index(), 2);
        assert!(!m.effective_failed(&raw, host, 1));
        assert!(m.effective_failed(&raw, host, 2));
        // And to every other consumer of the same supply.
        for c in t.components() {
            if t.power_of(c.id) == Some(supply) {
                assert!(m.effective_failed(&raw, c.id, 2), "{c}");
            }
        }
    }

    #[test]
    fn collapse_matches_scalar_effective_failed() {
        let (t, mut m) = tiny_model();
        m.attach_shared_software(&t, 2, 0.01, 0.005);
        let mut raw = BitMatrix::new(m.num_events(), 200);
        ExtendedDaggerSampler::seeded(3).sample_into(m.probs(), &mut raw);
        let mut out = BitMatrix::new(m.num_topology_components(), 200);
        m.collapse_into(&raw, &mut out);
        for c in 0..m.num_topology_components() {
            for r in 0..200 {
                assert_eq!(
                    out.get(c, r),
                    m.effective_failed(&raw, ComponentId::from_index(c), r),
                    "component {c} round {r}"
                );
            }
        }
    }

    #[test]
    fn shared_software_connects_hosts() {
        let (t, mut m) = tiny_model();
        let ids = m.attach_shared_software(&t, 2, 0.01, 0.005);
        let lib = *ids.last().unwrap();
        let mut raw = BitMatrix::new(m.num_events(), 1);
        raw.set(lib.index(), 0);
        // A library failure fails *every* host — the fleet-wide correlated
        // failure the paper's motivating outages describe.
        for &h in t.hosts() {
            assert!(m.effective_failed(&raw, h, 0));
        }
        // But no switch.
        let m_meta = t.fat_tree().unwrap();
        assert!(!m.effective_failed(&raw, m_meta.edge(0, 0), 0));
    }

    #[test]
    fn aux_events_extend_probability_vector() {
        let (t, mut m) = tiny_model();
        let before = m.num_events();
        let id = m.add_auxiliary(ComponentKind::CoolingUnit, "room-cooling", 0.002);
        assert_eq!(id.index(), before);
        assert_eq!(m.num_events(), before + 1);
        assert_eq!(m.prob_of(id), 0.002);
        assert_eq!(m.num_topology_components(), t.num_components());
    }

    #[test]
    fn dependency_events_are_exactly_what_trees_reference() {
        let (t, mut m) = tiny_model();
        assert_eq!(m.dependency_events(), t.power_supplies(), "paper default: the supplies");
        let ids = m.attach_shared_software(&t, 2, 0.01, 0.005);
        let mut want = t.power_supplies().to_vec();
        want.extend(&ids);
        let mut got = m.dependency_events().to_vec();
        got.sort_unstable();
        assert_eq!(got, want);
        for (slot, &e) in m.dependency_events().iter().enumerate() {
            assert_eq!(m.dependency_slot(e), Some(slot));
        }
        assert_eq!(m.dependency_slot(t.hosts()[0]), None);
        // Every tree's events are registered, whichever way it was attached.
        for c in t.components() {
            for e in m.tree_of(c.id).into_iter().flat_map(|tree| tree.leaf_events()) {
                assert!(m.dependency_slot(e).is_some(), "{c} reads unregistered {e}");
            }
        }
    }

    #[test]
    fn set_prob_validates_and_updates() {
        let (_t, mut m) = tiny_model();
        m.set_prob(ComponentId(0), 0.5);
        assert_eq!(m.prob_of(ComponentId(0)), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_prob_rejects_bad_values() {
        let (_t, mut m) = tiny_model();
        m.set_prob(ComponentId(0), 1.5);
    }

    #[test]
    fn or_attach_merges_trees() {
        let (t, mut m) = tiny_model();
        let host = t.hosts()[0];
        let aux = m.add_auxiliary(ComponentKind::CoolingUnit, "rack-cooling", 0.01);
        m.or_attach(host, FaultTree::single(aux));
        let mut raw = BitMatrix::new(m.num_events(), 1);
        raw.set(aux.index(), 0);
        assert!(m.effective_failed(&raw, host, 0));
        // The original power dependency still works.
        let mut raw2 = BitMatrix::new(m.num_events(), 1);
        raw2.set(t.power_of(host).unwrap().index(), 0);
        assert!(m.effective_failed(&raw2, host, 0));
    }

    #[test]
    fn external_never_fails_under_paper_default() {
        let (t, m) = tiny_model();
        assert_eq!(m.prob_of(t.external()), 0.0);
    }

    #[test]
    fn blast_radius_of_a_power_supply() {
        let (t, m) = tiny_model();
        let supply = t.power_supplies()[0];
        let radius = m.blast_radius(supply);
        // The supply itself fails, plus every consumer.
        assert!(radius.contains(&supply));
        for c in t.components() {
            let expect = c.id == supply || t.power_of(c.id) == Some(supply);
            assert_eq!(radius.contains(&c.id), expect, "{c}");
        }
        // With 5 supplies round-robin, roughly a fifth of the powered
        // components hang off each one.
        let powered = t.components().iter().filter(|c| t.power_of(c.id).is_some()).count();
        assert!(radius.len() > powered / 8, "radius too small: {}", radius.len());
    }

    #[test]
    fn blast_radius_of_an_independent_component_is_itself() {
        let (t, m) = tiny_model();
        let host = t.hosts()[0];
        let radius = m.blast_radius(host);
        assert_eq!(radius, vec![host]);
        // The external node fails nothing.
        assert_eq!(m.blast_radius(t.external()), vec![t.external()]);
    }

    /// Two models are the same model: numbers bit for bit, every tree,
    /// the dependency events in order and every event's slot.
    fn same_model(a: &FaultModel, b: &FaultModel) -> Result<(), String> {
        let bits = |m: &FaultModel| m.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(a), bits(b));
        prop_assert_eq!(a.num_topology_components(), b.num_topology_components());
        for c in (0..a.num_topology_components()).map(ComponentId::from_index) {
            prop_assert_eq!(a.tree_of(c), b.tree_of(c), "tree of {c}");
        }
        prop_assert_eq!(a.dependency_events(), b.dependency_events());
        for e in (0..a.num_events()).map(ComponentId::from_index) {
            prop_assert_eq!(a.dependency_slot(e), b.dependency_slot(e), "slot of {e}");
        }
        prop_assert_eq!(a.aux_components(), b.aux_components());
        Ok(())
    }

    #[test]
    fn redrawn_through_any_seed_chain_equals_built_with_the_last() {
        forall("redraw(s) == paper_default(s), whatever was drawn before", |g| {
            let t = match g.usize_in(0..4) {
                0 => FatTreeParams::new(4).build(),
                1 => FatTreeParams::new(6).build(),
                2 => LeafSpineParams::new(3, 4, 3).border_spines(2).build(),
                _ => LeafSpineParams::new(2, 5, 4).build(),
            };
            let mut model = FaultModel::paper_default(&t, g.any_u64());
            let mut with_software = model.clone();
            let (image_p, library_p) = (g.f64_in(0.0..0.2), g.f64_in(0.0..0.2));
            let aux =
                with_software.attach_shared_software(&t, g.usize_in(1..4), image_p, library_p);
            for _ in 0..g.usize_in(1..5) {
                let seed = g.any_u64();
                model.redraw(&t, &ProbabilityConfig::PaperDefault, seed);
                same_model(&model, &FaultModel::paper_default(&t, seed))?;

                // Auxiliaries are nobody's draw: they keep their numbers,
                // and the rest is the model built with this seed and then
                // given the same software.
                with_software.redraw(&t, &ProbabilityConfig::PaperDefault, seed);
                let (library, images) = aux.split_last().expect("images, then the library");
                prop_assert!(images.iter().all(|&i| with_software.prob_of(i) == image_p));
                prop_assert_eq!(with_software.prob_of(*library), library_p);
                let mut rebuilt = FaultModel::paper_default(&t, seed);
                rebuilt.attach_shared_software(&t, images.len(), image_p, library_p);
                same_model(&with_software, &rebuilt)?;
            }
            Ok(())
        });
    }

    /// Clones share one structure allocation; a change to the numbers
    /// keeps sharing it, a change to the structure copies it first, and
    /// either way the other model is what it was.
    #[test]
    fn clones_share_structure_until_one_changes_it() {
        let (t, a) = tiny_model();
        let untouched = FaultModel::paper_default(&t, 1);
        let host = t.hosts()[0];
        let supply = t.power_supplies()[0];
        let numbers: [fn(&mut FaultModel, &Topology); 2] = [
            |m, t| m.set_prob(t.hosts()[0], 0.5),
            |m, t| m.redraw(t, &ProbabilityConfig::PaperDefault, 99),
        ];
        for change in numbers {
            let mut b = a.clone();
            change(&mut b, &t);
            assert!(Arc::ptr_eq(&a.structure, &b.structure), "numbers are not structure");
            assert_ne!(a.probs(), b.probs());
            same_model(&a, &untouched).unwrap();
        }
        let structure: [&dyn Fn(&mut FaultModel); 4] = [
            &|m| m.set_tree(host, FaultTree::single(supply)),
            &|m| m.or_attach(host, FaultTree::single(t.hosts()[1])),
            &|m| {
                m.add_auxiliary(ComponentKind::CoolingUnit, "room-cooling", 0.002);
            },
            &|m| {
                m.attach_shared_software(&t, 2, 0.01, 0.005);
            },
        ];
        for change in structure {
            let mut b = a.clone();
            assert!(Arc::ptr_eq(&a.structure, &b.structure), "untouched clones share");
            change(&mut b);
            assert!(!Arc::ptr_eq(&a.structure, &b.structure), "a changed clone has its own");
            assert!(same_model(&a, &b).is_err(), "the change took");
            same_model(&a, &untouched).unwrap();
        }
    }
}
