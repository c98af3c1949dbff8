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
//! Collapsing raw sampled states into effective states is wide-parallel
//! (256 rounds per operation) and row-local: a component's effective row
//! needs only its own raw row and the raw rows of its tree's basic events
//! ([`FaultModel::or_dependencies_into`]). [`FaultModel::collapse_into`]
//! is that step for every row of a full-width matrix; the assessor runs
//! it for the rows a plan can read, keeping the raw rows of the
//! *dependency events* — events some tree references, indexed by
//! [`FaultModel::dependency_slot`] — so consumers of one power supply
//! share one sampled row.

use crate::probability::ProbabilityConfig;
use crate::tree::FaultTree;
use recloud_sampling::{BitMatrix, WideWord};
use recloud_topology::{ComponentId, ComponentKind, SoftwareKind, Topology};

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
    probs: Vec<f64>,
    aux: Vec<AuxComponent>,
    trees: Vec<Option<FaultTree>>,
    /// Events referenced by at least one tree, in first-attachment order.
    dep_events: Vec<ComponentId>,
    /// Per event: its position in `dep_events`, or `NO_SLOT`.
    dep_slot: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl FaultModel {
    /// Builds a model with the given probability assignment and **no**
    /// dependency trees (hosts and switches fail only by themselves).
    pub fn new(topology: &Topology, config: &ProbabilityConfig, seed: u64) -> Self {
        let probs = config.assign(topology, seed);
        FaultModel {
            topo_components: topology.num_components(),
            probs,
            aux: Vec::new(),
            trees: vec![None; topology.num_components()],
            dep_events: Vec::new(),
            dep_slot: vec![NO_SLOT; topology.num_components()],
        }
    }

    /// The paper's §4.1 evaluation model: paper-default probabilities plus
    /// power-supply dependency trees for every switch and host.
    pub fn paper_default(topology: &Topology, seed: u64) -> Self {
        let mut m = FaultModel::new(topology, &ProbabilityConfig::PaperDefault, seed);
        m.attach_power_dependencies(topology);
        m
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
        &self.aux
    }

    /// Adds an auxiliary sampled event and returns its id.
    pub fn add_auxiliary(&mut self, kind: ComponentKind, label: &str, p: f64) -> ComponentId {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let id = ComponentId::from_index(self.probs.len());
        self.probs.push(p);
        self.dep_slot.push(NO_SLOT);
        self.aux.push(AuxComponent { id, kind, label: label.to_owned() });
        id
    }

    /// The dependency tree of a topology component, if any.
    pub fn tree_of(&self, id: ComponentId) -> Option<&FaultTree> {
        self.trees[id.index()].as_ref()
    }

    /// Replaces a component's dependency tree.
    pub fn set_tree(&mut self, id: ComponentId, tree: FaultTree) {
        assert!(id.index() < self.topo_components, "trees attach to topology components");
        self.index_dependencies(&tree);
        self.trees[id.index()] = Some(tree);
    }

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

    /// The dependency events: every event some component's tree
    /// references (power supplies, shared software, …).
    pub fn dependency_events(&self) -> &[ComponentId] {
        &self.dep_events
    }

    /// Position of `event` in [`FaultModel::dependency_events`], if any
    /// tree references it.
    #[inline]
    pub fn dependency_slot(&self, event: ComponentId) -> Option<usize> {
        let slot = self.dep_slot[event.index()];
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// ORs another dependency tree into a component's existing tree (or
    /// installs it if none exists) — the "integrate new dependency feeds
    /// seamlessly" path.
    pub fn or_attach(&mut self, id: ComponentId, tree: FaultTree) {
        assert!(id.index() < self.topo_components, "trees attach to topology components");
        self.index_dependencies(&tree);
        let slot = &mut self.trees[id.index()];
        *slot = Some(match slot.take() {
            Some(existing) => FaultTree::or_merge(&existing, &tree),
            None => tree,
        });
    }

    /// Attaches the topology's power assignment as dependency trees: every
    /// powered component fails when its supply fails (§4.1).
    pub fn attach_power_dependencies(&mut self, topology: &Topology) {
        for c in topology.components() {
            if let Some(supply) = topology.power_of(c.id) {
                self.or_attach(c.id, FaultTree::single(supply));
            }
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
        match &self.trees[id.index()] {
            Some(t) => t.eval(&|c: ComponentId| raw.get(c.index(), round)),
            None => false,
        }
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

    /// ORs component `c`'s dependency tree into its row of `out` over the
    /// first `wides` wide words. The row must already hold `c`'s own
    /// sampled states; `event_wide(e, ww)` reads wide word `ww` of basic
    /// event `e`'s *raw* sampled states. A no-op for a component without
    /// a tree.
    pub fn or_dependencies_into(
        &self,
        c: usize,
        out: &mut BitMatrix,
        wides: usize,
        event_wide: impl Fn(ComponentId, usize) -> WideWord,
    ) {
        if let Some(tree) = &self.trees[c] {
            for ww in 0..wides {
                let dep = tree.eval_wide(&|e: ComponentId| event_wide(e, ww));
                out.set_wide_word(c, ww, out.wide_word(c, ww) | dep);
            }
        }
    }

    /// Collapses raw sampled event states into effective per-component
    /// states, 256 rounds per operation: every row of `out` becomes the
    /// component's own raw row ORed with its dependency tree
    /// ([`FaultModel::or_dependencies_into`]). `out` must have
    /// `num_topology_components()` rows and the same round count as `raw`
    /// (which makes their wide layouts match).
    ///
    /// After this call, downstream route-and-check only ever looks at
    /// `out`: all correlated-failure reasoning has been folded in.
    pub fn collapse_into(&self, raw: &BitMatrix, out: &mut BitMatrix) {
        assert_eq!(raw.components(), self.num_events(), "raw matrix shape mismatch");
        assert_eq!(out.components(), self.topo_components, "out matrix shape mismatch");
        assert_eq!(raw.rounds(), out.rounds(), "round count mismatch");
        let wides = raw.wide_words_per_row();
        for c in 0..self.topo_components {
            out.row_words_mut(c).copy_from_slice(raw.row_words(c));
            self.or_dependencies_into(c, out, wides, |e, ww| raw.wide_word(e.index(), ww));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::{ExtendedDaggerSampler, Sampler};
    use recloud_topology::FatTreeParams;

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
}
