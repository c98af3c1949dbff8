//! The row-at-a-time collapse and the tree pool against what they
//! replaced: a tree evaluated per round, a tree evaluated per wide word
//! into a masked store, and one owned tree per component.

use recloud_faults::{FaultInjector, FaultModel, FaultTree, FaultTreeBuilder, ProbabilityConfig};
use recloud_sampling::proptest::{forall, Gen};
use recloud_sampling::{prop_assert, prop_assert_eq, BitMatrix, ExtendedDaggerSampler, Sampler};
use recloud_topology::{ComponentId, ComponentKind, FatTreeParams, Scale, Topology};
use std::collections::HashSet;

/// A random gate tree over `events`: nested OR / AND / K-of-N down to
/// `depth` levels, leaves drawn with repeats. `or_only` keeps every gate
/// an OR — the shape the row path takes.
fn random_tree(g: &mut Gen, events: &[ComponentId], depth: usize, or_only: bool) -> FaultTree {
    fn node(
        g: &mut Gen,
        b: &mut FaultTreeBuilder,
        events: &[ComponentId],
        depth: usize,
        or_only: bool,
    ) -> u32 {
        if depth == 0 || g.usize_in(0..4) == 0 {
            return b.basic(events[g.usize_in(0..events.len())]);
        }
        let children: Vec<u32> =
            (0..g.usize_in(1..5)).map(|_| node(g, b, events, depth - 1, or_only)).collect();
        match if or_only { 0 } else { g.usize_in(0..3) } {
            0 => b.or(children),
            1 => b.and(children),
            _ => b.k_of_n(g.u32_in(1..children.len() as u32 + 1), children),
        }
    }
    let mut b = FaultTreeBuilder::new();
    let root = node(g, &mut b, events, depth, or_only);
    b.build(root)
}

/// A k = 4 fat-tree model without trees, plus two auxiliary events; the
/// events trees may read: three supplies, the auxiliaries, and a host (a
/// component that is both a row and somebody's leaf).
fn bare_model(g: &mut Gen, p: f64) -> (Topology, FaultModel, Vec<ComponentId>) {
    let t = FatTreeParams::new(4).build();
    let mut m = FaultModel::new(&t, &ProbabilityConfig::Uniform(p), g.any_u64());
    let mut events = t.power_supplies()[..3].to_vec();
    for i in 0..2 {
        events.push(m.add_auxiliary(ComponentKind::CoolingUnit, &format!("aux-{i}"), p));
    }
    events.push(t.hosts()[0]);
    (t, m, events)
}

/// No bit of any row from round `rounds` on, alignment padding included.
fn clear_beyond_rounds(m: &BitMatrix) -> bool {
    (0..m.components()).all(|c| {
        m.row_words(c).iter().enumerate().all(|(w, &word)| {
            match m.rounds().saturating_sub(w * 64) {
                64.. => true,
                n => word >> n == 0,
            }
        })
    })
}

/// The collapse this PR replaced: the tree evaluated once per wide word,
/// the result ORed in through the masking wide store.
fn collapse_per_wide_word(model: &FaultModel, raw: &BitMatrix, out: &mut BitMatrix) {
    for c in 0..model.num_topology_components() {
        out.row_words_mut(c).copy_from_slice(raw.row_words(c));
        if let Some(tree) = model.tree_of(ComponentId::from_index(c)) {
            for ww in 0..raw.wide_words_per_row() {
                let dep = tree.eval_wide(&|e: ComponentId| raw.wide_word(e.index(), ww));
                out.set_wide_word(c, ww, out.wide_word(c, ww) | dep);
            }
        }
    }
}

#[test]
fn row_collapse_equals_the_tree_round_by_round_and_wide_word_by_wide_word() {
    const ROUNDS: [usize; 9] = [1, 63, 64, 65, 255, 256, 257, 2_560, 2_816];
    forall("collapse_into == effective_failed == per-wide-word eval", |g| {
        let (t, mut model, events) = bare_model(g, 0.3);
        // Trees on a third of the components, some shared between several,
        // some grown by a second attachment (a nested OR at the root).
        let components = t.num_components();
        for _ in 0..components / 6 {
            let or_only = g.any_bool();
            let tree = random_tree(g, &events, 4, or_only);
            for _ in 0..g.usize_in(1..4) {
                let c = ComponentId::from_index(g.usize_in(0..components));
                model.or_attach(c, tree.clone());
            }
        }
        let rounds = ROUNDS[g.usize_in(0..ROUNDS.len())];
        let mut raw = BitMatrix::new(model.num_events(), rounds);
        ExtendedDaggerSampler::seeded(g.any_u64()).sample_into(model.probs(), &mut raw);
        if g.any_bool() {
            let mut injector = FaultInjector::new();
            for _ in 0..g.usize_in(1..4) {
                let leaf = events[g.usize_in(0..events.len())];
                match g.usize_in(0..3) {
                    0 => injector.fail(leaf),
                    1 => {
                        let from = g.usize_in(0..rounds);
                        injector.fail_rounds(leaf, from..from + g.usize_in(1..400))
                    }
                    _ => injector.revive(leaf),
                };
            }
            injector.apply(&mut raw);
        }
        prop_assert!(clear_beyond_rounds(&raw), "samplers and injectors keep padding clear");

        // Both outputs start as garbage: collapsing overwrites every word.
        let mut out = BitMatrix::new(components, rounds);
        let mut reference = BitMatrix::new(components, rounds);
        for c in 0..components {
            out.row_words_mut(c).fill(!0);
            reference.row_words_mut(c).fill(0xA5A5_A5A5_A5A5_A5A5);
        }
        model.collapse_into(&raw, &mut out);
        collapse_per_wide_word(&model, &raw, &mut reference);
        prop_assert!(out == reference, "{rounds} rounds");
        prop_assert!(clear_beyond_rounds(&out), "{rounds} rounds: bits past the last round");
        for c in 0..components {
            for r in 0..rounds {
                let want = model.effective_failed(&raw, ComponentId::from_index(c), r);
                prop_assert_eq!(out.get(c, r), want, "component {c} round {r} of {rounds}");
            }
        }
        Ok(())
    });
}

/// A model beside what it replaced: one owned tree per component, merged
/// with [`FaultTree::or_merge`] and never shared.
#[derive(Clone)]
struct Mirror {
    model: FaultModel,
    trees: Vec<Option<FaultTree>>,
}

impl Mirror {
    /// What `or_attach` did before there was a pool, to the mirror alone.
    fn merge(&mut self, c: ComponentId, tree: &FaultTree) {
        let slot = &mut self.trees[c.index()];
        *slot = Some(match slot.take() {
            Some(existing) => FaultTree::or_merge(&existing, tree),
            None => tree.clone(),
        });
    }

    fn or_attach(&mut self, c: ComponentId, tree: FaultTree) {
        self.merge(c, &tree);
        self.model.or_attach(c, tree);
    }

    /// Every component's tree is the mirror's, node for node; the pool
    /// holds exactly the distinct ones; and collapsing — whichever path
    /// each tree takes — agrees with the un-pooled tree on every failure
    /// pattern of the events it reads.
    fn check(&self, events: &[ComponentId]) -> Result<(), String> {
        let components = self.trees.len();
        for c in 0..components {
            let id = ComponentId::from_index(c);
            prop_assert_eq!(self.model.tree_of(id), self.trees[c].as_ref(), "tree of {id}");
        }
        let distinct: HashSet<&FaultTree> = self.trees.iter().flatten().collect();
        prop_assert_eq!(self.model.distinct_trees(), distinct.len());

        // Round r fails exactly the events whose bit is set in r. Rows
        // that are both a leaf and a component keep their own state in the
        // pattern too, so compare trees, not effective rows.
        let leaves: Vec<ComponentId> = self.model.dependency_events().to_vec();
        prop_assert!(leaves.iter().all(|e| events.contains(e)) && leaves.len() <= 9);
        let rounds = 1usize << leaves.len();
        let mut raw = BitMatrix::new(self.model.num_events(), rounds);
        for (i, e) in leaves.iter().enumerate() {
            for r in (0..rounds).filter(|r| (r >> i) & 1 == 1) {
                raw.set(e.index(), r);
            }
        }
        let mut out = BitMatrix::new(components, rounds);
        self.model.collapse_into(&raw, &mut out);
        for (c, tree) in self.trees.iter().enumerate() {
            for r in 0..rounds {
                let own = raw.get(c, r);
                let dep = tree.as_ref().is_some_and(|t| t.eval(&|e| raw.get(e.index(), r)));
                prop_assert_eq!(out.get(c, r), own || dep, "component {c}, pattern {r:#b}");
            }
        }
        Ok(())
    }
}

#[test]
fn pooled_trees_are_the_unpooled_trees_through_any_chain_of_changes() {
    forall("tree_of == one owned or_merge'd tree per component", |g| {
        let (t, model, mut events) = bare_model(g, 0.05);
        let components = t.num_components();
        let mut live = Mirror { model, trees: vec![None; components] };
        // Clones taken along the way, each with the mirror of its moment.
        let mut kept: Vec<Mirror> = Vec::new();
        for _ in 0..g.usize_in(4..24) {
            let c = ComponentId::from_index(g.usize_in(0..components));
            match g.usize_in(0..8) {
                0..=2 => {
                    let single = FaultTree::single(events[g.usize_in(0..events.len())]);
                    live.or_attach(c, single);
                }
                3 => {
                    let or_only = g.any_bool();
                    live.or_attach(c, random_tree(g, &events, 2, or_only));
                }
                4 => {
                    let or_only = g.any_bool();
                    let tree = random_tree(g, &events, 3, or_only);
                    live.trees[c.index()] = Some(tree.clone());
                    live.model.set_tree(c, tree);
                }
                // Once per chain: every pattern of the events is checked,
                // and each call adds up to three.
                5 if events.len() == 6 => {
                    let images = g.usize_in(1..3);
                    let ids = live.model.attach_shared_software(&t, images, 0.01, 0.02);
                    let library = *ids.last().expect("images, then the library");
                    for (idx, &h) in t.hosts().iter().enumerate() {
                        live.merge(h, &FaultTree::single(ids[idx % images]));
                        live.merge(h, &FaultTree::single(library));
                    }
                    events.extend(ids);
                }
                5 | 6 => live.model.redraw(&t, &ProbabilityConfig::Uniform(0.05), g.any_u64()),
                _ if kept.len() < 2 => kept.push(live.clone()),
                _ => {}
            }
        }
        live.check(&events)?;
        // What a clone held when it was taken, it still holds: no later
        // change to the live model reached through the shared structure.
        for clone in &kept {
            clone.check(&events)?;
        }
        Ok(())
    });
}

/// `attach_power_dependencies` pools each supply's leaf once and shares
/// it; what it builds is still one `or_attach` of a single leaf per
/// powered component, in component order.
#[test]
fn bulk_power_attachment_is_one_or_attach_per_consumer() {
    forall("attach_power_dependencies == or_attach(single(supply)) per component", |g| {
        let (t, mut bulk, events) = bare_model(g, 0.05);
        for _ in 0..g.usize_in(0..6) {
            let c = ComponentId::from_index(g.usize_in(0..t.num_components()));
            let or_only = g.any_bool();
            bulk.or_attach(c, random_tree(g, &events, 2, or_only));
        }
        let mut one_by_one = bulk.clone();
        bulk.attach_power_dependencies(&t);
        for c in t.components() {
            if let Some(supply) = t.power_of(c.id) {
                one_by_one.or_attach(c.id, FaultTree::single(supply));
            }
        }
        for c in t.components() {
            prop_assert_eq!(bulk.tree_of(c.id), one_by_one.tree_of(c.id), "tree of {c}");
        }
        prop_assert_eq!(bulk.dependency_events(), one_by_one.dependency_events());
        prop_assert_eq!(bulk.distinct_trees(), one_by_one.distinct_trees());
        Ok(())
    });
}

#[test]
fn paper_default_large_is_one_tree_per_supply_and_half_a_mebibyte() {
    let t = Scale::Large.build();
    let model = FaultModel::paper_default(&t, 1);
    assert_eq!(model.distinct_trees(), t.power_supplies().len());
    let powered = t.components().iter().filter(|c| t.power_of(c.id).is_some()).count();
    assert!(powered > 29_000, "{powered} components share those trees");
    let bytes = model.structure_bytes();
    assert!(bytes <= 512 * 1024, "structure holds {bytes} bytes");
    // Two u32 per event (tree index, dependency slot) and little else.
    assert!(bytes >= 8 * t.num_components(), "{bytes} bytes cannot hold the indices");
}
