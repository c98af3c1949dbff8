//! Fault trees over shared dependencies (§3.2.3, Fig 5).
//!
//! A fault tree describes when a host or switch fails *because of its
//! dependencies*: the Fig 5 example reads "the host fails if the software,
//! the power or the cooling fails (OR); the software fails if the OS or the
//! library fails (OR); the power fails only if both redundant supplies
//! fail (AND); the cooling fails only if both cooling units fail (AND)".
//!
//! Leaves ("basic events") reference sampled components by id; two hosts'
//! trees that reference the same power-supply id are thereby *connected*,
//! which is exactly how the paper models correlated failures.
//!
//! Gates: OR, AND and the generalization K-of-N ("fails when at least k of
//! n children fail"; OR = 1-of-n, AND = n-of-n). Trees are DAG-shaped by
//! construction (children must be created before their parent), evaluated
//! either per round ([`FaultTree::eval`], the reference) or 256 rounds at
//! a time ([`FaultTree::eval_wide`]). A tree whose gates are all OR needs
//! no evaluator at all: it is the OR of its leaves' rows, which is how
//! the fault model collapses it ([`crate::FaultModel::or_dependencies_into`]).

use recloud_sampling::WideWord;
use recloud_topology::ComponentId;
use std::mem::{size_of, size_of_val};

/// Index of a node within one [`FaultTree`].
pub type NodeId = u32;

/// One fault-tree node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Node {
    /// Leaf: fails exactly when the referenced component's sampled state is
    /// failed in the round under evaluation.
    Basic(ComponentId),
    /// Fails when at least one child fails.
    Or(Vec<NodeId>),
    /// Fails only when all children fail.
    And(Vec<NodeId>),
    /// Fails when at least `k` children fail.
    KofN(u32, Vec<NodeId>),
}

/// An immutable fault tree. Build with [`FaultTreeBuilder`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FaultTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl FaultTree {
    /// Convenience: a tree that fails exactly when one component fails —
    /// the shape produced for a plain power dependency.
    pub fn single(event: ComponentId) -> Self {
        FaultTree { nodes: vec![Node::Basic(event)], root: 0 }
    }

    /// Number of nodes (gates + leaves); at least one, the root.
    #[allow(clippy::len_without_is_empty)] // a tree always has its root: it is never empty
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes the tree holds: its nodes and their child lists.
    pub(crate) fn bytes(&self) -> usize {
        let children = self.nodes.iter().map(|n| match n {
            Node::Basic(_) => 0,
            Node::Or(ch) | Node::And(ch) | Node::KofN(_, ch) => size_of_val(&ch[..]),
        });
        size_of::<FaultTree>() + size_of_val(&self.nodes[..]) + children.sum::<usize>()
    }

    /// The event of every leaf, in node order, repeats included — what
    /// the tree reads when evaluated, without allocating.
    pub fn leaf_events(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            Node::Basic(c) => Some(*c),
            _ => None,
        })
    }

    /// All basic events referenced, in first-appearance order, deduplicated.
    pub fn basic_events(&self) -> Vec<ComponentId> {
        let mut out = Vec::new();
        for c in self.leaf_events() {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Evaluates the tree for one round: `failed(c)` reports the sampled
    /// state of basic event `c`. Returns true when the tree (and hence the
    /// dependent host/switch) fails.
    pub fn eval(&self, failed: &dyn Fn(ComponentId) -> bool) -> bool {
        self.eval_node(self.root, failed)
    }

    fn eval_node(&self, id: NodeId, failed: &dyn Fn(ComponentId) -> bool) -> bool {
        match &self.nodes[id as usize] {
            Node::Basic(c) => failed(*c),
            Node::Or(ch) => ch.iter().any(|&c| self.eval_node(c, failed)),
            Node::And(ch) => ch.iter().all(|&c| self.eval_node(c, failed)),
            Node::KofN(k, ch) => {
                let mut fails = 0;
                for &c in ch {
                    if self.eval_node(c, failed) {
                        fails += 1;
                        if fails >= *k {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Wide-parallel evaluation: computes the failure lanes of 256 rounds
    /// at once. `wide_of(c)` returns the 256-round wide word of component
    /// `c`'s raw sampled states. Every gate is monotone and fails on no
    /// input failure, so all-zero inputs give an all-zero result.
    pub fn eval_wide(&self, wide_of: &dyn Fn(ComponentId) -> WideWord) -> WideWord {
        self.eval_node_wide(self.root, wide_of)
    }

    fn eval_node_wide(&self, id: NodeId, wide_of: &dyn Fn(ComponentId) -> WideWord) -> WideWord {
        match &self.nodes[id as usize] {
            Node::Basic(c) => wide_of(*c),
            Node::Or(ch) => {
                ch.iter().fold(WideWord::ZERO, |acc, &c| acc | self.eval_node_wide(c, wide_of))
            }
            Node::And(ch) => {
                ch.iter().fold(WideWord::ONES, |acc, &c| acc & self.eval_node_wide(c, wide_of))
            }
            Node::KofN(k, ch) => {
                // Bitwise thresholding: count failures per round lane.
                let mut counts = [0u8; WideWord::LANES];
                for &c in ch {
                    let w = self.eval_node_wide(c, wide_of);
                    if w.is_zero() {
                        continue;
                    }
                    for (lane, count) in counts.iter_mut().enumerate() {
                        *count += w.bit(lane) as u8;
                    }
                }
                let mut out = WideWord::ZERO;
                for (lane, &count) in counts.iter().enumerate() {
                    if u32::from(count) >= *k {
                        out.set_word(lane / 64, out.word(lane / 64) | 1u64 << (lane % 64));
                    }
                }
                out
            }
        }
    }

    /// The tree's leaves when it is a *plain OR* of them — every gate
    /// reachable from the root is an OR, however nested (repeated
    /// [`FaultTree::or_merge`] of single leaves builds `Or(Or(a, b), c)`)
    /// — deduplicated, in first-visit order; `None` when an AND or K-of-N
    /// gate is reachable. Such a tree fails exactly when one of these
    /// events does.
    pub(crate) fn or_leaves(&self) -> Option<Vec<ComponentId>> {
        let mut leaves = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Basic(c) if leaves.contains(c) => {}
                Node::Basic(c) => leaves.push(*c),
                Node::Or(ch) => stack.extend(ch.iter().rev()),
                Node::And(_) | Node::KofN(..) => return None,
            }
        }
        Some(leaves)
    }

    /// Combines two trees under an OR gate: the result fails when either
    /// input fails. This is how additional dependency feeds are merged into
    /// an existing host/switch tree "seamlessly with no system changes"
    /// (§1) — e.g. power first, a software feed later.
    pub fn or_merge(a: &FaultTree, b: &FaultTree) -> FaultTree {
        let offset = a.nodes.len() as u32;
        let mut nodes = a.nodes.clone();
        for n in &b.nodes {
            nodes.push(match n {
                Node::Basic(c) => Node::Basic(*c),
                Node::Or(ch) => Node::Or(ch.iter().map(|c| c + offset).collect()),
                Node::And(ch) => Node::And(ch.iter().map(|c| c + offset).collect()),
                Node::KofN(k, ch) => Node::KofN(*k, ch.iter().map(|c| c + offset).collect()),
            });
        }
        let b_root = b.root + offset;
        let root = nodes.len() as u32;
        nodes.push(Node::Or(vec![a.root, b_root]));
        FaultTree { nodes, root }
    }
}

/// Incremental fault-tree constructor.
///
/// Children must be created before parents, which makes cycles impossible
/// by construction.
///
/// ```
/// use recloud_faults::FaultTreeBuilder;
/// use recloud_topology::ComponentId;
///
/// // Fig 5: host fails if software OR power OR cooling fails;
/// // software = os OR lib; power = ps1 AND ps2; cooling = c1 AND c2.
/// let (os, lib) = (ComponentId(100), ComponentId(101));
/// let (ps1, ps2) = (ComponentId(102), ComponentId(103));
/// let (c1, c2) = (ComponentId(104), ComponentId(105));
/// let mut b = FaultTreeBuilder::new();
/// let software = {
///     let (o, l) = (b.basic(os), b.basic(lib));
///     b.or(vec![o, l])
/// };
/// let power = {
///     let (p1, p2) = (b.basic(ps1), b.basic(ps2));
///     b.and(vec![p1, p2])
/// };
/// let cooling = {
///     let (x1, x2) = (b.basic(c1), b.basic(c2));
///     b.and(vec![x1, x2])
/// };
/// let root = b.or(vec![software, power, cooling]);
/// let tree = b.build(root);
/// // Both power supplies down, everything else up => host fails.
/// assert!(tree.eval(&|c| c == ps1 || c == ps2));
/// // One power supply down => host survives.
/// assert!(!tree.eval(&|c| c == ps1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultTreeBuilder {
    nodes: Vec<Node>,
}

impl FaultTreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::try_from(self.nodes.len()).expect("fault tree too large");
        self.nodes.push(node);
        id
    }

    fn check_children(&self, children: &[NodeId]) {
        assert!(!children.is_empty(), "a gate needs at least one child");
        let n = self.nodes.len() as u32;
        for &c in children {
            assert!(c < n, "child {c} does not exist yet (children before parents)");
        }
    }

    /// Adds a leaf referencing a sampled component.
    pub fn basic(&mut self, event: ComponentId) -> NodeId {
        self.push(Node::Basic(event))
    }

    /// Adds an OR gate (fails if any child fails).
    pub fn or(&mut self, children: Vec<NodeId>) -> NodeId {
        self.check_children(&children);
        self.push(Node::Or(children))
    }

    /// Adds an AND gate (fails only if all children fail) — the shape of
    /// redundant power/cooling in Fig 5.
    pub fn and(&mut self, children: Vec<NodeId>) -> NodeId {
        self.check_children(&children);
        self.push(Node::And(children))
    }

    /// Adds a K-of-N gate (fails when at least `k` children fail).
    ///
    /// # Panics
    /// Panics when `k` is 0 or exceeds the child count.
    pub fn k_of_n(&mut self, k: u32, children: Vec<NodeId>) -> NodeId {
        self.check_children(&children);
        assert!(
            k >= 1 && (k as usize) <= children.len(),
            "k must be in 1..=children ({} of {})",
            k,
            children.len()
        );
        self.push(Node::KofN(k, children))
    }

    /// Finalizes with the given root node.
    ///
    /// # Panics
    /// Panics if `root` was never created.
    pub fn build(self, root: NodeId) -> FaultTree {
        assert!((root as usize) < self.nodes.len(), "root node does not exist");
        FaultTree { nodes: self.nodes, root }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ComponentId {
        ComponentId(i)
    }

    /// The Fig 5 host tree used across tests.
    fn fig5() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let os = b.basic(c(0));
        let lib = b.basic(c(1));
        let software = b.or(vec![os, lib]);
        let ps1 = b.basic(c(2));
        let ps2 = b.basic(c(3));
        let power = b.and(vec![ps1, ps2]);
        let c1 = b.basic(c(4));
        let c2 = b.basic(c(5));
        let cooling = b.and(vec![c1, c2]);
        let root = b.or(vec![software, power, cooling]);
        b.build(root)
    }

    #[test]
    fn fig5_semantics() {
        let t = fig5();
        // Nothing failed -> host alive.
        assert!(!t.eval(&|_| false));
        // OS failed -> host fails (software is an OR branch).
        assert!(t.eval(&|x| x == c(0)));
        // One power supply failed -> host survives (AND).
        assert!(!t.eval(&|x| x == c(2)));
        // Both supplies failed -> host fails.
        assert!(t.eval(&|x| x == c(2) || x == c(3)));
        // Both cooling units failed -> host fails.
        assert!(t.eval(&|x| x == c(4) || x == c(5)));
        // Everything failed -> host fails.
        assert!(t.eval(&|_| true));
    }

    #[test]
    fn k_of_n_gate() {
        let mut b = FaultTreeBuilder::new();
        let leaves: Vec<_> = (0..5).map(|i| b.basic(c(i))).collect();
        let root = b.k_of_n(3, leaves);
        let t = b.build(root);
        assert!(!t.eval(&|x| x.0 < 2)); // 2 of 5 failed
        assert!(t.eval(&|x| x.0 < 3)); // 3 of 5 failed
        assert!(t.eval(&|_| true));
    }

    /// A 7-leaf 4-of-7 gate.
    fn four_of_seven() -> FaultTree {
        let mut b = FaultTreeBuilder::new();
        let leaves: Vec<_> = (0..7).map(|i| b.basic(c(i))).collect();
        let root = b.k_of_n(4, leaves);
        b.build(root)
    }

    #[test]
    fn wide_eval_matches_scalar_eval() {
        // fig5 (OR/AND mix) and a K-of-N gate, both against 4 distinct
        // subwords per event so every lane region differs.
        for t in [fig5(), four_of_seven()] {
            let wide_of = |x: ComponentId| {
                let base = 0x9E37_79B9_7F4A_7C15u64.rotate_left(x.0 * 13) ^ (x.0 as u64 * 0x5AA5);
                WideWord([base, base.rotate_left(17), !base, base.wrapping_mul(3)])
            };
            let wide = t.eval_wide(&wide_of);
            for lane in 0..WideWord::LANES {
                let scalar = t.eval(&|x: ComponentId| wide_of(x).bit(lane));
                assert_eq!(wide.bit(lane), scalar, "lane {lane}");
            }
            assert!(t.eval_wide(&|_| WideWord::ZERO).is_zero(), "no failure in, none out");
        }
    }

    #[test]
    fn or_leaves_sees_through_nested_ors_only() {
        let (a, b, d) = (FaultTree::single(c(7)), FaultTree::single(c(3)), FaultTree::single(c(7)));
        assert_eq!(a.or_leaves(), Some(vec![c(7)]));
        // Or(Or(7, 3), 7): nested, with a repeated leaf.
        let nested = FaultTree::or_merge(&FaultTree::or_merge(&a, &b), &d);
        assert_eq!(nested.or_leaves(), Some(vec![c(7), c(3)]));
        assert_eq!(fig5().or_leaves(), None, "AND gates under the root");
        assert_eq!(FaultTree::or_merge(&nested, &four_of_seven()).or_leaves(), None);
        // 1-of-n is an OR in meaning but not in shape: it takes the general path.
        let mut builder = FaultTreeBuilder::new();
        let leaf = builder.basic(c(1));
        let root = builder.k_of_n(1, vec![leaf]);
        assert_eq!(builder.build(root).or_leaves(), None);
        // A gate the root cannot reach does not count.
        let mut builder = FaultTreeBuilder::new();
        let (x, y) = (builder.basic(c(1)), builder.basic(c(2)));
        builder.and(vec![x, y]);
        let root = builder.or(vec![y, x]);
        assert_eq!(builder.build(root).or_leaves(), Some(vec![c(2), c(1)]));
    }

    #[test]
    fn single_tree() {
        let t = FaultTree::single(c(9));
        assert!(t.eval(&|x| x == c(9)));
        assert!(!t.eval(&|x| x == c(8)));
        assert_eq!(t.basic_events(), vec![c(9)]);
    }

    #[test]
    fn basic_events_deduplicated_in_order() {
        let mut b = FaultTreeBuilder::new();
        let x = b.basic(c(7));
        let y = b.basic(c(3));
        let x2 = b.basic(c(7));
        let root = b.or(vec![x, y, x2]);
        let t = b.build(root);
        assert_eq!(t.basic_events(), vec![c(7), c(3)]);
    }

    #[test]
    fn monotonicity_more_failures_never_unfail() {
        // For trees without negation, failing a superset of components can
        // never turn a failing tree into a surviving one.
        let t = fig5();
        let sets: Vec<Vec<u32>> = vec![vec![], vec![2], vec![2, 3], vec![0], vec![4, 5]];
        for s in &sets {
            let base = t.eval(&|x| s.contains(&x.0));
            for extra in 0..6u32 {
                let mut bigger = s.clone();
                bigger.push(extra);
                let more = t.eval(&|x| bigger.contains(&x.0));
                assert!(!base || more, "adding a failure un-failed the tree");
            }
        }
    }

    #[test]
    #[should_panic(expected = "children before parents")]
    fn forward_references_rejected() {
        let mut b = FaultTreeBuilder::new();
        b.or(vec![5]);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn empty_gate_rejected() {
        let mut b = FaultTreeBuilder::new();
        b.and(vec![]);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn bad_k_rejected() {
        let mut b = FaultTreeBuilder::new();
        let l = b.basic(c(0));
        b.k_of_n(2, vec![l]);
    }

    #[test]
    #[should_panic(expected = "root node does not exist")]
    fn bad_root_rejected() {
        FaultTreeBuilder::new().build(0);
    }
}
