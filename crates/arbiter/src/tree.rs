//! Generic multi-level arbitration trees.
//!
//! Real many-core memory interconnects arbitrate in stages: initiators are
//! grouped, each group has a local arbiter, and group winners compete at
//! the next level. [`ArbitrationTree`] models any such hierarchy with
//! round-robin or fixed-priority stages; [`MppaTree`](crate::MppaTree) is
//! the Kalray-shaped preset built on top of it.

use mia_model::arbiter::{Arbiter, GroupTerm, InterfererDemand, InterfererGroups};
use mia_model::{CoreId, Cycles};

/// One node of an arbitration hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArbitrationNode {
    /// An initiator (a core).
    Leaf(CoreId),
    /// Round-robin among the children: per victim grant, each sibling
    /// subtree may win at most once.
    RoundRobin(Vec<ArbitrationNode>),
    /// Fixed priority among the children, first child = highest priority.
    /// Higher-priority subtrees delay the victim by their full demand;
    /// lower-priority subtrees only block (at most one access per victim
    /// access, and no more than their own total demand).
    FixedPriority(Vec<ArbitrationNode>),
}

/// A composable multi-level arbiter.
///
/// The interference bound is computed compositionally along the path from
/// the victim's leaf to the root: at each stage the victim's accesses
/// compete against the *aggregated* demand of each sibling subtree.
///
/// Cores that do not appear in the tree are assumed to reach the bank
/// through an implicit extra top-level round-robin input (so a partially
/// specified tree still yields sound bounds).
///
/// # Cost
///
/// [`ArbitrationTree::new`] flattens the hierarchy once, in depth-first
/// order, into a core → leaf-position table plus, per node, its kind, its
/// `[lo, hi)` range of leaf positions and its children. Each
/// [`bank_interference`](Arbiter::bank_interference) call then costs
/// O(|interferers| + leaves + depth × fanout): one pass scatters the
/// interferers into per-leaf prefix sums (so a subtree's demand is one
/// subtraction and membership a range test), and the delay walks only the
/// victim's root-to-leaf path. Trees of up to 64 leaves use no heap memory
/// per call. The core table is sized by the largest core id in the tree.
///
/// `mia-core` calls `bank_interference` only in its pairwise mode. In its
/// default per-core aggregation it asks once per victim and run for
/// [`interferer_groups`](Arbiter::interferer_groups): one walk down the
/// victim's path turns each term of the sum above into a group (a sibling
/// subtree of a round-robin stage, the higher or the lower siblings of a
/// fixed-priority stage, a core outside the tree), O(cores + leaves +
/// depth × fanout). Each bank update then changes one group's term, O(1).
///
/// # Example
///
/// A two-level hierarchy: cores 0 and 1 share a pair arbiter, core 2
/// arrives at the top level directly.
///
/// ```
/// use mia_arbiter::{ArbitrationNode, ArbitrationTree};
/// use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};
///
/// let tree = ArbitrationTree::new(ArbitrationNode::RoundRobin(vec![
///     ArbitrationNode::RoundRobin(vec![
///         ArbitrationNode::Leaf(CoreId(0)),
///         ArbitrationNode::Leaf(CoreId(1)),
///     ]),
///     ArbitrationNode::Leaf(CoreId(2)),
/// ]));
/// let others = [
///     InterfererDemand { core: CoreId(1), accesses: 4 },
///     InterfererDemand { core: CoreId(2), accesses: 4 },
/// ];
/// // Pair stage: min(4,4)=4; top stage: min(4,4)=4 → 8 cycles.
/// assert_eq!(
///     tree.bank_interference(CoreId(0), 4, &others, Cycles(1)),
///     Cycles(8),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbitrationTree {
    root: ArbitrationNode,
    name: String,
    flat: FlatTree,
}

impl ArbitrationTree {
    /// Wraps a hierarchy description into an arbiter.
    ///
    /// # Panics
    ///
    /// Panics if a core appears at more than one leaf: an initiator has
    /// exactly one path to the bank, so such a tree describes no bus.
    pub fn new(root: ArbitrationNode) -> Self {
        let flat = FlatTree::compile(&root);
        ArbitrationTree {
            root,
            name: "arbitration-tree".to_owned(),
            flat,
        }
    }

    /// Sets the display name used in reports.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The root node of the hierarchy.
    pub fn root(&self) -> &ArbitrationNode {
        &self.root
    }
}

impl Arbiter for ArbitrationTree {
    fn name(&self) -> &str {
        &self.name
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        if demand == 0 || interferers.is_empty() {
            return Cycles::ZERO;
        }
        let leaves = self.flat.leaves();
        let slots = if leaves <= STACK_LEAVES {
            let mut prefix = [0u64; STACK_LEAVES + 1];
            self.flat
                .delay_slots(victim, demand, interferers, &mut prefix[..=leaves])
        } else {
            let mut prefix = vec![0u64; leaves + 1];
            self.flat
                .delay_slots(victim, demand, interferers, &mut prefix)
        };
        access_cycles * slots
    }

    fn is_additive(&self) -> bool {
        false
    }

    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        Some(self.flat.interferer_groups(victim, cores))
    }
}

/// Trees with at most this many leaves keep their per-call prefix sums on
/// the stack.
const STACK_LEAVES: usize = 64;

/// `leaf_of` entry of a core that has no leaf in the tree.
const NOT_IN_TREE: u32 = u32::MAX;

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("arbitration tree has fewer than 2^32 nodes")
}

/// Node kind of a [`FlatTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Leaf,
    RoundRobin,
    FixedPriority,
}

/// An [`ArbitrationNode`] hierarchy flattened in depth-first pre-order
/// (node 0 is the root). A subtree's leaves occupy the contiguous range
/// `span[node]` of leaf positions, so its demand is a difference of two
/// prefix sums and "contains the victim" is a range test.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlatTree {
    /// DFS leaf position of each core, or [`NOT_IN_TREE`].
    leaf_of: Vec<u32>,
    /// Kind of each node.
    kind: Vec<Kind>,
    /// `[lo, hi)` leaf positions of each node's subtree.
    span: Vec<(u32, u32)>,
    /// The children of node `n` are `children[child_range[n].0..child_range[n].1]`,
    /// highest priority first.
    child_range: Vec<(u32, u32)>,
    children: Vec<u32>,
}

impl FlatTree {
    fn compile(root: &ArbitrationNode) -> Self {
        let mut flat = FlatTree {
            leaf_of: Vec::new(),
            kind: Vec::new(),
            span: Vec::new(),
            child_range: Vec::new(),
            children: Vec::new(),
        };
        let mut next_leaf = 0u32;
        flat.push(root, &mut next_leaf);
        flat
    }

    /// Appends `node`'s subtree and returns its node index.
    fn push(&mut self, node: &ArbitrationNode, next_leaf: &mut u32) -> u32 {
        let id = to_u32(self.kind.len());
        let lo = *next_leaf;
        let (kind, children) = match node {
            ArbitrationNode::Leaf(core) => {
                let c = core.index();
                if self.leaf_of.len() <= c {
                    self.leaf_of.resize(c + 1, NOT_IN_TREE);
                }
                assert!(
                    self.leaf_of[c] == NOT_IN_TREE,
                    "core {core} appears at more than one leaf of the arbitration tree"
                );
                self.leaf_of[c] = lo;
                *next_leaf += 1;
                (Kind::Leaf, &[][..])
            }
            ArbitrationNode::RoundRobin(children) => (Kind::RoundRobin, &children[..]),
            ArbitrationNode::FixedPriority(children) => (Kind::FixedPriority, &children[..]),
        };
        self.kind.push(kind);
        self.span.push((lo, lo));
        self.child_range.push((0, 0));
        let kids: Vec<u32> = children.iter().map(|c| self.push(c, next_leaf)).collect();
        let first = to_u32(self.children.len());
        self.children.extend(kids);
        self.child_range[id as usize] = (first, to_u32(self.children.len()));
        self.span[id as usize].1 = *next_leaf;
        id
    }

    fn leaves(&self) -> usize {
        self.span[0].1 as usize
    }

    fn leaf(&self, core: CoreId) -> Option<u32> {
        self.leaf_of
            .get(core.index())
            .copied()
            .filter(|&p| p != NOT_IN_TREE)
    }

    /// Worst-case access slots delaying the victim's `demand` accesses.
    /// `prefix` has `leaves() + 1` zeroed entries of scratch.
    fn delay_slots(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        prefix: &mut [u64],
    ) -> u64 {
        // Scatter each leaf's demand to `prefix[pos + 1]` (a core appears
        // at most once among the interferers); interferers outside the
        // tree compete at an implicit top-level round-robin input.
        let mut outside = 0u64;
        for i in interferers {
            match self.leaf(i.core) {
                Some(pos) => prefix[pos as usize + 1] = i.accesses,
                None => outside += demand.min(i.accesses),
            }
        }
        for k in 1..prefix.len() {
            prefix[k] += prefix[k - 1];
        }
        let subtree = |node: u32| {
            let (lo, hi) = self.span[node as usize];
            prefix[hi as usize] - prefix[lo as usize]
        };
        let Some(pos) = self.leaf(victim) else {
            // Victim outside the tree: it competes round-robin against the
            // whole tree (one aggregated opponent) plus outside cores.
            return demand.min(subtree(0)) + outside;
        };
        let mut slots = outside;
        let mut node = 0usize;
        loop {
            slots += match self.kind[node] {
                Kind::Leaf => return slots,
                // Each victim grant at this stage can be overtaken once per
                // sibling subtree, but no sibling can exceed its total demand.
                Kind::RoundRobin => {
                    let kids = self.kids(node);
                    let inner = self.child_holding(kids, pos);
                    node = inner as usize;
                    kids.iter()
                        .filter(|&&c| c != inner)
                        .map(|&c| demand.min(subtree(c)))
                        .sum()
                }
                // Higher-priority siblings precede the victim's child in leaf
                // order and delay it fully; lower ones follow it and only block.
                Kind::FixedPriority => {
                    let (lo, hi) = self.span[node];
                    node = self.child_holding(self.kids(node), pos) as usize;
                    let (inner_lo, inner_hi) = self.span[node];
                    let higher = prefix[inner_lo as usize] - prefix[lo as usize];
                    let lower = prefix[hi as usize] - prefix[inner_hi as usize];
                    higher + demand.min(lower)
                }
            };
        }
    }

    /// The groups of [`delay_slots`](Self::delay_slots)' sum for
    /// `victim`, one walk down its root-to-leaf path: each sibling
    /// subtree of a round-robin stage is a capped group, the higher and
    /// the lower siblings of a fixed-priority stage are a full and a
    /// capped group, and each core outside the tree is a capped group of
    /// its own. A victim outside the tree sees the whole tree as one
    /// capped group.
    fn interferer_groups(&self, victim: CoreId, cores: usize) -> InterfererGroups {
        let mut groups = InterfererGroups::new(cores);
        let mut core_at = vec![CoreId(0); self.leaves()];
        for (core, &pos) in self.leaf_of.iter().enumerate() {
            if pos != NOT_IN_TREE {
                core_at[pos as usize] = CoreId::from_index(core);
            }
        }
        let leaves = |(lo, hi): (u32, u32)| core_at[lo as usize..hi as usize].iter().copied();
        match self.leaf(victim) {
            None => groups.push(GroupTerm::Capped, leaves(self.span[0])),
            Some(pos) => {
                let mut node = 0usize;
                loop {
                    match self.kind[node] {
                        Kind::Leaf => break,
                        Kind::RoundRobin => {
                            let kids = self.kids(node);
                            let inner = self.child_holding(kids, pos);
                            for &c in kids.iter().filter(|&&c| c != inner) {
                                groups.push(GroupTerm::Capped, leaves(self.span[c as usize]));
                            }
                            node = inner as usize;
                        }
                        Kind::FixedPriority => {
                            let (lo, hi) = self.span[node];
                            node = self.child_holding(self.kids(node), pos) as usize;
                            let (inner_lo, inner_hi) = self.span[node];
                            groups.push(GroupTerm::Full, leaves((lo, inner_lo)));
                            groups.push(GroupTerm::Capped, leaves((inner_hi, hi)));
                        }
                    }
                }
            }
        }
        for core in (0..cores).map(CoreId::from_index) {
            if core != victim && self.leaf(core).is_none() {
                groups.push(GroupTerm::Capped, [core]);
            }
        }
        groups
    }

    fn kids(&self, node: usize) -> &[u32] {
        let (first, last) = self.child_range[node];
        &self.children[first as usize..last as usize]
    }

    /// The child whose leaf range holds leaf position `pos`.
    fn child_holding(&self, kids: &[u32], pos: u32) -> u32 {
        *kids
            .iter()
            .find(|&&c| {
                let (lo, hi) = self.span[c as usize];
                (lo..hi).contains(&pos)
            })
            .expect("the victim's leaf lies in one child of each node on its path")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(core: u32, accesses: u64) -> InterfererDemand {
        InterfererDemand {
            core: CoreId(core),
            accesses,
        }
    }

    fn pair_tree() -> ArbitrationTree {
        ArbitrationTree::new(ArbitrationNode::RoundRobin(vec![
            ArbitrationNode::RoundRobin(vec![
                ArbitrationNode::Leaf(CoreId(0)),
                ArbitrationNode::Leaf(CoreId(1)),
            ]),
            ArbitrationNode::RoundRobin(vec![
                ArbitrationNode::Leaf(CoreId(2)),
                ArbitrationNode::Leaf(CoreId(3)),
            ]),
        ]))
    }

    #[test]
    fn no_interferers_no_delay() {
        let t = pair_tree();
        assert_eq!(
            t.bank_interference(CoreId(0), 10, &[], Cycles(1)),
            Cycles::ZERO
        );
    }

    #[test]
    fn partner_then_sibling_pair() {
        let t = pair_tree();
        // Partner delays min(6, 2) = 2; sibling pair aggregates 3+4=7,
        // capped by victim demand 6 → 6. Total 8.
        let others = [demand(1, 2), demand(2, 3), demand(3, 4)];
        assert_eq!(
            t.bank_interference(CoreId(0), 6, &others, Cycles(1)),
            Cycles(8)
        );
    }

    #[test]
    fn tree_bound_never_exceeds_flat_rr_with_saturated_pairs() {
        // When a sibling pair's total demand saturates the victim cap, the
        // tree bound is lower than flat RR's per-core sum.
        let t = pair_tree();
        let others = [demand(2, 10), demand(3, 10)];
        // Tree: pair total 20, capped at 5 → 5.
        assert_eq!(
            t.bank_interference(CoreId(0), 5, &others, Cycles(1)),
            Cycles(5)
        );
        // Flat RR would give min(5,10)+min(5,10) = 10.
    }

    #[test]
    fn fixed_priority_stage() {
        let t = ArbitrationTree::new(ArbitrationNode::FixedPriority(vec![
            ArbitrationNode::Leaf(CoreId(0)), // highest priority
            ArbitrationNode::Leaf(CoreId(1)),
            ArbitrationNode::Leaf(CoreId(2)), // lowest priority
        ]));
        // Victim = middle priority: core 0 delays fully (7), core 2 blocks
        // at most min(4, 9) = 4.
        let others = [demand(0, 7), demand(2, 9)];
        assert_eq!(
            t.bank_interference(CoreId(1), 4, &others, Cycles(1)),
            Cycles(11)
        );
        // Highest priority victim suffers only blocking.
        let others = [demand(1, 3), demand(2, 9)];
        assert_eq!(
            t.bank_interference(CoreId(0), 4, &others, Cycles(1)),
            Cycles(4)
        );
    }

    #[test]
    fn victim_outside_tree_competes_against_aggregate() {
        let t = pair_tree();
        let others = [demand(0, 3), demand(1, 3)];
        // Victim core 9 is not in the tree: one aggregated opponent of 6,
        // capped by demand 4 → 4.
        assert_eq!(
            t.bank_interference(CoreId(9), 4, &others, Cycles(1)),
            Cycles(4)
        );
    }

    #[test]
    fn interferer_outside_tree_adds_round_robin_share() {
        let t = pair_tree();
        let others = [demand(1, 2), demand(9, 5)];
        // Partner 2 + outsider min(3,5)=3 → 5.
        assert_eq!(
            t.bank_interference(CoreId(0), 3, &others, Cycles(1)),
            Cycles(5)
        );
    }

    #[test]
    fn zero_demand_victim_suffers_nothing() {
        let t = pair_tree();
        let others = [demand(1, 5)];
        assert_eq!(
            t.bank_interference(CoreId(0), 0, &others, Cycles(1)),
            Cycles::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "core PE1 appears at more than one leaf")]
    fn duplicate_leaf_panics() {
        let _ = ArbitrationTree::new(ArbitrationNode::RoundRobin(vec![
            ArbitrationNode::RoundRobin(vec![
                ArbitrationNode::Leaf(CoreId(0)),
                ArbitrationNode::Leaf(CoreId(1)),
            ]),
            ArbitrationNode::Leaf(CoreId(1)),
        ]));
    }

    #[test]
    fn nested_fixed_priority_uses_leaf_order() {
        // FP(0, RR(1, 2), FP(3, 4)) with victim 1: core 0 delays fully (5),
        // partner 2 overtakes min(3, 6) = 3, the lower FP subtree blocks
        // min(3, 2 + 9) = 3.
        let t = ArbitrationTree::new(ArbitrationNode::FixedPriority(vec![
            ArbitrationNode::Leaf(CoreId(0)),
            ArbitrationNode::RoundRobin(vec![
                ArbitrationNode::Leaf(CoreId(1)),
                ArbitrationNode::Leaf(CoreId(2)),
            ]),
            ArbitrationNode::FixedPriority(vec![
                ArbitrationNode::Leaf(CoreId(3)),
                ArbitrationNode::Leaf(CoreId(4)),
            ]),
        ]));
        let others = [demand(0, 5), demand(2, 6), demand(3, 2), demand(4, 9)];
        assert_eq!(
            t.bank_interference(CoreId(1), 3, &others, Cycles(1)),
            Cycles(11)
        );
    }

    #[test]
    fn large_tree_uses_heap_scratch() {
        // 100 leaves: past the stack scratch. Flat RR of 99 peers, each
        // capped at the victim's 2 accesses.
        let t = ArbitrationTree::new(ArbitrationNode::RoundRobin(
            (0..100).map(|c| ArbitrationNode::Leaf(CoreId(c))).collect(),
        ));
        let others: Vec<InterfererDemand> = (1..100).map(|c| demand(c, 5)).collect();
        assert_eq!(
            t.bank_interference(CoreId(0), 2, &others, Cycles(1)),
            Cycles(198)
        );
    }

    #[test]
    fn named() {
        let t = pair_tree().with_name("custom");
        assert_eq!(t.name(), "custom");
        assert!(!t.is_additive());
    }
}
