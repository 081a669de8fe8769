//! The compiled [`ArbitrationTree`] against a recursive reference.
//!
//! `ArbitrationTree::new` flattens the hierarchy into leaf ranges and
//! prefix sums; this suite keeps the straightforward recursive evaluation
//! of the same bound (subtree demand by summing leaves, membership by
//! walking the subtree) and requires both to agree on random trees:
//! round-robin and fixed-priority stages nested up to depth 3 with uneven
//! fanout. The tree's cores are a random subset of `0..2×leaves`, and
//! victims and interferers are drawn from that whole range, so cores
//! outside the tree are exercised as victims and as interferers.

use mia_arbiter::{Arbiter, ArbitrationNode, ArbitrationTree, InterfererDemand};
use mia_model::{CoreId, Cycles};
use proptest::prelude::*;

mod common;

/// Total demand of the subtree.
fn demand_of(node: &ArbitrationNode, lookup: &dyn Fn(CoreId) -> u64) -> u64 {
    match node {
        ArbitrationNode::Leaf(core) => lookup(*core),
        ArbitrationNode::RoundRobin(children) | ArbitrationNode::FixedPriority(children) => {
            children.iter().map(|c| demand_of(c, lookup)).sum()
        }
    }
}

/// True if the subtree contains `core`.
fn contains(node: &ArbitrationNode, core: CoreId) -> bool {
    match node {
        ArbitrationNode::Leaf(c) => *c == core,
        ArbitrationNode::RoundRobin(children) | ArbitrationNode::FixedPriority(children) => {
            children.iter().any(|c| contains(c, core))
        }
    }
}

/// Access slots delaying the victim's `demand` accesses inside `node`,
/// which contains the victim.
fn delay_slots(
    node: &ArbitrationNode,
    victim: CoreId,
    demand: u64,
    lookup: &dyn Fn(CoreId) -> u64,
) -> u64 {
    match node {
        ArbitrationNode::Leaf(_) => 0,
        ArbitrationNode::RoundRobin(children) => {
            let inner = children
                .iter()
                .find(|c| contains(c, victim))
                .expect("victim in subtree");
            let siblings: u64 = children
                .iter()
                .filter(|c| !contains(c, victim))
                .map(|c| demand.min(demand_of(c, lookup)))
                .sum();
            delay_slots(inner, victim, demand, lookup) + siblings
        }
        ArbitrationNode::FixedPriority(children) => {
            let pos = children
                .iter()
                .position(|c| contains(c, victim))
                .expect("victim in subtree");
            let higher: u64 = children[..pos].iter().map(|c| demand_of(c, lookup)).sum();
            let lower: u64 = children[pos + 1..]
                .iter()
                .map(|c| demand_of(c, lookup))
                .sum();
            delay_slots(&children[pos], victim, demand, lookup) + higher + demand.min(lower)
        }
    }
}

/// The reference bound: the recursive walk, with cores outside the tree
/// at an implicit top-level round-robin input.
fn reference(
    root: &ArbitrationNode,
    victim: CoreId,
    demand: u64,
    interferers: &[InterfererDemand],
    access_cycles: Cycles,
) -> Cycles {
    if demand == 0 || interferers.is_empty() {
        return Cycles::ZERO;
    }
    let lookup = |core: CoreId| -> u64 {
        interferers
            .iter()
            .find(|i| i.core == core)
            .map_or(0, |i| i.accesses)
    };
    let outside: u64 = interferers
        .iter()
        .filter(|i| !contains(root, i.core))
        .map(|i| demand.min(i.accesses))
        .sum();
    let slots = if contains(root, victim) {
        delay_slots(root, victim, demand, &lookup) + outside
    } else {
        demand.min(demand_of(root, &lookup)) + outside
    };
    access_cycles * slots
}

type Case = (ArbitrationNode, CoreId, u64, Vec<InterfererDemand>);

/// A case: a tree of at most `max_leaves` leaves (see
/// [`common::random_tree`]) over a random subset of cores `0..2×leaves`,
/// a victim and its demand, and distinct interferers other than the
/// victim, all drawn from `0..2×leaves`.
fn case(max_leaves: u32, min_fanout: u64) -> BoxedStrategy<Case> {
    BoxedStrategy::from_fn(move |rng| {
        let (root, span) = common::random_tree(rng, max_leaves, min_fanout);
        let victim = rng.below(u64::from(span)) as u32;
        let demand = rng.below(600);
        let mut interferers = Vec::new();
        for c in (0..span).filter(|&c| c != victim) {
            if rng.below(3) != 0 {
                interferers.push(InterfererDemand {
                    core: CoreId(c),
                    accesses: rng.below(600),
                });
            }
        }
        // Order must not matter: hand the set over in a random order.
        for i in (1..interferers.len()).rev() {
            interferers.swap(i, rng.below(i as u64 + 1) as usize);
        }
        (root, CoreId(victim), demand, interferers)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_tree_matches_recursive_reference(
        (root, victim, demand, set) in case(64, 0),
        access in 1u64..5,
    ) {
        let expected = reference(&root, victim, demand, &set, Cycles(access));
        let tree = ArbitrationTree::new(root);
        prop_assert_eq!(
            tree.bank_interference(victim, demand, &set, Cycles(access)),
            expected
        );
    }

    /// Depth 3 with fanout ≥ 5 gives 125–160 leaves: the heap scratch.
    #[test]
    fn compiled_tree_matches_reference_past_stack_scratch(
        (root, victim, demand, set) in case(160, 5),
    ) {
        let expected = reference(&root, victim, demand, &set, Cycles(1));
        let tree = ArbitrationTree::new(root);
        prop_assert_eq!(tree.bank_interference(victim, demand, &set, Cycles(1)), expected);
    }
}
