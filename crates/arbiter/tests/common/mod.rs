//! Random arbitration trees, shared by the property suites.

use mia_arbiter::ArbitrationNode;
use mia_model::CoreId;
use proptest::test_runner::TestRng;

/// Grows a random subtree whose leaves are numbered `next..`, stopping
/// once `max_leaves` leaves exist. Interior nodes get `min_fanout..=6`
/// children; with `min_fanout` 0, leaves also appear above the bottom
/// level and empty or single-child stages occur.
fn grow(
    rng: &mut TestRng,
    depth: u32,
    next: &mut u32,
    max_leaves: u32,
    min_fanout: u64,
) -> ArbitrationNode {
    if depth == 0 || (min_fanout == 0 && rng.below(4) == 0) {
        *next += 1;
        return ArbitrationNode::Leaf(CoreId(*next - 1));
    }
    let fanout = min_fanout + rng.below(7 - min_fanout);
    let mut children = Vec::new();
    for _ in 0..fanout {
        if *next >= max_leaves {
            break;
        }
        children.push(grow(rng, depth - 1, next, max_leaves, min_fanout));
    }
    if rng.below(2) == 0 {
        ArbitrationNode::RoundRobin(children)
    } else {
        ArbitrationNode::FixedPriority(children)
    }
}

/// Renames leaf `i` to `cores[i]`.
fn relabel(node: ArbitrationNode, cores: &[u32]) -> ArbitrationNode {
    match node {
        ArbitrationNode::Leaf(c) => ArbitrationNode::Leaf(CoreId(cores[c.index()])),
        ArbitrationNode::RoundRobin(children) => {
            ArbitrationNode::RoundRobin(children.into_iter().map(|c| relabel(c, cores)).collect())
        }
        ArbitrationNode::FixedPriority(children) => ArbitrationNode::FixedPriority(
            children.into_iter().map(|c| relabel(c, cores)).collect(),
        ),
    }
}

/// A random tree of at most `max_leaves` leaves (depth ≤ 3, see
/// [`grow`]) over a random subset of cores `0..span`, with `span` twice
/// the leaf count (at least 1). Returns the tree and `span`: the cores of
/// `0..span` not in the tree reach the bank outside it.
pub fn random_tree(rng: &mut TestRng, max_leaves: u32, min_fanout: u64) -> (ArbitrationNode, u32) {
    let mut leaves = 0;
    let shape = grow(rng, 3, &mut leaves, max_leaves, min_fanout);
    let span = (2 * leaves).max(1);
    // Fisher–Yates: the first `leaves` entries are the tree's cores.
    let mut cores: Vec<u32> = (0..span).collect();
    for i in (1..cores.len()).rev() {
        cores.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (relabel(shape, &cores), span)
}
