//! The Kalray MPPA-256 compute-cluster bus model.

use mia_model::arbiter::{Arbiter, InterfererDemand, InterfererGroups};
use mia_model::{CoreId, Cycles};

use crate::tree::{ArbitrationNode, ArbitrationTree};

/// The multi-level round-robin bank arbiter of the Kalray MPPA-256 compute
/// cluster, the evaluation platform of the paper ("The bus arbiter function
/// used is the Kalray MPPA-256 RR from \[6\]", §V).
///
/// On the MPPA-256, each shared-memory bank is reached through a hierarchy:
/// processing elements are grouped in **pairs**, each pair has a local
/// round-robin arbiter, and the pair winners compete in a second-level
/// round-robin. This makes the interference bound **non-additive**: once a
/// pair's aggregated demand saturates the victim's grant count, adding more
/// demand to that pair costs the victim nothing extra — which a pairwise
/// sum would overestimate.
///
/// [`MppaTree::cluster16`] builds the 16-core, 8-pair geometry used in the
/// paper's evaluation; it is what the `mppa` arbiter name resolves to
/// ([`by_name`](crate::by_name)). [`MppaTree::new`] builds the same shape
/// for any core count and group size.
///
/// Cores outside the hierarchy (cores 16 and up of `cluster16` on a wider
/// platform, e.g. `mia analyze --cores 64 --arbiter mppa`) reach the bank
/// through the implicit top-level round-robin input of
/// [`ArbitrationTree`]: each one competes with the victim like a flat
/// round-robin peer, and a victim outside the tree competes against the
/// whole tree as one aggregated opponent.
///
/// The bound is evaluated by the compiled [`ArbitrationTree`]; see its
/// per-call cost.
///
/// # Example
///
/// ```
/// use mia_arbiter::MppaTree;
/// use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};
///
/// let mppa = MppaTree::cluster16();
/// // Victim core 0; its pair partner (core 1) and one far core (core 2).
/// let others = [
///     InterfererDemand { core: CoreId(1), accesses: 10 },
///     InterfererDemand { core: CoreId(2), accesses: 10 },
/// ];
/// // Pair stage min(8,10)=8, second stage min(8,10)=8 → 16 cycles.
/// assert_eq!(
///     mppa.bank_interference(CoreId(0), 8, &others, Cycles(1)),
///     Cycles(16),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MppaTree {
    tree: ArbitrationTree,
    cores: usize,
    group: usize,
}

impl MppaTree {
    /// Builds a two-level round-robin hierarchy over `cores` cores grouped
    /// in clusters of `group` (the last group may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `group` is zero.
    pub fn new(cores: usize, group: usize) -> Self {
        assert!(cores > 0, "cores must be non-zero");
        assert!(group > 0, "group must be non-zero");
        let mut groups = Vec::new();
        let mut current = Vec::new();
        for c in 0..cores {
            current.push(ArbitrationNode::Leaf(CoreId::from_index(c)));
            if current.len() == group {
                groups.push(ArbitrationNode::RoundRobin(std::mem::take(&mut current)));
            }
        }
        if !current.is_empty() {
            groups.push(ArbitrationNode::RoundRobin(current));
        }
        let tree = ArbitrationTree::new(ArbitrationNode::RoundRobin(groups)).with_name("mppa-tree");
        MppaTree { tree, cores, group }
    }

    /// The 16-core, 8-pair geometry of an MPPA-256 compute cluster.
    pub fn cluster16() -> Self {
        MppaTree::new(16, 2)
    }

    /// Number of cores in the hierarchy.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Cores per first-level group.
    pub fn group_size(&self) -> usize {
        self.group
    }
}

impl Default for MppaTree {
    fn default() -> Self {
        MppaTree::cluster16()
    }
}

impl Arbiter for MppaTree {
    fn name(&self) -> &str {
        "mppa-tree"
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        self.tree
            .bank_interference(victim, demand, interferers, access_cycles)
    }

    fn is_additive(&self) -> bool {
        false
    }

    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        self.tree.interferer_groups(victim, cores)
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

    #[test]
    fn cluster16_geometry() {
        let m = MppaTree::cluster16();
        assert_eq!(m.cores(), 16);
        assert_eq!(m.group_size(), 2);
    }

    #[test]
    fn uneven_last_group() {
        // 5 cores in pairs: groups {0,1}, {2,3}, {4}.
        let m = MppaTree::new(5, 2);
        // Victim 4 alone in its group: only the two sibling groups delay it.
        let others = [demand(0, 1), demand(1, 1), demand(2, 1), demand(3, 1)];
        // Each sibling group aggregates 2, capped at demand 10 → 2+2 = 4.
        assert_eq!(
            m.bank_interference(CoreId(4), 10, &others, Cycles(1)),
            Cycles(4)
        );
    }

    #[test]
    fn non_additive_saturation() {
        let m = MppaTree::cluster16();
        // Cores 2 and 3 form one pair; their demands aggregate before the
        // victim cap applies.
        let separate_a = m.bank_interference(CoreId(0), 4, &[demand(2, 3)], Cycles(1));
        let separate_b = m.bank_interference(CoreId(0), 4, &[demand(3, 3)], Cycles(1));
        let together = m.bank_interference(CoreId(0), 4, &[demand(2, 3), demand(3, 3)], Cycles(1));
        assert_eq!(separate_a, Cycles(3));
        assert_eq!(separate_b, Cycles(3));
        // min(4, 3+3) = 4 < 3 + 3: strictly less than the pairwise sum.
        assert_eq!(together, Cycles(4));
        assert!(together < separate_a + separate_b);
        assert!(!m.is_additive());
    }

    #[test]
    fn tree_bound_is_at_most_flat_rr() {
        use crate::RoundRobin;
        let m = MppaTree::cluster16();
        let rr = RoundRobin::new();
        let others: Vec<InterfererDemand> = (1..16).map(|c| demand(c, 7)).collect();
        let tree = m.bank_interference(CoreId(0), 9, &others, Cycles(1));
        let flat = rr.bank_interference(CoreId(0), 9, &others, Cycles(1));
        assert!(tree <= flat, "tree {tree} must not exceed flat {flat}");
    }

    #[test]
    #[should_panic(expected = "group must be non-zero")]
    fn zero_group_panics() {
        let _ = MppaTree::new(4, 0);
    }
}
