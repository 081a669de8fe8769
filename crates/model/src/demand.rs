//! Per-bank memory access demands and the policies that derive them from
//! graph edges.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BankId, CoreId, Mapping, ModelError, Platform, TaskGraph};

/// The number of memory accesses a task issues to each bank.
///
/// Stored sparsely (sorted by bank) because on platforms with per-core
/// banks a task typically touches only a handful of the 16 banks.
///
/// # Example
///
/// ```
/// use mia_model::{BankDemand, BankId};
///
/// let mut d = BankDemand::new();
/// d.add(BankId(1), 250);
/// d.add(BankId(3), 50);
/// d.add(BankId(1), 10);
/// assert_eq!(d.get(BankId(1)), 260);
/// assert_eq!(d.get(BankId(0)), 0);
/// assert_eq!(d.total(), 310);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankDemand {
    /// Sorted by bank id; counts are strictly positive.
    counts: Vec<(BankId, u64)>,
}

impl BankDemand {
    /// Creates an empty demand vector.
    pub fn new() -> Self {
        BankDemand { counts: Vec::new() }
    }

    /// Creates a demand vector with all accesses on a single bank.
    pub fn single(bank: BankId, accesses: u64) -> Self {
        let mut d = BankDemand::new();
        d.add(bank, accesses);
        d
    }

    /// Returns the access count for `bank` (0 if absent).
    pub fn get(&self, bank: BankId) -> u64 {
        match self.counts.binary_search_by_key(&bank, |&(b, _)| b) {
            Ok(i) => self.counts[i].1,
            Err(_) => 0,
        }
    }

    /// Adds `accesses` to the demand on `bank`.
    pub fn add(&mut self, bank: BankId, accesses: u64) {
        if accesses == 0 {
            return;
        }
        match self.counts.binary_search_by_key(&bank, |&(b, _)| b) {
            Ok(i) => self.counts[i].1 += accesses,
            Err(i) => self.counts.insert(i, (bank, accesses)),
        }
    }

    /// Merges another demand vector into this one.
    pub fn merge(&mut self, other: &BankDemand) {
        for &(bank, n) in &other.counts {
            self.add(bank, n);
        }
    }

    /// Total accesses over all banks.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, n)| n).sum()
    }

    /// True if the task issues no accesses at all.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(bank, accesses)` pairs in increasing bank order.
    pub fn iter(&self) -> impl Iterator<Item = (BankId, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// The banks this demand touches, in increasing order.
    pub fn banks(&self) -> impl Iterator<Item = BankId> + '_ {
        self.counts.iter().map(|&(b, _)| b)
    }

    /// True if both demands access at least one common bank.
    pub fn shares_bank_with(&self, other: &BankDemand) -> bool {
        // Merge-scan over the two sorted vectors.
        let (mut i, mut j) = (0, 0);
        while i < self.counts.len() && j < other.counts.len() {
            match self.counts[i].0.cmp(&other.counts[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Largest bank id referenced, if any.
    pub fn max_bank(&self) -> Option<BankId> {
        self.counts.last().map(|&(b, _)| b)
    }
}

impl fmt::Display for BankDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.counts.is_empty() {
            return write!(f, "{{}}");
        }
        write!(f, "{{")?;
        for (i, (b, n)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}:{n}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(BankId, u64)> for BankDemand {
    fn from_iter<I: IntoIterator<Item = (BankId, u64)>>(iter: I) -> Self {
        let mut d = BankDemand::new();
        for (b, n) in iter {
            d.add(b, n);
        }
        d
    }
}

impl Extend<(BankId, u64)> for BankDemand {
    fn extend<I: IntoIterator<Item = (BankId, u64)>>(&mut self, iter: I) {
        for (b, n) in iter {
            self.add(b, n);
        }
    }
}

/// How graph edges translate into memory-bank accesses.
///
/// On the Kalray MPPA-256 compute cluster the shared memory "may have
/// distinct arbitrated banks reserved for each core to minimize
/// interference" (paper §IV). The policy decides which bank each
/// communication touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BankPolicy {
    /// Bank `k` is reserved for core `k mod banks`: a producer writes each
    /// word into the **consumer's** core bank, and a consumer reads each
    /// word from **its own** core bank. Private accesses go to the task's
    /// own core bank. This is the model that reproduces the paper's
    /// Figure 1 (`tests/figure1.rs` pins it).
    PerCoreBank,
    /// All accesses, whatever their origin, target bank 0 — the
    /// single-shared-bank configuration used in the paper's §II.A
    /// round-robin example.
    SingleBank,
}

/// Derives each task's total per-bank demand from the graph's edges and the
/// tasks' private demands.
///
/// For every edge `p -> c` with weight `w` words:
///
/// * the producer `p` performs `w` write accesses,
/// * the consumer `c` performs `w` read accesses,
///
/// and the target banks are chosen by `policy`. Private demands are added
/// on top (remapped to the task's own bank under
/// [`BankPolicy::PerCoreBank`], to bank 0 under
/// [`BankPolicy::SingleBank`]).
///
/// # Errors
///
/// Returns [`ModelError::LengthMismatch`] if `mapping` does not cover the
/// graph, and [`ModelError::UnknownBank`] if the platform has fewer banks
/// than the policy requires.
pub fn derive_demands(
    graph: &TaskGraph,
    mapping: &Mapping,
    platform: &Platform,
    policy: BankPolicy,
) -> Result<Vec<BankDemand>, ModelError> {
    if mapping.len() != graph.len() {
        return Err(ModelError::LengthMismatch {
            expected: graph.len(),
            found: mapping.len(),
        });
    }
    let own_bank = |core: CoreId| -> Result<BankId, ModelError> {
        match policy {
            BankPolicy::PerCoreBank => {
                let bank = BankId(core.0 % platform.banks() as u32);
                Ok(bank)
            }
            BankPolicy::SingleBank => Ok(BankId(0)),
        }
    };

    let mut demands = vec![BankDemand::new(); graph.len()];
    for (id, task) in graph.iter() {
        // Private demands are folded onto the task's own bank (bank 0
        // under SingleBank), whatever bank they were declared on.
        let bank = own_bank(mapping.core_of(id))?;
        for (_, n) in task.private_demand().iter() {
            demands[id.index()].add(bank, n);
        }
    }
    for edge in graph.edges() {
        // Writes land in the consumer's bank; reads come from the
        // consumer's own bank (where the data now lives).
        let target = own_bank(mapping.core_of(edge.dst))?;
        demands[edge.src.index()].add(target, edge.words);
        demands[edge.dst.index()].add(target, edge.words);
    }
    for d in &demands {
        if let Some(b) = d.max_bank() {
            if b.index() >= platform.banks() {
                return Err(ModelError::UnknownBank(b));
            }
        }
    }
    Ok(demands)
}

/// [`derive_demands`] with an explicit per-task home bank instead of a
/// policy-derived one: task `t`'s private accesses land in `banks[t]`,
/// and every edge `p -> c` puts both endpoints' accesses in the
/// *consumer's* home bank `banks[c]` — the data lives where the
/// consumer reads it, exactly as under [`BankPolicy::PerCoreBank`].
///
/// When `banks[t] == BankId(core_of(t).0 % platform.banks())` for every
/// task, the result is identical to
/// `derive_demands(…, BankPolicy::PerCoreBank)`; explicit banks exist
/// so a search can decouple memory placement from core placement
/// (task-to-bank remapping as a first-class design variable).
///
/// # Errors
///
/// [`ModelError::LengthMismatch`] if `mapping` or `banks` does not
/// cover the graph, [`ModelError::UnknownBank`] for a bank outside the
/// platform.
pub fn derive_demands_with_banks(
    graph: &TaskGraph,
    mapping: &Mapping,
    platform: &Platform,
    banks: &[BankId],
) -> Result<Vec<BankDemand>, ModelError> {
    if mapping.len() != graph.len() {
        return Err(ModelError::LengthMismatch {
            expected: graph.len(),
            found: mapping.len(),
        });
    }
    if banks.len() != graph.len() {
        return Err(ModelError::LengthMismatch {
            expected: graph.len(),
            found: banks.len(),
        });
    }
    for &bank in banks {
        if bank.index() >= platform.banks() {
            return Err(ModelError::UnknownBank(bank));
        }
    }
    let mut demands = vec![BankDemand::new(); graph.len()];
    for (id, task) in graph.iter() {
        let bank = banks[id.index()];
        for (_, n) in task.private_demand().iter() {
            demands[id.index()].add(bank, n);
        }
    }
    for edge in graph.edges() {
        let target = banks[edge.dst.index()];
        demands[edge.src.index()].add(target, edge.words);
        demands[edge.dst.index()].add(target, edge.words);
    }
    Ok(demands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycles, Task};

    fn diamond() -> (TaskGraph, Mapping, Platform) {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(10)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(10)));
        g.add_edge(a, b, 4).unwrap();
        g.add_edge(a, c, 6).unwrap();
        let platform = Platform::new(2, 2);
        let mapping = Mapping::from_assignment(&g, &[0, 1, 0]).unwrap();
        (g, mapping, platform)
    }

    #[test]
    fn empty_demand() {
        let d = BankDemand::new();
        assert!(d.is_empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.get(BankId(0)), 0);
        assert_eq!(d.max_bank(), None);
        assert_eq!(d.to_string(), "{}");
    }

    #[test]
    fn add_zero_is_noop() {
        let mut d = BankDemand::new();
        d.add(BankId(1), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn sorted_iteration_and_display() {
        let d: BankDemand = [(BankId(3), 5), (BankId(1), 2)].into_iter().collect();
        let order: Vec<BankId> = d.banks().collect();
        assert_eq!(order, vec![BankId(1), BankId(3)]);
        assert_eq!(d.to_string(), "{b1:2, b3:5}");
    }

    #[test]
    fn merge_accumulates() {
        let mut d1 = BankDemand::single(BankId(0), 5);
        let d2: BankDemand = [(BankId(0), 3), (BankId(2), 7)].into_iter().collect();
        d1.merge(&d2);
        assert_eq!(d1.get(BankId(0)), 8);
        assert_eq!(d1.get(BankId(2)), 7);
        assert_eq!(d1.total(), 15);
    }

    #[test]
    fn shares_bank_with() {
        let d1 = BankDemand::single(BankId(1), 1);
        let d2 = BankDemand::single(BankId(2), 1);
        let d3: BankDemand = [(BankId(2), 1), (BankId(9), 4)].into_iter().collect();
        assert!(!d1.shares_bank_with(&d2));
        assert!(d2.shares_bank_with(&d3));
        assert!(!BankDemand::new().shares_bank_with(&d1));
    }

    #[test]
    fn derive_per_core_bank() {
        let (g, m, p) = diamond();
        let d = derive_demands(&g, &m, &p, BankPolicy::PerCoreBank).unwrap();
        // a (core 0) writes 4 words to b (core 1, bank 1) and 6 to c (core 0, bank 0).
        assert_eq!(d[0].get(BankId(1)), 4);
        assert_eq!(d[0].get(BankId(0)), 6);
        // b reads its 4 words from its own bank 1.
        assert_eq!(d[1].get(BankId(1)), 4);
        assert_eq!(d[1].get(BankId(0)), 0);
        // c reads its 6 words from bank 0.
        assert_eq!(d[2].get(BankId(0)), 6);
    }

    #[test]
    fn derive_single_bank() {
        let (g, m, p) = diamond();
        let d = derive_demands(&g, &m, &p, BankPolicy::SingleBank).unwrap();
        assert_eq!(d[0].get(BankId(0)), 10);
        assert_eq!(d[1].get(BankId(0)), 4);
        assert_eq!(d[2].get(BankId(0)), 6);
    }

    #[test]
    fn derive_includes_private_demand() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(
            Task::builder("t")
                .wcet(Cycles(5))
                .private_demand(BankDemand::single(BankId(0), 9)),
        );
        let p = Platform::new(4, 4);
        let m = Mapping::from_assignment(&g, &[2]).unwrap();
        let d = derive_demands(&g, &m, &p, BankPolicy::PerCoreBank).unwrap();
        // Private demand is folded onto the task's own core bank (2).
        assert_eq!(d[0].get(BankId(2)), 9);
    }

    #[test]
    fn derive_rejects_wrong_mapping_length() {
        let (g, _, p) = diamond();
        let mut g2 = TaskGraph::new();
        let _ = g2.add_task(Task::builder("x"));
        let short = Mapping::from_assignment(&g2, &[0]).unwrap();
        let err = derive_demands(&g, &short, &p, BankPolicy::SingleBank).unwrap_err();
        assert!(matches!(err, ModelError::LengthMismatch { .. }));
    }

    #[test]
    fn explicit_core_derived_banks_match_the_policy() {
        let (g, m, p) = diamond();
        let derived = derive_demands(&g, &m, &p, BankPolicy::PerCoreBank).unwrap();
        let banks: Vec<BankId> = (0..g.len())
            .map(|i| BankId(m.core_of(crate::TaskId::from_index(i)).0 % p.banks() as u32))
            .collect();
        let explicit = derive_demands_with_banks(&g, &m, &p, &banks).unwrap();
        assert_eq!(derived, explicit);
    }

    #[test]
    fn remapping_a_home_bank_moves_the_consumer_traffic() {
        let (g, m, p) = diamond();
        // Move c's home bank from its core bank (0) to bank 1: the
        // a→c edge's 6 words now hit bank 1 at both endpoints.
        let banks = vec![BankId(0), BankId(1), BankId(1)];
        let d = derive_demands_with_banks(&g, &m, &p, &banks).unwrap();
        assert_eq!(d[0].get(BankId(1)), 4 + 6); // both edges leave a
        assert_eq!(d[2].get(BankId(1)), 6);
        assert_eq!(d[2].get(BankId(0)), 0);
    }

    #[test]
    fn explicit_banks_are_validated() {
        let (g, m, p) = diamond();
        let err =
            derive_demands_with_banks(&g, &m, &p, &[BankId(0), BankId(9), BankId(0)]).unwrap_err();
        assert!(matches!(err, ModelError::UnknownBank(_)));
        let err = derive_demands_with_banks(&g, &m, &p, &[BankId(0)]).unwrap_err();
        assert!(matches!(err, ModelError::LengthMismatch { .. }));
    }
}
