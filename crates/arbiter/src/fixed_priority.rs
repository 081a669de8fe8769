//! Fixed-priority bus arbitration.

use mia_model::arbiter::{Arbiter, GroupTerm, InterfererDemand, InterfererGroups};
use mia_model::{CoreId, Cycles};

/// Fixed-priority arbitration: each core has a static priority (lower
/// number = higher priority; ties resolve in favour of the lower core id).
///
/// Worst case for a victim with demand `d_v`:
///
/// * every access of every **higher-priority** core wins arbitration over
///   the victim: `Σ_higher d_j` slots;
/// * a **lower-priority** access can only delay the victim if it is
///   already occupying the bank when the victim requests — at most one
///   blocking slot per victim access, and no more than the lower cores
///   have to issue: `min(d_v, Σ_lower d_j)` slots.
///
/// The bound is non-additive because of the blocking cap.
///
/// # Example
///
/// ```
/// use mia_arbiter::FixedPriority;
/// use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};
///
/// // Core id as priority: core 0 beats everyone.
/// let fp = FixedPriority::by_core_id();
/// let others = [InterfererDemand { core: CoreId(0), accesses: 6 }];
/// // Victim core 3 is lower priority: all 6 accesses delay it.
/// assert_eq!(fp.bank_interference(CoreId(3), 2, &others, Cycles(1)), Cycles(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedPriority {
    /// Priority per core index; cores beyond the vector use their own id.
    priorities: Vec<u32>,
}

impl FixedPriority {
    /// Priorities equal to core ids: core 0 highest.
    pub fn by_core_id() -> Self {
        FixedPriority {
            priorities: Vec::new(),
        }
    }

    /// Explicit priorities (`priorities[i]` is core *i*'s priority; lower
    /// wins). Cores beyond the table default to their own id.
    pub fn with_priorities(priorities: Vec<u32>) -> Self {
        FixedPriority { priorities }
    }

    fn priority(&self, core: CoreId) -> (u32, u32) {
        let p = self.priorities.get(core.index()).copied().unwrap_or(core.0);
        // Tie-break on core id to make the order total.
        (p, core.0)
    }
}

impl Arbiter for FixedPriority {
    fn name(&self) -> &str {
        "fixed-priority"
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        let vp = self.priority(victim);
        let higher: u64 = interferers
            .iter()
            .filter(|i| self.priority(i.core) < vp)
            .map(|i| i.accesses)
            .sum();
        let lower: u64 = interferers
            .iter()
            .filter(|i| self.priority(i.core) > vp)
            .map(|i| i.accesses)
            .sum();
        access_cycles * (higher + demand.min(lower))
    }

    fn is_additive(&self) -> bool {
        false
    }

    /// Two groups: the higher-priority cores (full term) and the
    /// lower-priority ones (capped term).
    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        let vp = self.priority(victim);
        let others = || {
            (0..cores)
                .map(CoreId::from_index)
                .filter(move |&c| c != victim)
        };
        let mut groups = InterfererGroups::new(cores);
        groups.push(GroupTerm::Full, others().filter(|&c| self.priority(c) < vp));
        groups.push(
            GroupTerm::Capped,
            others().filter(|&c| self.priority(c) > vp),
        );
        Some(groups)
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
    fn higher_priority_interferes_fully() {
        let fp = FixedPriority::by_core_id();
        let i = fp.bank_interference(CoreId(5), 1, &[demand(0, 100)], Cycles(1));
        assert_eq!(i, Cycles(100));
    }

    #[test]
    fn lower_priority_only_blocks() {
        let fp = FixedPriority::by_core_id();
        let i = fp.bank_interference(CoreId(0), 3, &[demand(5, 100)], Cycles(1));
        assert_eq!(i, Cycles(3));
        // Blocking is also capped by what the lower cores actually issue.
        let i = fp.bank_interference(CoreId(0), 50, &[demand(5, 2)], Cycles(1));
        assert_eq!(i, Cycles(2));
    }

    #[test]
    fn custom_priorities_invert_the_order() {
        let fp = FixedPriority::with_priorities(vec![9, 0]);
        // Core 1 now outranks core 0.
        let i = fp.bank_interference(CoreId(0), 1, &[demand(1, 7)], Cycles(1));
        assert_eq!(i, Cycles(7));
        let i = fp.bank_interference(CoreId(1), 4, &[demand(0, 7)], Cycles(1));
        assert_eq!(i, Cycles(4));
    }

    #[test]
    fn non_additive_blocking_cap() {
        let fp = FixedPriority::by_core_id();
        let a = fp.bank_interference(CoreId(0), 4, &[demand(1, 3)], Cycles(1));
        let b = fp.bank_interference(CoreId(0), 4, &[demand(2, 3)], Cycles(1));
        let ab = fp.bank_interference(CoreId(0), 4, &[demand(1, 3), demand(2, 3)], Cycles(1));
        assert_eq!(a + b, Cycles(6));
        assert_eq!(ab, Cycles(4)); // capped by victim demand
        assert!(!fp.is_additive());
    }

    #[test]
    fn empty_set_no_delay() {
        let fp = FixedPriority::by_core_id();
        assert_eq!(
            fp.bank_interference(CoreId(3), 9, &[], Cycles(2)),
            Cycles::ZERO
        );
    }
}
