//! The bus-arbiter abstraction: the paper's `IBUS` function.
//!
//! Analyses never hard-code an arbitration policy; they consult an
//! [`Arbiter`] for the worst-case delay a task's accesses to one bank can
//! suffer from the accesses of other cores. Concrete policies (round-robin,
//! the Kalray MPPA-256 multi-level tree, TDM, fixed priority, FIFO) live in
//! the `mia-arbiter` crate.

use crate::{CoreId, Cycles};

/// Aggregated memory demand of one interfering core on one bank.
///
/// Following the paper's conservative hypothesis (§II.C), all tasks of a
/// core that interfere with a victim are merged into "a single big task,
/// summing their … memory accesses"; one `InterfererDemand` is that merged
/// demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterfererDemand {
    /// The interfering core.
    pub core: CoreId,
    /// Total accesses the core issues to the bank under consideration.
    pub accesses: u64,
}

/// A bus arbitration policy, abstracted as the worst-case interference
/// delay function `IBUS` of the paper's Algorithm 1 (line 23).
///
/// Implementations must be monotone: growing any interferer's demand, or
/// adding an interferer, must never decrease the returned delay. This is
/// the paper's §II.C assumption ("adding a new task to the program can only
/// increase the interference received by other tasks") and the property
/// that makes the incremental algorithm sound. The property-based tests in
/// `mia-arbiter` enforce it for every shipped policy.
///
/// Only [`name`](Arbiter::name) and
/// [`bank_interference`](Arbiter::bank_interference) are required. A
/// policy may also describe its structure, and `mia-core` then keeps a
/// bank's bound up to date in O(1) per update instead of re-evaluating
/// `IBUS` on the whole merged set:
///
/// * [`is_additive`](Arbiter::is_additive): the bound is a sum of one term
///   per interfering core (`rr`, `tdm`, `fifo`, `wrr`, `regulated`);
/// * [`interferer_groups`](Arbiter::interferer_groups): for a fixed victim
///   the bound is a sum of one term per group of cores, each a function of
///   the group's summed demand (`mppa`, `fp`, any `mia-arbiter`
///   arbitration tree).
///
/// A policy that declares neither is still exact; it costs one `IBUS`
/// evaluation over the merged set per update.
pub trait Arbiter {
    /// A short human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Worst-case extra delay (in cycles) suffered by `victim` while it
    /// performs `demand` accesses to a single bank, when the cores listed
    /// in `interferers` concurrently issue their own accesses to the same
    /// bank. `access_cycles` is the time one access occupies the bank.
    ///
    /// The victim never appears in `interferers`, each interfering core
    /// appears at most once, and entries with zero accesses are allowed
    /// (and must contribute no delay).
    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles;

    /// True if the policy is *additive*: the interference of a set equals
    /// the sum of the pairwise interferences
    /// (`IBUS(v, {a, b}) = IBUS(v, {a}) + IBUS(v, {b})`), exactly, in
    /// integer arithmetic, for every victim demand.
    ///
    /// The paper notes (§II.C) that "some bus arbiters have this additivity
    /// property, and exploiting this could simplify and speed up the
    /// algorithm". `mia-core` does: in its default per-core aggregation
    /// it reads this flag once per run, and for an additive policy it
    /// updates a bank's bound with [`additive_update`] when one core's
    /// merged demand grows, instead of re-evaluating the whole merged set.
    /// The results are bit-identical only if the claim holds exactly; the
    /// property tests in `mia-arbiter` check it for every shipped policy.
    fn is_additive(&self) -> bool {
        false
    }

    /// The interferers of `victim` on a platform of `cores` cores,
    /// partitioned into groups whose delay depends only on each group's
    /// summed demand, or `None` (the default) when the policy declares no
    /// such structure.
    ///
    /// With groups `g`, term kinds `term_g` and `S_g` the sum of the
    /// members' merged demands, the policy must satisfy, for every
    /// victim demand `demand > 0` and every interferer set over cores
    /// `0..cores`,
    ///
    /// ```text
    /// bank_interference(victim, demand, S, a) = a × Σ_g term_g.slots(demand, S_g)
    /// ```
    ///
    /// exactly, in integer arithmetic. A core in no group contributes
    /// nothing. The round-robin and fixed-priority stages of an
    /// arbitration tree and flat fixed priority are sums of this kind.
    ///
    /// `mia-core` reads the groups once per victim core and run. When one
    /// core's merged demand grows by `d`, only its group's term changes,
    /// so a bank's bound moves by `a × (term(S_g + d) − term(S_g))`, O(1)
    /// per update, instead of re-evaluating the whole merged set. The
    /// property tests in `mia-arbiter` check the identity for every
    /// shipped policy that declares groups.
    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        let _ = (victim, cores);
        None
    }
}

/// How one group of interferers delays a victim, given the group's
/// summed demand `sum` and the victim's `demand` on the bank (see
/// [`Arbiter::interferer_groups`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupTerm {
    /// Every access of the group delays the victim: `sum` slots (the
    /// higher-priority side of a fixed-priority stage).
    Full,
    /// At most one slot per victim access: `min(demand, sum)` slots (a
    /// round-robin opponent, or the blocking lower-priority side of a
    /// fixed-priority stage).
    Capped,
}

impl GroupTerm {
    /// The access slots a group with summed demand `sum` costs a victim
    /// with `demand` accesses.
    #[inline]
    pub fn slots(self, demand: u64, sum: u64) -> u64 {
        match self {
            GroupTerm::Full => sum,
            GroupTerm::Capped => demand.min(sum),
        }
    }

    /// The slots the term gains when the group's summed demand grows from
    /// `sum` by `added`: `slots(demand, sum + added) − slots(demand, sum)`,
    /// the whole change of the victim's bound (in access slots) when one
    /// member's merged demand grows.
    #[inline]
    pub fn delta(self, demand: u64, sum: u64, added: u64) -> u64 {
        self.slots(demand, sum + added) - self.slots(demand, sum)
    }
}

/// One victim's interferers partitioned into groups, each with its
/// [`GroupTerm`]: the structure an [`Arbiter::interferer_groups`]
/// declares.
///
/// # Example
///
/// A victim that loses to core 1 on every access and is blocked at most
/// once per access by cores 2 and 3 together (fixed priority):
///
/// ```
/// use mia_model::arbiter::{GroupTerm, InterfererGroups};
/// use mia_model::CoreId;
///
/// let mut groups = InterfererGroups::new(4);
/// groups.push(GroupTerm::Full, [CoreId(1)]);
/// groups.push(GroupTerm::Capped, [CoreId(2), CoreId(3)]);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups.group_of(CoreId(3)), Some(1));
/// assert_eq!(groups.group_of(CoreId(0)), None);
/// // Victim demand 5; core 1 issues 4, cores 2 and 3 issue 3 each.
/// let slots = groups.term(0).slots(5, 4) + groups.term(1).slots(5, 3 + 3);
/// assert_eq!(slots, 9);
/// // Core 2 issues 2 more: only the blocking term moves, and it is capped.
/// assert_eq!(groups.term(1).delta(5, 3 + 3, 2), 0);
/// // Core 1 issues 2 more: every one of them delays the victim.
/// assert_eq!(groups.term(0).delta(5, 4, 2), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfererGroups {
    /// Group of each core, or [`InterfererGroups::NONE`].
    group_of: Vec<u32>,
    /// Term of each group.
    terms: Vec<GroupTerm>,
}

impl InterfererGroups {
    /// `group_of` entry of a core in no group.
    const NONE: u32 = u32::MAX;

    /// No groups yet, on a platform of `cores` cores.
    pub fn new(cores: usize) -> Self {
        InterfererGroups {
            group_of: vec![Self::NONE; cores],
            terms: Vec::new(),
        }
    }

    /// Adds a group of `members` with `term`. Members at or past the
    /// platform's core count never interfere and are left out; a group
    /// left with no member is not added.
    ///
    /// # Panics
    ///
    /// Panics if a member already belongs to a group.
    pub fn push(&mut self, term: GroupTerm, members: impl IntoIterator<Item = CoreId>) {
        let group = u32::try_from(self.terms.len()).expect("fewer than 2^32 groups");
        let mut any = false;
        for core in members {
            let Some(slot) = self.group_of.get_mut(core.index()) else {
                continue;
            };
            assert!(
                *slot == Self::NONE,
                "core {core} belongs to more than one interferer group"
            );
            *slot = group;
            any = true;
        }
        if any {
            self.terms.push(term);
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no core interferes.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The group of `core`, or `None` when it is in no group (the victim
    /// itself, or a core past the platform's count).
    pub fn group_of(&self, core: CoreId) -> Option<usize> {
        self.group_of
            .get(core.index())
            .copied()
            .filter(|&g| g != Self::NONE)
            .map(|g| g as usize)
    }

    /// The term of `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= len()`.
    pub fn term(&self, group: usize) -> GroupTerm {
        self.terms[group]
    }
}

/// The bound of an additive arbiter after one interfering core's merged
/// demand grows by `added` accesses.
///
/// `bound` is `IBUS(victim, demand, S)` for the set `S` before the
/// update, and `from` is the core's entry in `S` (`accesses: 0` when it
/// was not in `S`). Only that core's term of the sum changes, so the new
/// bound is
///
/// ```text
/// bound − IBUS(victim, demand, {from}) + IBUS(victim, demand, {from + added})
/// ```
///
/// at most two `IBUS` calls on one interferer each, whatever the size of
/// `S`; a term with zero accesses is zero and is not evaluated. Exact for
/// an [`Arbiter::is_additive`] policy; meaningless for any other.
///
/// # Example
///
/// ```
/// use mia_model::arbiter::{additive_update, Arbiter, InterfererDemand};
/// use mia_model::{CoreId, Cycles};
///
/// /// Round-robin: Σ min(d_v, d_j) access slots.
/// struct Rr;
/// impl Arbiter for Rr {
///     fn name(&self) -> &str { "rr" }
///     fn bank_interference(&self, _: CoreId, d: u64, s: &[InterfererDemand], a: Cycles) -> Cycles {
///         a * s.iter().map(|i| d.min(i.accesses)).sum::<u64>()
///     }
///     fn is_additive(&self) -> bool { true }
/// }
///
/// // Victim with 10 accesses; core 1 already has 4, core 2 has 7.
/// let bound = Cycles(4 + 7);
/// let from = InterfererDemand { core: CoreId(1), accesses: 4 };
/// // Core 1 grows by 9 to 13 accesses: its term goes from 4 to 10.
/// assert_eq!(additive_update(&Rr, CoreId(0), 10, bound, from, 9, Cycles(1)), Cycles(17));
/// ```
#[inline]
pub fn additive_update<A: Arbiter + ?Sized>(
    arbiter: &A,
    victim: CoreId,
    demand: u64,
    bound: Cycles,
    from: InterfererDemand,
    added: u64,
    access_cycles: Cycles,
) -> Cycles {
    let term = |accesses: u64| {
        if accesses == 0 {
            return Cycles::ZERO;
        }
        let one = [InterfererDemand {
            core: from.core,
            accesses,
        }];
        arbiter.bank_interference(victim, demand, &one, access_cycles)
    };
    // Saturating: a policy that wrongly claims additivity must not make
    // the subtraction underflow.
    bound.saturating_sub(term(from.accesses)) + term(from.accesses + added)
}

impl<A: Arbiter + ?Sized> Arbiter for &A {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        (**self).bank_interference(victim, demand, interferers, access_cycles)
    }

    fn is_additive(&self) -> bool {
        (**self).is_additive()
    }

    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        (**self).interferer_groups(victim, cores)
    }
}

impl<A: Arbiter + ?Sized> Arbiter for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        (**self).bank_interference(victim, demand, interferers, access_cycles)
    }

    fn is_additive(&self) -> bool {
        (**self).is_additive()
    }

    fn interferer_groups(&self, victim: CoreId, cores: usize) -> Option<InterfererGroups> {
        (**self).interferer_groups(victim, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial arbiter for testing the object-safety and blanket impls.
    struct Null;

    impl Arbiter for Null {
        fn name(&self) -> &str {
            "null"
        }

        fn bank_interference(
            &self,
            _victim: CoreId,
            _demand: u64,
            _interferers: &[InterfererDemand],
            _access_cycles: Cycles,
        ) -> Cycles {
            Cycles::ZERO
        }

        fn is_additive(&self) -> bool {
            true
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Arbiter> = Box::new(Null);
        assert_eq!(boxed.name(), "null");
        assert_eq!(
            boxed.bank_interference(CoreId(0), 10, &[], Cycles(1)),
            Cycles::ZERO
        );
        assert!(boxed.is_additive());
        assert!(boxed.interferer_groups(CoreId(0), 4).is_none());
    }

    #[test]
    fn reference_impl_delegates() {
        let a = Null;
        let r: &dyn Arbiter = &a;
        fn takes_arbiter<A: Arbiter>(a: A) -> Cycles {
            a.bank_interference(CoreId(1), 5, &[], Cycles(2))
        }
        assert_eq!(takes_arbiter(r), Cycles::ZERO);
    }
}
