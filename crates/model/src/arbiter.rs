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
