//! Time-division-multiplexing style arbitration.

use mia_model::arbiter::{Arbiter, InterfererDemand};
use mia_model::{CoreId, Cycles};

/// A TDM-like arbitration bound: every victim access may wait one slot for
/// **each** interfering core that is active on the bank, regardless of how
/// few accesses that core still has to issue:
///
/// ```text
/// I(victim, S) = d_v · |{ j ∈ S : d_j > 0 }| · slot_cycles
/// ```
///
/// This is the bound a slot-based arbiter (or a round-robin analysis that
/// ignores interferer demand counts) yields. It always dominates
/// [`RoundRobin`](crate::RoundRobin) — useful in the arbiter-pessimism
/// ablation (A3 of the `ablation` bench binary) and as the model for
/// platforms where slot reservations are static.
///
/// The bound is additive: each active interferer contributes `d_v` slots
/// independently.
///
/// # Example
///
/// ```
/// use mia_arbiter::Tdm;
/// use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};
///
/// let tdm = Tdm::new();
/// let others = [InterfererDemand { core: CoreId(1), accesses: 1 }];
/// // Even a single interfering access reserves a slot per victim access.
/// assert_eq!(tdm.bank_interference(CoreId(0), 10, &others, Cycles(1)), Cycles(10));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tdm {
    _priv: (),
}

impl Tdm {
    /// Creates the policy (slot length = the platform's access time).
    pub fn new() -> Self {
        Tdm { _priv: () }
    }
}

impl Arbiter for Tdm {
    fn name(&self) -> &str {
        "tdm"
    }

    fn bank_interference(
        &self,
        _victim: CoreId,
        demand: u64,
        interferers: &[InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        let active = interferers.iter().filter(|i| i.accesses > 0).count() as u64;
        access_cycles * demand * active
    }

    fn is_additive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundRobin;

    fn demands(ds: &[u64]) -> Vec<InterfererDemand> {
        ds.iter()
            .enumerate()
            .map(|(i, &accesses)| InterfererDemand {
                core: CoreId(i as u32 + 1),
                accesses,
            })
            .collect()
    }

    #[test]
    fn counts_active_interferers_only() {
        let tdm = Tdm::new();
        let i = tdm.bank_interference(CoreId(0), 5, &demands(&[3, 0, 9]), Cycles(1));
        assert_eq!(i, Cycles(10));
    }

    #[test]
    fn empty_set_no_delay() {
        let tdm = Tdm::new();
        assert_eq!(
            tdm.bank_interference(CoreId(0), 5, &[], Cycles(1)),
            Cycles::ZERO
        );
    }

    #[test]
    fn dominates_round_robin() {
        let tdm = Tdm::new();
        let rr = RoundRobin::new();
        for victim_demand in [0u64, 1, 5, 100] {
            let ds = demands(&[2, 50, 7]);
            let t = tdm.bank_interference(CoreId(0), victim_demand, &ds, Cycles(1));
            let r = rr.bank_interference(CoreId(0), victim_demand, &ds, Cycles(1));
            assert!(t >= r, "TDM {t} must dominate RR {r}");
        }
    }

    #[test]
    fn additive_and_named() {
        assert!(Tdm::new().is_additive());
        assert_eq!(Tdm::new().name(), "tdm");
    }
}
