//! Property-based tests of the arbiter axioms every policy must satisfy.
//!
//! The incremental analysis of `mia-core` fixes a task's release date
//! forever the moment it opens; its soundness rests on the arbiter being
//! *monotone* (paper §II.C: "adding a new task to the program can only
//! increase the interference received by other tasks"). These tests
//! enforce, for every shipped policy:
//!
//! 1. the empty interferer set yields zero delay,
//! 2. zero-demand interferers contribute nothing,
//! 3. growing an interferer's demand never decreases the delay,
//! 4. adding an interferer never decreases the delay,
//! 5. growing the victim's demand never decreases the delay,
//! 6. policies that claim additivity really are additive.

use mia_arbiter::{
    Arbiter, Fifo, FixedPriority, InterfererDemand, MppaTree, Regulated, RoundRobin, Tdm,
    WeightedRoundRobin,
};
use mia_model::{CoreId, Cycles};
use proptest::prelude::*;

fn policies() -> Vec<Box<dyn Arbiter>> {
    vec![
        Box::new(RoundRobin::new()),
        Box::new(MppaTree::cluster16()),
        Box::new(MppaTree::new(16, 4)),
        Box::new(Tdm::new()),
        Box::new(FixedPriority::by_core_id()),
        Box::new(FixedPriority::with_priorities(vec![3, 1, 4, 1, 5, 9, 2, 6])),
        Box::new(Fifo::new()),
        Box::new(WeightedRoundRobin::default()),
        Box::new(WeightedRoundRobin::new(vec![2, 1, 4, 1, 1, 3, 1, 2])),
        Box::new(Regulated::new(4, 64)),
        Box::new(Regulated::new(1, 1_000)),
    ]
}

/// Cores a scenario draws from: wider than the 16-core MPPA cluster tree,
/// so its implicit top-level input for cores outside the tree is covered.
const CORES: u32 = 64;

/// Strategy: victim core, victim demand, and distinct interferer demands.
fn scenario() -> impl Strategy<Value = (CoreId, u64, Vec<InterfererDemand>)> {
    (0u32..CORES, 0u64..600).prop_flat_map(|(victim, demand)| {
        let interferers = proptest::collection::btree_map(
            (0u32..CORES).prop_filter("not victim", move |&c| c != victim),
            0u64..600,
            0..8,
        )
        .prop_map(|m| {
            m.into_iter()
                .map(|(core, accesses)| InterfererDemand {
                    core: CoreId(core),
                    accesses,
                })
                .collect::<Vec<_>>()
        });
        (Just(CoreId(victim)), Just(demand), interferers)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn empty_set_yields_zero((victim, demand, _) in scenario()) {
        for p in policies() {
            prop_assert_eq!(
                p.bank_interference(victim, demand, &[], Cycles(1)),
                Cycles::ZERO,
                "policy {}", p.name()
            );
        }
    }

    #[test]
    fn zero_demand_interferers_contribute_nothing((victim, demand, set) in scenario()) {
        for p in policies() {
            let with_zeros: Vec<InterfererDemand> = set
                .iter()
                .copied()
                .chain(
                    (0..CORES)
                        .map(CoreId)
                        .filter(|&c| c != victim && !set.iter().any(|i| i.core == c))
                        .map(|core| InterfererDemand { core, accesses: 0 }),
                )
                .collect();
            let base = p.bank_interference(victim, demand, &set, Cycles(1));
            let padded = p.bank_interference(victim, demand, &with_zeros, Cycles(1));
            prop_assert_eq!(base, padded, "policy {}", p.name());
        }
    }

    #[test]
    fn monotone_in_interferer_demand((victim, demand, set) in scenario(), extra in 1u64..200) {
        if set.is_empty() {
            return Ok(());
        }
        for p in policies() {
            let base = p.bank_interference(victim, demand, &set, Cycles(1));
            for k in 0..set.len() {
                let mut grown = set.clone();
                grown[k].accesses += extra;
                let after = p.bank_interference(victim, demand, &grown, Cycles(1));
                prop_assert!(after >= base, "policy {} shrank on demand growth", p.name());
            }
        }
    }

    #[test]
    fn monotone_in_set_growth((victim, demand, set) in scenario()) {
        if set.len() < 2 {
            return Ok(());
        }
        for p in policies() {
            let full = p.bank_interference(victim, demand, &set, Cycles(1));
            let without_last = &set[..set.len() - 1];
            let partial = p.bank_interference(victim, demand, without_last, Cycles(1));
            prop_assert!(full >= partial, "policy {} shrank on set growth", p.name());
        }
    }

    #[test]
    fn monotone_in_victim_demand((victim, demand, set) in scenario(), extra in 1u64..200) {
        for p in policies() {
            let base = p.bank_interference(victim, demand, &set, Cycles(1));
            let after = p.bank_interference(victim, demand + extra, &set, Cycles(1));
            prop_assert!(after >= base, "policy {} shrank on victim growth", p.name());
        }
    }

    #[test]
    fn claimed_additivity_holds((victim, demand, set) in scenario()) {
        for p in policies().into_iter().filter(|p| p.is_additive()) {
            let whole = p.bank_interference(victim, demand, &set, Cycles(1));
            let sum: Cycles = set
                .iter()
                .map(|&i| p.bank_interference(victim, demand, &[i], Cycles(1)))
                .sum();
            prop_assert_eq!(whole, sum, "policy {} is not additive", p.name());
        }
    }

    #[test]
    fn access_cycles_scale_linearly((victim, demand, set) in scenario(), scale in 1u64..8) {
        for p in policies() {
            let unit = p.bank_interference(victim, demand, &set, Cycles(1));
            let scaled = p.bank_interference(victim, demand, &set, Cycles(scale));
            prop_assert_eq!(unit * scale, scaled, "policy {}", p.name());
        }
    }

    #[test]
    fn round_robin_is_the_floor_of_fifo_and_tdm((victim, demand, set) in scenario()) {
        let rr = RoundRobin::new();
        let fifo = Fifo::new();
        let tdm = Tdm::new();
        let r = rr.bank_interference(victim, demand, &set, Cycles(1));
        prop_assert!(fifo.bank_interference(victim, demand, &set, Cycles(1)) >= r);
        prop_assert!(tdm.bank_interference(victim, demand, &set, Cycles(1)) >= r);
    }

    #[test]
    fn mppa_tree_never_exceeds_flat_rr((victim, demand, set) in scenario()) {
        let m = MppaTree::cluster16();
        let rr = RoundRobin::new();
        let tree = m.bank_interference(victim, demand, &set, Cycles(1));
        let flat = rr.bank_interference(victim, demand, &set, Cycles(1));
        prop_assert!(tree <= flat);
    }
}
