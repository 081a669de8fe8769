//! Property tests of the incremental rules.
//!
//! `mia-core`'s default per-core aggregation keeps one running bound per
//! bank and updates it each time one core's merged demand grows, instead
//! of re-evaluating `IBUS` on the whole merged set:
//!
//! * for an additive policy with [`additive_update`];
//! * for a policy that declares [`Arbiter::interferer_groups`] by
//!   swapping the term of the source's group,
//!   `bound += access × (term(S_g + d) − term(S_g))`.
//!
//! That is only sound if the running bound stays *equal* to the full
//! evaluation after every update. This suite drives random sequences of
//! `(core, accesses)` adds — repeated cores, zero-access adds, cores past
//! the 16-core cluster — through every additive policy and every grouped
//! one (`mppa` on 64 cores, uneven MPPA trees, fixed priority with drawn
//! priorities, random round-robin/fixed-priority trees, with victims
//! inside and outside the trees) and checks exactly that.

use std::collections::BTreeMap;

use mia_arbiter::{
    Arbiter, ArbitrationNode, ArbitrationTree, FixedPriority, InterfererDemand, MppaTree,
    Regulated, WeightedRoundRobin, REGISTRY,
};
use mia_model::arbiter::additive_update;
use mia_model::{CoreId, Cycles};
use proptest::prelude::*;

mod common;

/// Cores an add draws from.
const CORES: u32 = 64;

/// Every additive [`REGISTRY`] policy with its command-line defaults,
/// plus `wrr` and `regulated` with the drawn weights and cap.
fn additive_policies(weights: Vec<u64>, budget: u64, period: u64) -> Vec<Box<dyn Arbiter>> {
    let mut policies: Vec<Box<dyn Arbiter>> = REGISTRY
        .iter()
        .map(|entry| mia_arbiter::by_name(entry.canonical).expect("registry resolves"))
        .filter(|p| p.is_additive())
        .map(|p| p as Box<dyn Arbiter>)
        .collect();
    policies.push(Box::new(WeightedRoundRobin::new(weights)));
    policies.push(Box::new(Regulated::new(budget, period)));
    policies
}

/// A sequence of adds: half of the draws come from 8 cores so repeats
/// are common; a third of the access counts are zero.
fn adds() -> impl Strategy<Value = Vec<(u32, u64)>> {
    let core = prop_oneof![0u32..8, 0u32..CORES];
    let accesses = prop_oneof![Just(0u64), 1u64..600, 1u64..600];
    proptest::collection::vec((core, accesses), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn running_bound_equals_full_evaluation(
        victim in 0u32..CORES,
        demand in 0u64..600,
        access in 1u64..4,
        sequence in adds(),
        weights in proptest::collection::vec(0u64..5, 0..CORES as usize),
        budget in 0u64..16,
        period in 1u64..256,
    ) {
        let victim = CoreId(victim);
        let access = Cycles(access);
        for p in additive_policies(weights.clone(), budget, period) {
            // The merged per-core demand, ascending by core like the
            // analysis's `DemandMerge::bank_set`.
            let mut merged: BTreeMap<CoreId, u64> = BTreeMap::new();
            let mut bound = Cycles::ZERO;
            for &(core, accesses) in &sequence {
                let core = CoreId(core);
                if core == victim {
                    continue;
                }
                let entry = merged.entry(core).or_insert(0);
                let from = InterfererDemand { core, accesses: *entry };
                *entry += accesses;
                bound = additive_update(&*p, victim, demand, bound, from, accesses, access);

                let set: Vec<InterfererDemand> = merged
                    .iter()
                    .map(|(&core, &accesses)| InterfererDemand { core, accesses })
                    .collect();
                let full = p.bank_interference(victim, demand, &set, access);
                prop_assert_eq!(
                    bound, full,
                    "policy {} after adding {} accesses of {}", p.name(), accesses, core
                );
            }
        }
    }
}

/// A random tree (see [`common::random_tree`]) with its core span.
fn tree() -> BoxedStrategy<(ArbitrationNode, u32)> {
    BoxedStrategy::from_fn(|rng| common::random_tree(rng, 40, 0))
}

/// Every grouped policy under test, each with the platform core count it
/// is checked on: the `mppa` cluster on 64 cores (48 cores outside the
/// tree), an MPPA tree of `mppa_cores` cores in groups of `group` whose
/// last group is short, fixed priority with the drawn table, and the
/// drawn tree on its span (half of its cores outside it).
fn grouped_policies(
    mppa_groups: u64,
    group: u64,
    priorities: Vec<u32>,
    (root, span): (ArbitrationNode, u32),
) -> Vec<(Box<dyn Arbiter>, u32)> {
    // `mppa_groups` full groups and one short one.
    let mppa_cores = mppa_groups * group + 1 + (group - 1) / 2;
    vec![
        (Box::new(MppaTree::cluster16()), CORES),
        (
            Box::new(MppaTree::new(mppa_cores as usize, group as usize)),
            CORES,
        ),
        (Box::new(FixedPriority::with_priorities(priorities)), CORES),
        (Box::new(ArbitrationTree::new(root)), span),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn running_group_sums_equal_full_evaluation(
        victim in 0u32..CORES,
        demand in 1u64..600,
        access in 1u64..4,
        sequence in adds(),
        mppa_groups in 1u64..12,
        group in 2u64..6,
        priorities in proptest::collection::vec(0u32..8, 0..CORES as usize),
        tree in tree(),
    ) {
        let access = Cycles(access);
        for (p, cores) in grouped_policies(mppa_groups, group, priorities.clone(), tree.clone()) {
            let victim = CoreId(victim % cores);
            let groups = p
                .interferer_groups(victim, cores as usize)
                .unwrap_or_else(|| panic!("{} declares no groups", p.name()));
            let mut sums = vec![0u64; groups.len()];
            let mut merged: BTreeMap<CoreId, u64> = BTreeMap::new();
            let mut bound = Cycles::ZERO;
            for &(core, accesses) in &sequence {
                let core = CoreId(core % cores);
                if core == victim {
                    continue;
                }
                *merged.entry(core).or_insert(0) += accesses;
                if let Some(g) = groups.group_of(core) {
                    bound += access * groups.term(g).delta(demand, sums[g], accesses);
                    sums[g] += accesses;
                }

                let set: Vec<InterfererDemand> = merged
                    .iter()
                    .map(|(&core, &accesses)| InterfererDemand { core, accesses })
                    .collect();
                let full = p.bank_interference(victim, demand, &set, access);
                prop_assert_eq!(
                    bound, full,
                    "policy {} on {} cores, victim {}, after adding {} accesses of {}",
                    p.name(), cores, victim, accesses, core
                );
            }
        }
    }
}
