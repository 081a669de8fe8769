//! The central validation of the whole workspace: on randomly generated
//! workloads, the response times computed by the analyses are never
//! exceeded by the simulated execution, for any access pattern.

use mia_arbiter::{Fifo, RoundRobin, Tdm};
use mia_dag_gen::{Family, LayeredDag, LayeredDagConfig};
use mia_model::{Arbiter, Cycles, Platform, Problem};
use mia_sim::{simulate, AccessPattern, BusPolicy, SimConfig};
use proptest::prelude::*;

/// A generator configuration whose tasks always fit their accesses inside
/// their WCET (the simulator's execution model).
fn sim_friendly(family: Family, total: usize, seed: u64) -> LayeredDagConfig {
    let mut cfg = family.config(total, seed);
    cfg.accesses = 50..=150;
    cfg.edge_words = 0..=10;
    cfg.edge_probability = 0.3;
    cfg
}

fn build(family: Family, total: usize, seed: u64) -> Problem {
    LayeredDag::new(sim_friendly(family, total, seed))
        .generate()
        .into_problem(&Platform::mppa256_cluster())
        .expect("generated workload is valid")
}

const PATTERNS: [AccessPattern; 4] = [
    AccessPattern::BurstStart,
    AccessPattern::BurstEnd,
    AccessPattern::Uniform,
    AccessPattern::Random,
];

#[test]
fn incremental_analysis_bounds_all_patterns() {
    for seed in 0..4 {
        let p = build(Family::FixedLayerSize(16), 96, seed);
        let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
        s.check(&p).unwrap();
        for pattern in PATTERNS {
            let r = simulate(&p, &s, &SimConfig::new(pattern).seed(seed)).unwrap();
            assert_eq!(
                r.first_violation(&s),
                None,
                "pattern {pattern:?}, seed {seed}"
            );
            assert!(r.makespan() <= s.makespan());
        }
    }
}

#[test]
fn baseline_analysis_bounds_all_patterns() {
    for seed in 0..2 {
        let p = build(Family::FixedLayers(4), 64, seed);
        let s = mia_baseline::analyze(&p, &RoundRobin::new()).unwrap();
        s.check(&p).unwrap();
        for pattern in PATTERNS {
            let r = simulate(&p, &s, &SimConfig::new(pattern).seed(seed)).unwrap();
            assert_eq!(
                r.first_violation(&s),
                None,
                "pattern {pattern:?}, seed {seed}"
            );
        }
    }
}

#[test]
fn dominating_arbiters_also_bound_execution() {
    // FIFO and TDM bounds dominate flat round-robin, so their schedules
    // are also sound against the round-robin hardware.
    let p = build(Family::FixedLayerSize(8), 64, 3);
    for arbiter in [&Fifo::new() as &dyn Arbiter, &Tdm::new()] {
        let s = mia_core::analyze(&p, arbiter).unwrap();
        for pattern in PATTERNS {
            let r = simulate(&p, &s, &SimConfig::new(pattern)).unwrap();
            assert_eq!(
                r.first_violation(&s),
                None,
                "arbiter {}, pattern {pattern:?}",
                arbiter.name()
            );
        }
    }
}

#[test]
fn mppa_tree_analysis_bounds_tree_hardware() {
    let p = build(Family::FixedLayerSize(8), 64, 4);
    let s = mia_core::analyze(&p, &mia_arbiter::MppaTree::cluster16()).unwrap();
    for pattern in PATTERNS {
        let cfg = SimConfig::new(pattern).bus(BusPolicy::Tree { group: 2 });
        let r = simulate(&p, &s, &cfg).unwrap();
        assert_eq!(r.first_violation(&s), None, "pattern {pattern:?}");
    }
}

#[test]
fn observed_interference_is_within_analysed_interference() {
    let p = build(Family::FixedLayerSize(16), 128, 5);
    let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
    let r = simulate(&p, &s, &SimConfig::new(AccessPattern::BurstStart)).unwrap();
    for (id, _) in p.graph().iter() {
        assert!(
            r.stall(id) <= s.timing(id).interference,
            "task {id}: observed {} > analysed {}",
            r.stall(id),
            s.timing(id).interference
        );
    }
}

#[test]
fn zero_interference_schedule_simulates_exactly() {
    // Single core: no interference possible; the simulation reproduces
    // the analysed schedule cycle for cycle.
    let mut cfg = sim_friendly(Family::FixedLayerSize(4), 16, 6);
    cfg.cores = 1;
    let p = LayeredDag::new(cfg)
        .generate()
        .into_problem(&Platform::mppa256_cluster())
        .unwrap();
    let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
    assert_eq!(s.total_interference(), Cycles::ZERO);
    let r = simulate(&p, &s, &SimConfig::new(AccessPattern::Uniform)).unwrap();
    for (id, _) in p.graph().iter() {
        assert_eq!(r.finish(id), s.timing(id).finish());
        assert_eq!(r.stall(id), Cycles::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn soundness_holds_for_random_workloads(
        seed in 0u64..10_000,
        total in 16usize..96,
        ls in prop::sample::select(vec![4usize, 8, 16]),
        pattern in prop::sample::select(PATTERNS.to_vec()),
    ) {
        let p = build(Family::FixedLayerSize(ls), total, seed);
        let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
        let r = simulate(&p, &s, &SimConfig::new(pattern).seed(seed)).unwrap();
        prop_assert_eq!(r.first_violation(&s), None);
        prop_assert!(r.makespan() <= s.makespan());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The trace aggregates agree with the per-task result: total grants
    /// equal the workload's total demand and total stalls match the
    /// per-task stall sum.
    #[test]
    fn trace_aggregates_are_consistent(
        seed in 0u64..10_000,
        total in 16usize..64,
        pattern in prop::sample::select(PATTERNS.to_vec()),
    ) {
        let p = build(Family::FixedLayerSize(8), total, seed);
        let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
        let (r, trace) =
            mia_sim::simulate_traced(&p, &s, &SimConfig::new(pattern).seed(seed)).unwrap();
        let total_demand: u64 = p.demands().iter().map(|d| d.total()).sum();
        let total_grants: u64 = (0..p.platform().banks())
            .map(|b| trace.bank_stats().grants(mia_model::BankId::from_index(b)))
            .sum();
        prop_assert_eq!(total_grants, total_demand);
        prop_assert_eq!(
            Cycles(trace.bank_stats().total_stalls()),
            r.total_stall()
        );
        // Every task starts exactly once and finishes exactly once.
        prop_assert_eq!(trace.starts().count(), p.len());
        prop_assert_eq!(trace.finishes().count(), p.len());
    }

    /// Fault injection: a WCET overrun larger than the task's whole
    /// analysed window is always detected by violation checking.
    #[test]
    fn gross_overruns_are_always_detected(
        seed in 0u64..10_000,
        total in 16usize..48,
        victim_sel in 0usize..16,
    ) {
        let p = build(Family::FixedLayerSize(8), total, seed);
        let s = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
        let victim = mia_model::TaskId::from_index(victim_sel % p.len());
        let window = s.timing(victim).response_time();
        let plan = mia_sim::FaultPlan::new().overrun(victim, window + Cycles(1));
        let faulty = mia_sim::apply_faults(&p, &plan).unwrap();
        let r = simulate(&faulty, &s, &SimConfig::new(AccessPattern::BurstStart)).unwrap();
        prop_assert!(r.first_violation(&s).is_some());
    }
}
