//! Full-framework integration: dataflow program → mapping → interference
//! analysis → simulation (the pipeline of the paper's §I, which takes
//! WCETs in isolation as inputs).

use mia::prelude::*;
use mia::sim::{simulate, AccessPattern, SimConfig};
use mia::{mapping_heuristics, sdf};

const APP: &str = "
actor sensor wcet=60  accesses=10
actor fusion wcet=180 accesses=20
actor plan   wcet=240 accesses=30
actor act    wcet=90  accesses=12
channel sensor -> fusion produce=2 consume=2 words=4
channel fusion -> plan   produce=1 consume=1 words=6
channel plan   -> act    produce=1 consume=1 words=3
";

#[test]
fn sdf_to_schedule_to_simulation() {
    let graph = sdf::parse(APP).unwrap();
    let expansion = graph.expand(2).unwrap();
    let mapping = mapping_heuristics::earliest_finish(&expansion.graph, 4).unwrap();
    let problem = Problem::new(expansion.graph, mapping, Platform::new(4, 4)).unwrap();
    let schedule = mia::analysis::analyze(&problem, &RoundRobin::new()).unwrap();
    schedule.check(&problem).unwrap();
    for pattern in [AccessPattern::BurstStart, AccessPattern::Uniform] {
        let run = simulate(&problem, &schedule, &SimConfig::new(pattern)).unwrap();
        assert!(run.first_violation(&schedule).is_none());
    }
}

#[test]
fn wcet_estimates_feed_the_analysis() {
    // Two kernels with WCETs in isolation from a static analyser: a DSP
    // loop (30 + 32 × 7 cycles) and a branchy controller (16 × 14).
    let mut g = TaskGraph::new();
    let a = g.add_task(
        Task::builder("dsp")
            .wcet(Cycles(254))
            .private_demand(BankDemand::single(BankId(0), 38)),
    );
    let b = g.add_task(
        Task::builder("ctrl")
            .wcet(Cycles(224))
            .private_demand(BankDemand::single(BankId(0), 32)),
    );
    g.add_edge(a, b, 8).unwrap();
    let m = mapping_heuristics::load_balanced(&g, 2).unwrap();
    let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    // Dependent tasks on different cores cannot overlap: no interference.
    assert_eq!(s.total_interference(), Cycles::ZERO);
    assert_eq!(
        s.makespan(),
        p.graph().critical_path().unwrap(),
        "chain matches its critical path"
    );
}

#[test]
fn mapping_strategies_change_interference_not_soundness() {
    let graph = sdf::parse(APP).unwrap().expand(4).unwrap().graph;
    for cores in [2usize, 4] {
        for mapping in [
            mapping_heuristics::layered_cyclic(&graph, cores).unwrap(),
            mapping_heuristics::load_balanced(&graph, cores).unwrap(),
            mapping_heuristics::earliest_finish(&graph, cores).unwrap(),
            mapping_heuristics::heft(&graph, cores, 1).unwrap(),
        ] {
            let p = Problem::new(graph.clone(), mapping, Platform::new(cores, cores)).unwrap();
            let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
            s.check(&p).unwrap();
            assert!(s.makespan() >= p.graph().critical_path().unwrap());
            let run = simulate(&p, &s, &SimConfig::new(AccessPattern::Uniform)).unwrap();
            assert!(run.first_violation(&s).is_none());
        }
    }
}

#[test]
fn deadline_separates_schedulable_from_unschedulable() {
    use mia::analysis::{analyze_with, AnalysisOptions, NoopObserver};
    let graph = sdf::parse(APP).unwrap().expand(1).unwrap().graph;
    let mapping = mapping_heuristics::earliest_finish(&graph, 2).unwrap();
    let p = Problem::new(graph, mapping, Platform::new(2, 2)).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    let tight = AnalysisOptions::new().deadline(s.makespan() - Cycles(1));
    assert!(matches!(
        analyze_with(&p, &RoundRobin::new(), &tight, &mut NoopObserver),
        Err(mia::analysis::AnalysisError::DeadlineExceeded { .. })
    ));
    let exact = AnalysisOptions::new().deadline(s.makespan());
    assert!(analyze_with(&p, &RoundRobin::new(), &exact, &mut NoopObserver).is_ok());
}
