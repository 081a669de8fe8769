//! Integration of the surrounding substrates with the core analysis:
//! NoC-gated releases and sporadic MRTA, composed the way a full
//! deployment would.

use mia::arbiters::{Fifo, Regulated, RoundRobin, Tdm};
use mia::mrta::{
    analyze as analyze_mrta, simulate_sporadic, SporadicSimConfig, SporadicSystem, SporadicTask,
};
use mia::noc::{simulate_flows, worst_case_latencies, Flow, FlowSet, NocConfig, Torus};
use mia::prelude::*;

/// NoC-gated releases compose: the consumer entry task is never analysed
/// to start before the worst-case frame arrival, and the flow simulator
/// confirms the arrival bound.
#[test]
fn noc_bounds_gate_consumer_releases() {
    let torus = Torus::mppa256();
    let src = torus.node(0, 0);
    let dst = torus.node(3, 2);

    let mut flows = FlowSet::new();
    let frame = flows.add(Flow::new(src, dst, 128).released_at(Cycles(500)));
    let noise = flows.add(Flow::new(torus.node(1, 0), dst, 64));
    let cfg = NocConfig::default();
    let bounds = worst_case_latencies(&torus, &flows, &cfg);
    let sim = simulate_flows(&torus, &flows, &cfg);
    assert!(sim.delivered(frame) <= bounds[frame.index()]);
    assert!(sim.delivered(noise) <= bounds[noise.index()]);

    let mut g = TaskGraph::new();
    let entry = g.add_task(
        Task::builder("entry")
            .wcet(Cycles(100))
            .min_release(bounds[frame.index()]),
    );
    let work = g.add_task(Task::builder("work").wcet(Cycles(400)));
    g.add_edge(entry, work, 32).unwrap();
    let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
    let p = Problem::new(g, m, Platform::mppa256_cluster()).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    assert!(s.timing(entry).release >= bounds[frame.index()]);
    assert!(s.makespan() >= bounds[frame.index()] + Cycles(500));
}

/// The MRTA bounds hold under every shipped arbiter, and the arbiters
/// order exactly as their per-bank bounds do (RR ≤ FIFO, RR ≤ TDM).
#[test]
fn mrta_bounds_order_by_arbiter_pessimism() {
    let tasks = vec![
        SporadicTask::builder("a")
            .wcet(Cycles(30))
            .period(Cycles(400))
            .demand(BankDemand::single(BankId(0), 10))
            .build()
            .unwrap(),
        SporadicTask::builder("b")
            .wcet(Cycles(50))
            .period(Cycles(600))
            .demand(BankDemand::single(BankId(0), 20))
            .build()
            .unwrap(),
    ];
    let system = SporadicSystem::new(tasks, &[0, 1], Platform::new(2, 2)).unwrap();
    let rr = analyze_mrta(&system, &RoundRobin::new());
    let fifo = analyze_mrta(&system, &Fifo::new());
    let tdm = analyze_mrta(&system, &Tdm::new());
    let regulated = analyze_mrta(&system, &Regulated::new(2, 128));
    for i in 0..system.len() {
        assert!(rr.response(i) <= fifo.response(i));
        assert!(rr.response(i) <= tdm.response(i));
        assert!(regulated.response(i) <= rr.response(i));
    }
    // And the simulator respects the tightest sound bound (RR).
    assert!(rr.schedulable());
    let sim = simulate_sporadic(&system, &SporadicSimConfig::new());
    for i in 0..system.len() {
        assert!(sim.max_response(i).unwrap() <= rr.response(i));
    }
}
