//! Integration of the surrounding substrates with the core analysis:
//! NoC-gated releases, composed the way a full deployment would.

use mia::arbiters::RoundRobin;
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
