//! Integration of the surrounding substrates with the core analysis:
//! cache-classified WCETs, NoC-gated releases, sporadic MRTA and the
//! mapping heuristics, composed the way a full deployment would.

use mia::arbiters::{Fifo, Regulated, RoundRobin, Tdm};
use mia::mapping_heuristics::{anneal, assignment_makespan, heft, AnnealConfig};
use mia::mrta::{
    analyze as analyze_mrta, simulate_sporadic, SporadicSimConfig, SporadicSystem, SporadicTask,
};
use mia::noc::{simulate_flows, worst_case_latencies, Flow, FlowSet, NocConfig, Torus};
use mia::prelude::*;
use mia::sim::{simulate, AccessPattern, SimConfig};
use mia::wcet::cache::{classify, CacheConfig, ReferenceCfg};
use mia::wcet::Cfg;

/// Cache classification → CFG estimate → task → analysis → simulation:
/// the estimates stay sound through the whole chain.
#[test]
fn cache_classified_wcets_survive_the_pipeline() {
    // A kernel whose loop body is fully cached after the first pass.
    let mut refs = ReferenceCfg::new();
    let pre = refs.add_block(vec![0, 1, 2, 3]);
    let body = refs.add_block(vec![0, 1, 2, 3]);
    refs.add_edge(pre, body).unwrap();
    refs.add_edge(body, body).unwrap();
    let classes = classify(&refs, &CacheConfig::new(8, 2)).unwrap();
    assert_eq!(classes.misses(body), 0);

    let (pre_cy, pre_acc) = classes.block_weight(pre, 1, 10);
    let (body_cy, body_acc) = classes.block_weight(body, 1, 10);
    let mut loop_body = Cfg::new();
    loop_body.add_block(body_cy + 2, body_acc + 1);
    let mut cfg = Cfg::new();
    let a = cfg.add_block(pre_cy, pre_acc);
    let b = cfg.add_loop(loop_body, 16);
    cfg.add_edge(a, b).unwrap();
    let est = cfg.estimate().unwrap();

    let mut g = TaskGraph::new();
    for name in ["k0", "k1"] {
        g.add_task(
            Task::builder(name)
                .wcet(est.wcet)
                .private_demand(BankDemand::single(BankId(0), est.accesses)),
        );
    }
    let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
    let p = Problem::with_policy(g, m, Platform::new(2, 2), BankPolicy::SingleBank).unwrap();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    s.check(&p).unwrap();
    let run = simulate(&p, &s, &SimConfig::new(AccessPattern::BurstStart)).unwrap();
    assert!(run.first_violation(&s).is_none());
}

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

/// HEFT and annealing both feed valid problems whose analysed schedules
/// hold up in simulation; annealing never worsens its own cost proxy.
#[test]
fn mapping_heuristics_feed_the_analysis() {
    use mia::dag_gen::{Family, LayeredDag};
    let mut cfg = Family::FixedLayerSize(8).config(48, 77);
    cfg.accesses = 40..=80; // keep demands within WCETs for the simulator
    cfg.edge_words = 0..=8;
    let w = LayeredDag::new(cfg).generate();

    let heft_mapping = heft(&w.graph, 8, 1).unwrap();
    let annealed = anneal(
        &w.graph,
        8,
        &heft_mapping,
        &AnnealConfig {
            iterations: 400,
            ..AnnealConfig::default()
        },
    )
    .unwrap();

    let heft_asg: Vec<usize> = w
        .graph
        .task_ids()
        .map(|t| heft_mapping.core_of(t).index())
        .collect();
    let ann_asg: Vec<usize> = w
        .graph
        .task_ids()
        .map(|t| annealed.core_of(t).index())
        .collect();
    assert!(
        assignment_makespan(&w.graph, &ann_asg).unwrap()
            <= assignment_makespan(&w.graph, &heft_asg).unwrap()
    );

    for mapping in [heft_mapping, annealed] {
        let p = Problem::new(w.graph.clone(), mapping, Platform::new(16, 16)).unwrap();
        let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
        s.check(&p).unwrap();
        let run = simulate(&p, &s, &SimConfig::new(AccessPattern::Uniform)).unwrap();
        assert!(run.first_violation(&s).is_none());
    }
}
