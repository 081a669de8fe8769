//! An avionics-style case study (the application class the paper's
//! introduction motivates: "avionics or autonomous vehicles applications
//! … heavily coupled to time").
//!
//! A longitudinal flight controller (ROSACE-like) is modelled as one
//! hyper-period of a two-rate harmonic task set turned into a DAG. The
//! per-task WCETs in isolation and shared-memory access counts are inputs,
//! as in the paper (they would come from a static analyser such as
//! OTAWA), and the schedule is analysed under several bus arbiters to
//! compare their pessimism.
//!
//! Run with: `cargo run --example avionics_case_study`

use mia::prelude::*;
use mia::trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One 10 ms hyper-period: the 200 Hz inner loop runs twice (phases A
    // and B), the 100 Hz outer loop once.
    let kernels: [(&str, u64, u64, u64); 10] = [
        // (name, WCET in isolation, shared-memory accesses, minimal
        // release within the hyper-period)
        ("gyro_acq_a", 148, 36, 0),
        ("elevator_a", 284, 52, 0),
        ("engine_a", 284, 52, 0),
        ("gyro_acq_b", 148, 36, 500),
        ("elevator_b", 284, 52, 500),
        ("engine_b", 284, 52, 500),
        ("altitude_hold", 548, 100, 0),
        ("vz_control", 460, 84, 0),
        ("va_control", 460, 84, 0),
        ("flight_mgmt", 532, 132, 0),
    ];

    let mut g = TaskGraph::new();
    let ids: Vec<TaskId> = kernels
        .iter()
        .map(|&(name, wcet, accesses, release)| {
            println!("{name:<14} wcet = {wcet:>4}  accesses = {accesses:>3}");
            g.add_task(
                Task::builder(name)
                    .wcet(Cycles(wcet))
                    .private_demand(BankDemand::single(BankId(0), accesses))
                    .min_release(Cycles(release)),
            )
        })
        .collect();

    // Data flow within the hyper-period (words = control vector sizes).
    let by_name = |n: &str| ids[kernels.iter().position(|k| k.0 == n).unwrap()];
    for (src, dst, words) in [
        ("gyro_acq_a", "elevator_a", 6),
        ("gyro_acq_a", "engine_a", 6),
        ("gyro_acq_b", "elevator_b", 6),
        ("gyro_acq_b", "engine_b", 6),
        ("gyro_acq_a", "altitude_hold", 4),
        ("altitude_hold", "vz_control", 8),
        ("vz_control", "elevator_b", 4),
        ("va_control", "engine_b", 4),
        ("flight_mgmt", "altitude_hold", 2),
        ("flight_mgmt", "va_control", 2),
    ] {
        g.add_edge(by_name(src), by_name(dst), words)?;
    }

    // Map onto 4 cores of the cluster with the greedy load balancer.
    let mapping = mia::mapping_heuristics::load_balanced(&g, 4)?;
    let problem = Problem::new(g, mapping, Platform::new(4, 4))?;

    // Compare arbitration policies: same platform, different IBUS.
    println!("\narbiter pessimism comparison (same task set):");
    println!(
        "{:<16} {:>10} {:>14}",
        "arbiter", "makespan", "interference"
    );
    let arbiters: Vec<Box<dyn Arbiter>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(MppaTree::new(4, 2)),
        Box::new(Tdm::new()),
        Box::new(Fifo::new()),
        Box::new(FixedPriority::by_core_id()),
    ];
    let mut rr_makespan = Cycles::ZERO;
    for arbiter in &arbiters {
        let s = analyze(&problem, arbiter.as_ref())?;
        if arbiter.name() == "round-robin" {
            rr_makespan = s.makespan();
            println!("\n{}", trace::gantt(&problem, &s));
        }
        println!(
            "{:<16} {:>10} {:>14}",
            arbiter.name(),
            s.makespan().as_u64(),
            s.total_interference().as_u64()
        );
    }

    // A 10 ms period at 600 MHz ≈ 6 M cycles: this workload is far inside
    // its deadline; check the analysis agrees via the deadline option.
    let opts = AnalysisOptions::new().deadline(rr_makespan);
    assert!(mia::analysis::analyze_with(
        &problem,
        &RoundRobin::new(),
        &opts,
        &mut mia::analysis::NoopObserver
    )
    .is_ok());
    println!("\nschedulable within its makespan bound — deadline check passed.");
    Ok(())
}
