//! End-to-end run of the paper's framework (§I) on a dataflow application:
//!
//! 1. a synchronous-dataflow video pipeline written in the `mia-sdf` text
//!    format is compiled into a DAG of tasks (repetition vector + HSDF
//!    expansion),
//! 2. per-firing WCETs come from the dataflow description (in a real
//!    flow, from a static WCET analyser such as OTAWA),
//! 3. the DAG is mapped and ordered with ETF list scheduling,
//! 4. release dates and WCRTs are computed by the incremental analysis,
//! 5. the schedule is validated by cycle-accurate simulation.
//!
//! Run with: `cargo run --example dataflow_pipeline`

use mia::prelude::*;
use mia::sim::{simulate, AccessPattern, SimConfig};
use mia::{mapping_heuristics, sdf, trace};

const PIPELINE: &str = "
# A 4-stage video pipeline: capture → demosaic (×4 parallel firings)
#   → sharpen (×2) → encode.
actor capture  wcet=120 accesses=16
actor demosaic wcet=90  accesses=8
actor sharpen  wcet=150 accesses=12
actor encode   wcet=300 accesses=24
channel capture  -> demosaic produce=4 consume=1 words=4
channel demosaic -> sharpen  produce=1 consume=2 words=4
channel sharpen  -> encode   produce=1 consume=2 words=2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse and expand the dataflow program.
    let graph = sdf::parse(PIPELINE)?;
    let q = graph.repetition_vector()?;
    println!("repetition vector:");
    for (actor, &count) in graph.actors().iter().zip(&q) {
        println!("  {:<9} fires {count}×", actor.name);
    }
    let expansion = graph.expand(1)?;
    println!(
        "\nexpanded DAG: {} tasks, {} edges",
        expansion.graph.len(),
        expansion.graph.edge_count()
    );

    // Scratchpad budget: PASS buffer bounds per channel.
    let buffers = graph.buffer_bounds()?;
    println!("\nchannel buffer bounds (for static allocation):");
    for (i, ch) in graph.channels().iter().enumerate() {
        println!(
            "  {} -> {}: {} tokens = {} words",
            graph.actors()[ch.src.index()].name,
            graph.actors()[ch.dst.index()].name,
            buffers.tokens(i),
            buffers.words(i)
        );
    }
    println!("  total scratchpad: {} words", buffers.total_words());

    // 2–3. Map and order the firings on a 4-core cluster slice.
    let mapping = mapping_heuristics::earliest_finish(&expansion.graph, 4)?;
    println!(
        "load imbalance after ETF mapping: {:.2}",
        mapping_heuristics::load_imbalance(&expansion.graph, &mapping)
    );
    let problem = Problem::new(expansion.graph, mapping, Platform::new(4, 4))?;

    // 4. Interference analysis on the MPPA-style hierarchical arbiter.
    let schedule = analyze(&problem, &RoundRobin::new())?;
    println!(
        "\nanalysed schedule: makespan = {}, total interference = {}",
        schedule.makespan(),
        schedule.total_interference()
    );
    println!("\n{}", trace::gantt(&problem, &schedule));

    // 5. Validate by simulation under several access patterns.
    for pattern in [
        AccessPattern::BurstStart,
        AccessPattern::Uniform,
        AccessPattern::Random,
    ] {
        let run = simulate(&problem, &schedule, &SimConfig::new(pattern))?;
        assert!(run.first_violation(&schedule).is_none());
        println!(
            "simulated {pattern:?}: makespan {} (analysis bound {}), stalls {}",
            run.makespan(),
            schedule.makespan(),
            run.total_stall()
        );
    }
    println!("\nall simulated executions stay within the analysed bounds.");
    Ok(())
}
