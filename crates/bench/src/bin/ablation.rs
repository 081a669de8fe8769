//! Ablation studies A1–A4 — the design choices the paper discusses in
//! §II.C and §IV:
//!
//! * `additivity` — the exact per-core aggregation vs the pairwise
//!   additive mode ("exploiting this could simplify and speed up the
//!   algorithm", §II.C). Under the additive RR arbiter both already
//!   update a bank's bound in O(1) per source (the exact mode swaps the
//!   source core's term, see `Arbiter::is_additive`), so the time gap is
//!   small; the makespan ratio shows what pairwise sums cost in
//!   precision,
//! * `aggregation` — per-core "single big task" merging vs pairwise task
//!   sets (§II.C's hypothesis, on the baseline where it matters),
//! * `arbiters` — pessimism and runtime of the five arbitration models,
//! * `banks` — per-core banks vs one shared bank ("distinct arbitrated
//!   banks reserved for each core to minimize interference", §IV).
//!
//! ```text
//! cargo run --release -p mia-bench --bin ablation            # all four
//! cargo run --release -p mia-bench --bin ablation -- banks   # just one
//! ```

use std::time::Instant;

use mia_arbiter::{Fifo, FixedPriority, MppaTree, RoundRobin, Tdm};
use mia_baseline::{AggregationMode, BaselineOptions};
use mia_bench::benchmark_problem;
use mia_core::{analyze_with, AnalysisOptions, InterferenceMode, NoopObserver};
use mia_dag_gen::{Family, LayeredDag};
use mia_model::{Arbiter, BankPolicy, Platform};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| which.is_empty() || which.iter().any(|a| a == name);
    if run("additivity") {
        additivity();
    }
    if run("aggregation") {
        aggregation();
    }
    if run("arbiters") {
        arbiters();
    }
    if run("banks") {
        banks();
    }
}

/// A1: exact per-core aggregation vs the pairwise additive mode
/// (incremental). RR is additive, so the exact mode is not a per-bank
/// recomputation of the merged set here.
fn additivity() {
    println!("\n## A1 — interference mode (incremental algorithm, LS16, RR arbiter)\n");
    println!("| n | exact (s) | pairwise (s) | makespan ratio (pairwise/exact) |");
    println!("|---|-----------|--------------|--------------------------------|");
    for n in [256usize, 1024, 4096] {
        let p = benchmark_problem(Family::FixedLayerSize(16), n, 2020);
        let time_mode = |mode: InterferenceMode| {
            let opts = AnalysisOptions::new().interference_mode(mode);
            let t0 = Instant::now();
            let r = analyze_with(&p, &RoundRobin::new(), &opts, &mut NoopObserver).unwrap();
            (t0.elapsed().as_secs_f64(), r.schedule.makespan().as_u64())
        };
        let (t_exact, m_exact) = time_mode(InterferenceMode::AggregateByCore);
        let (t_pair, m_pair) = time_mode(InterferenceMode::PairwiseAdditive);
        println!(
            "| {n} | {t_exact:.4} | {t_pair:.4} | {:.4} |",
            m_pair as f64 / m_exact as f64
        );
    }
    println!("\n(pairwise must never be *less* pessimistic: ratio ≥ 1)");
}

/// A2: per-core aggregation vs pairwise task sets (baseline).
fn aggregation() {
    println!("\n## A2 — interferer aggregation (original algorithm, LS16)\n");
    println!("| n | merge-by-core makespan | pairwise-tasks makespan | ratio |");
    println!("|---|------------------------|-------------------------|-------|");
    for n in [64usize, 128, 256] {
        let p = benchmark_problem(Family::FixedLayerSize(16), n, 2020);
        let run = |agg: AggregationMode| {
            let opts = BaselineOptions::new().aggregation(agg);
            mia_baseline::analyze_with(&p, &RoundRobin::new(), &opts)
                .unwrap()
                .schedule
                .makespan()
                .as_u64()
        };
        let merged = run(AggregationMode::MergeByCore);
        let pairwise = run(AggregationMode::PairwiseTasks);
        println!(
            "| {n} | {merged} | {pairwise} | {:.4} |",
            pairwise as f64 / merged as f64
        );
    }
    println!("\n(the paper keeps merge-by-core because it \"empirically outputs");
    println!("less pessimistic release times\" — the ratio shows how much)");
}

/// A3: arbiter policies — pessimism and analysis runtime.
fn arbiters() {
    println!("\n## A3 — arbitration policies (incremental, LS16 @ 1024 tasks)\n");
    let p = benchmark_problem(Family::FixedLayerSize(16), 1024, 2020);
    let arbiters: Vec<Box<dyn Arbiter>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(MppaTree::cluster16()),
        Box::new(Tdm::new()),
        Box::new(Fifo::new()),
        Box::new(FixedPriority::by_core_id()),
    ];
    println!("| arbiter | makespan | total interference | time (s) |");
    println!("|---------|----------|--------------------|----------|");
    for arb in &arbiters {
        let t0 = Instant::now();
        let r = analyze_with(&p, arb.as_ref(), &AnalysisOptions::new(), &mut NoopObserver).unwrap();
        println!(
            "| {} | {} | {} | {:.4} |",
            arb.name(),
            r.schedule.makespan().as_u64(),
            r.schedule.total_interference().as_u64(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!("\n(RR is the reference; the MPPA tree may be tighter thanks to");
    println!("pair saturation; TDM/FIFO dominate RR by construction)");
}

/// A4: per-core banks vs a single shared bank.
fn banks() {
    println!("\n## A4 — bank policy (incremental, RR arbiter)\n");
    println!("| n | per-core banks makespan | single bank makespan | inflation |");
    println!("|---|-------------------------|----------------------|-----------|");
    for n in [256usize, 1024] {
        let w = || {
            LayeredDag::new(Family::FixedLayerSize(16).config(n, 2020 ^ (n as u64) << 20))
                .generate()
        };
        let per_core = w().into_problem(&Platform::mppa256_cluster()).unwrap();
        let single = w()
            .into_problem_with_policy(&Platform::mppa256_cluster(), BankPolicy::SingleBank)
            .unwrap();
        let run = |p: &mia_model::Problem| {
            analyze_with(
                p,
                &RoundRobin::new(),
                &AnalysisOptions::new(),
                &mut NoopObserver,
            )
            .unwrap()
            .schedule
            .makespan()
            .as_u64()
        };
        let (a, b) = (run(&per_core), run(&single));
        println!("| {n} | {a} | {b} | {:.3} |", b as f64 / a as f64);
    }
    println!("\n(banks \"reserved for each core\" exist precisely to keep this");
    println!("inflation down — §IV of the paper)");
}
