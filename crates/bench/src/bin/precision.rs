//! Experiment V2: precision of the incremental algorithm relative to the
//! original fixed point and to the interference-free lower bound.
//!
//! The paper states the new algorithm "solves the same problem"; this
//! harness quantifies it: on every benchmark family the two algorithms'
//! makespans are compared (ratio 1.000 = identical fixed point), plus the
//! inflation over the interference-free critical path.
//!
//! ```text
//! cargo run --release -p mia-bench --bin precision
//! ```

use std::process::ExitCode;

use mia_arbiter::RoundRobin;
use mia_bench::write_json;
use mia_cli::benchmark_problem;
use mia_dag_gen::Family;
use serde::Serialize;

#[derive(Serialize)]
struct PrecisionRow {
    family: String,
    n: usize,
    new_makespan: u64,
    old_makespan: u64,
    ratio_old_over_new: f64,
    interference_free: u64,
    inflation_over_floor: f64,
}

fn main() -> ExitCode {
    let mut rows = Vec::new();
    println!("| family | n | new makespan | old makespan | old/new | floor | new/floor |");
    println!("|--------|---|--------------|--------------|---------|-------|-----------|");
    for family in Family::figure3() {
        for n in [64usize, 128, 256] {
            let p = benchmark_problem(family, n, 2020);
            let rr = RoundRobin::new();
            let new = mia_core::analyze(&p, &rr).unwrap().makespan().as_u64();
            let old = mia_baseline::analyze(&p, &rr).unwrap().makespan().as_u64();
            let floor = p.graph().critical_path().unwrap().as_u64();
            let row = PrecisionRow {
                family: family.label(),
                n,
                new_makespan: new,
                old_makespan: old,
                ratio_old_over_new: old as f64 / new as f64,
                interference_free: floor,
                inflation_over_floor: new as f64 / floor as f64,
            };
            println!(
                "| {} | {} | {} | {} | {:.4} | {} | {:.3} |",
                row.family,
                row.n,
                row.new_makespan,
                row.old_makespan,
                row.ratio_old_over_new,
                row.interference_free,
                row.inflation_over_floor
            );
            rows.push(row);
        }
    }
    match write_json("precision", &rows) {
        Ok(path) => eprintln!("-> {}", path.display()),
        Err(e) => {
            eprintln!("precision: cannot write results/precision.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
