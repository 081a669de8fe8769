//! Regenerates the paper's §VI scaling claim: the incremental algorithm
//! handles "more than 8000 tasks while maintaining a reasonable execution
//! time".
//!
//! ```text
//! cargo run --release -p mia-bench --bin scale8000
//! ```

use std::process::ExitCode;
use std::time::Duration;

use mia_arbiter::RoundRobin;
use mia_bench::{write_json, Point};
use mia_cli::{benchmark_problem, time_algorithm, Algorithm};
use mia_dag_gen::Family;

fn main() -> ExitCode {
    let budget = Duration::from_secs(300);
    let arbiter = RoundRobin::new();
    let mut points = Vec::new();
    println!("| family | n | new algorithm (s) |");
    println!("|--------|---|-------------------|");
    for family in [Family::FixedLayerSize(64), Family::FixedLayers(64)] {
        for n in [1024usize, 2048, 4096, 8448, 16896] {
            let problem = benchmark_problem(family, n, 2020);
            let outcome = time_algorithm(Algorithm::Incremental, &problem, &arbiter, budget);
            println!(
                "| {} | {n} | {} |",
                family.label(),
                outcome
                    .seconds()
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "timeout".into())
            );
            points.push(Point {
                n,
                algorithm: Algorithm::Incremental,
                outcome,
            });
        }
    }
    match write_json("scale8000", &points) {
        Ok(path) => eprintln!("-> {}", path.display()),
        Err(e) => {
            eprintln!("scale8000: cannot write results/scale8000.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("\n(§VI claims >8000 tasks in reasonable time — the rows above show it.)");
    ExitCode::SUCCESS
}
