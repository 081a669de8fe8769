//! Regenerates the paper's §V **headline numbers**:
//!
//! * LS64 at 256 tasks: C++ original 1121.79 s vs Python new 4.13 s → 270×
//! * NL64 at 384 tasks: C++ original 535.24 s vs Python new 0.90 s → 593×
//!
//! Absolute times differ (different machine, both algorithms in Rust
//! here); the reproduced quantity is the *speedup* and its growth with n.
//!
//! ```text
//! cargo run --release -p mia-bench --bin headline
//! ```

use std::process::ExitCode;
use std::time::Duration;

use mia_arbiter::RoundRobin;
use mia_bench::write_json;
use mia_cli::{benchmark_problem, time_algorithm, Algorithm, Outcome};
use mia_dag_gen::Family;
use serde::Serialize;

#[derive(Serialize)]
struct HeadlineRow {
    family: String,
    n: usize,
    new_seconds: Option<f64>,
    old_seconds: Option<f64>,
    speedup: Option<f64>,
    paper_speedup: f64,
}

fn main() -> ExitCode {
    let budget = Duration::from_secs(
        std::env::args()
            .skip_while(|a| a != "--timeout")
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(600),
    );
    let cases = [
        (Family::FixedLayerSize(64), 256usize, 1121.79 / 4.13),
        (Family::FixedLayers(64), 384, 535.24 / 0.90),
    ];
    println!("| family | n | new (s) | old (s) | speedup | paper speedup |");
    println!("|--------|---|---------|---------|---------|---------------|");
    let arbiter = RoundRobin::new();
    let mut rows = Vec::new();
    for (family, n, paper_speedup) in cases {
        let problem = benchmark_problem(family, n, 2020);
        let new = time_algorithm(Algorithm::Incremental, &problem, &arbiter, budget);
        let old = time_algorithm(Algorithm::Original, &problem, &arbiter, budget);
        if let (Outcome::Completed { makespan: m1, .. }, Outcome::Completed { makespan: m2, .. }) =
            (&new, &old)
        {
            assert_eq!(m1, m2, "both algorithms must agree on the schedule");
        }
        let row = HeadlineRow {
            family: family.label(),
            n,
            new_seconds: new.seconds(),
            old_seconds: old.seconds(),
            speedup: match (old.seconds(), new.seconds()) {
                (Some(o), Some(s)) if s > 0.0 => Some(o / s),
                _ => None,
            },
            paper_speedup,
        };
        println!(
            "| {} | {} | {} | {} | {} | {:.0}× |",
            row.family,
            row.n,
            row.new_seconds
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "timeout".into()),
            row.old_seconds
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "timeout".into()),
            row.speedup
                .map(|s| format!("{s:.0}×"))
                .unwrap_or_else(|| "—".into()),
            row.paper_speedup
        );
        rows.push(row);
    }
    match write_json("headline", &rows) {
        Ok(path) => eprintln!("-> {}", path.display()),
        Err(e) => {
            eprintln!("headline: cannot write results/headline.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
