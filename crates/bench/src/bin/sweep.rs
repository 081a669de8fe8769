//! The batch sweep driver: measure an arbiter × DAG-family × size grid
//! in one run and emit a single JSON report.
//!
//! ```text
//! cargo run --release -p mia-bench --bin sweep -- \
//!     --families tobita,layered --arbiters rr,mppa --sizes 1000,8000,32000 \
//!     -o BENCH_sweep.json
//! ```
//!
//! Flags are shared with `mia sweep` (see `mia_bench::sweep::parse_spec`
//! for the full list and defaults). Without `-o` the report is written
//! to `results/sweep.json`. Progress goes to stderr, one line per
//! completed grid point.

use std::process::ExitCode;

use mia_bench::sweep::{parse_spec, render_report, run_sweep};
use mia_bench::Outcome;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out, format) = match parse_spec(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("sweep: {message}");
            return ExitCode::FAILURE;
        }
    };
    let total =
        spec.families.len() * spec.arbiters.len() * spec.sizes.len() * spec.algorithms.len();
    eprintln!(
        "sweep: {total} grid points ({} families × {} arbiters × {} sizes × {} algorithms)",
        spec.families.len(),
        spec.arbiters.len(),
        spec.sizes.len(),
        spec.algorithms.len(),
    );
    let report = run_sweep(&spec, &|point| {
        let outcome = match &point.outcome {
            Outcome::Completed { seconds, makespan } => {
                format!("{seconds:.3}s, makespan {makespan}")
            }
            Outcome::TimedOut { budget } => format!("timeout (> {budget:.0}s)"),
            Outcome::Failed { error } => format!("failed: {error}"),
        };
        eprintln!(
            "  {} / {} / n={} / {}: {outcome}",
            point.family, point.arbiter, point.n, point.algorithm
        );
    });
    let rendered = render_report(&report, format);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("sweep: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "sweep: {} points in {:.1}s -> {path}",
                report.points.len(),
                report.wall_seconds
            );
        }
        // CSV without -o goes to stdout (ready to pipe into a plotter);
        // JSON keeps the historical results/sweep.json default.
        None if format == mia_bench::sweep::ReportFormat::Csv => {
            print!("{rendered}");
            eprintln!(
                "sweep: {} points in {:.1}s",
                report.points.len(),
                report.wall_seconds
            );
        }
        None => match mia_bench::write_json("sweep", &report) {
            Ok(path) => eprintln!(
                "sweep: {} points in {:.1}s -> {}",
                report.points.len(),
                report.wall_seconds,
                path.display()
            ),
            Err(e) => {
                eprintln!("sweep: cannot write results/sweep.json: {e}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
