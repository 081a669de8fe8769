//! The DSE batch driver: optimize a family × size × arbiter grid with
//! the interference analysis in the loop and emit one JSON/CSV report.
//!
//! ```text
//! cargo run --release -p mia-bench --bin dse -- \
//!     --families rosace,layered --arbiters rr,mppa --sizes 150,300 \
//!     --budget-evals 2000 --seed 7 -o BENCH_dse.json
//! ```
//!
//! Flags are shared with `mia optimize`'s batch-relevant subset (see
//! `mia_bench::dse::parse_dse_spec`), and every grid point runs through
//! the same `mia_dse::run_arbiters` driver. Without `-o` the report goes to
//! `results/dse.json` (or stdout for `--csv`). Progress goes to stderr,
//! one line per completed grid point.

use std::process::ExitCode;

use mia_bench::dse::{parse_dse_spec, run_dse};
use mia_dse::{render_dse_report, DseReportFormat};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out, csv) = match parse_dse_spec(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("dse: {message}");
            return ExitCode::FAILURE;
        }
    };
    // Pareto mode folds the arbiter axis into each run's joint search,
    // so the grid is families × sizes with the arbiters inside.
    let pareto = spec.config.pareto.is_some();
    let arbiter_runs = if pareto { 1 } else { spec.arbiters.len() };
    eprintln!(
        "dse: {} grid points ({} families × {} sizes × {}), {} evals each",
        spec.families.len() * spec.sizes.len() * arbiter_runs,
        spec.families.len(),
        spec.sizes.len(),
        if pareto {
            format!("arbiters {} folded", spec.arbiters.join("+"))
        } else {
            format!("{} arbiters", spec.arbiters.len())
        },
        spec.config.budget_evals,
    );
    let report = match run_dse(&spec, &|run| {
        eprintln!(
            "  {} / {} / n={}: {} -> {} ({:+.2}%), {} evals ({:.0}% cache hits), {:.2}s",
            run.workload,
            run.arbiter,
            run.n,
            run.seed_makespan,
            run.optimized_makespan,
            -run.improvement_pct,
            run.evaluations,
            run.cache_hit_rate * 100.0,
            run.seconds,
        );
    }) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("dse: {message}");
            return ExitCode::FAILURE;
        }
    };
    let format = if csv {
        DseReportFormat::Csv
    } else {
        DseReportFormat::Json
    };
    let rendered = render_dse_report(&report, format);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("dse: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "dse: {} runs in {:.1}s -> {path}",
                report.runs.len(),
                report.wall_seconds
            );
        }
        None if csv => {
            print!("{rendered}");
            eprintln!(
                "dse: {} runs in {:.1}s",
                report.runs.len(),
                report.wall_seconds
            );
        }
        None => match mia_bench::write_json("dse", &report) {
            Ok(path) => eprintln!(
                "dse: {} runs in {:.1}s -> {}",
                report.runs.len(),
                report.wall_seconds,
                path.display()
            ),
            Err(e) => {
                eprintln!("dse: cannot write results/dse.json: {e}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
