//! The `mia` benchmark: end-to-end workloads run against the release
//! binary, and a traced run that times each layer from outside.
//!
//! ```text
//! perfbench --mia <path/to/mia> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`). Everything else goes to
//! stderr. Start it through `perfbench/run.sh`, which builds both
//! binaries first.

mod check;
mod e2e;
mod gen;
mod proc;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use e2e::{Ctx, Outcome};

type Workload = fn(&Ctx) -> Result<Outcome, String>;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: &[(&str, Workload)] = &[
    ("analyze-ls16-100k", e2e::analyze_ls16),
    ("analyze-h263-64c-mppa", e2e::analyze_h263),
    ("optimize-nl16-600", e2e::optimize_nl16),
    ("serve-whatif", e2e::serve_whatif),
];

struct Args {
    mia: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    Ok(Args {
        mia: PathBuf::from(get("--mia")?),
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (known: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        mia: args.mia,
        work,
        seed: args.seed,
        seconds: args.seconds,
        started,
    };
    let result = if args.trace {
        traced::run(&ctx)
    } else {
        workload(&ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(outcome) => {
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
