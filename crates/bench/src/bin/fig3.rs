//! Regenerates the paper's **Figure 3**: runtime of the original (old)
//! and incremental (new) algorithms over the six random-DAG families,
//! with log–log regression exponents.
//!
//! ```text
//! cargo run --release -p mia-bench --bin fig3            # full sweep
//! cargo run --release -p mia-bench --bin fig3 -- --quick # ~2 minutes
//! cargo run --release -p mia-bench --bin fig3 -- --timeout 120
//! ```
//!
//! Results are printed as markdown and written to `results/fig3_*.json`.

use std::process::ExitCode;
use std::time::Duration;

use mia_bench::{render_sweep, sweep_family, write_json};
use mia_dag_gen::Family;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let timeout = args
        .iter()
        .position(|a| a == "--timeout")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(if quick { 10 } else { 60 });
    let budget = Duration::from_secs(timeout);

    // Sizes follow the paper's log grid; the old algorithm's grid stops
    // where its runtime explodes (it is skipped after its first timeout).
    let (grid_new, grid_old): (Vec<usize>, Vec<usize>) = if quick {
        (
            vec![16, 32, 64, 128, 256, 512, 1024, 2048],
            vec![16, 32, 64, 128, 256],
        )
    } else {
        (
            vec![
                16, 32, 64, 128, 256, 384, 512, 1024, 2048, 4096, 8448, 16896,
            ],
            vec![16, 32, 64, 128, 256, 384, 512, 768, 1024],
        )
    };

    println!(
        "# Figure 3 reproduction (timeout {timeout}s per run{})\n",
        if quick { ", quick mode" } else { "" }
    );
    let mut all = Vec::new();
    for family in Family::figure3() {
        eprintln!("family {family} ...");
        let sweep = sweep_family(family, &grid_new, &grid_old, budget, 2020, |p| {
            eprintln!(
                "  {} n={:<6} {:?}",
                p.algorithm.label(),
                p.n,
                p.outcome.seconds().map(|s| format!("{s:.4}s"))
            );
        });
        println!("{}", render_sweep(&sweep));
        let name = format!("fig3_{}", sweep.family.to_lowercase());
        match write_json(&name, &sweep) {
            Ok(path) => eprintln!("  -> {}", path.display()),
            Err(e) => {
                eprintln!("fig3: cannot write results/{name}.json: {e}");
                return ExitCode::FAILURE;
            }
        }
        all.push(sweep);
    }

    println!("## Exponent summary (Figure 3 annotations)\n");
    println!("| family | new O(n^x) | paper new | old O(n^x) | paper old |");
    println!("|--------|-----------|-----------|-----------|-----------|");
    let paper: [(&str, f64, f64); 6] = [
        ("LS4", 1.03, 3.71),
        ("NL4", 1.75, 4.52),
        ("LS16", 1.02, 4.39),
        ("NL16", 1.89, 4.64),
        ("LS64", 1.10, 5.09),
        ("NL64", 1.91, 4.94),
    ];
    for sweep in &all {
        let (label, p_new, p_old) = paper
            .iter()
            .find(|(l, _, _)| *l == sweep.family)
            .copied()
            .unwrap_or((sweep.family.as_str(), f64::NAN, f64::NAN));
        let fmt = |e: Option<f64>| e.map(|x| format!("{x:.2}")).unwrap_or_else(|| "—".into());
        println!(
            "| {label} | {} | {p_new:.2} | {} | {p_old:.2} |",
            fmt(sweep.new_exponent),
            fmt(sweep.old_exponent)
        );
    }
    println!(
        "\nShape check: every `new` exponent must stay below 2 (the paper's\n\
         O(n²) bound) and every `old` exponent well above it."
    );
    ExitCode::SUCCESS
}
