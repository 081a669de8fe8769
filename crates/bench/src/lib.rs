//! Benchmark harness regenerating the paper's evaluation (§V).
//!
//! The binaries in `src/bin/` reproduce each artefact:
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig3` | Figure 3: runtime of old vs new algorithm over the six random-DAG families (LS4/16/64, NL4/16/64), with log–log regression exponents |
//! | `headline` | §V's headline numbers (LS64@256: 270×, NL64@384: 593×) |
//! | `scale8000` | §VI's ">8000 tasks in reasonable time" claim |
//! | `dse` | interference-aware mapping optimization over the `mia sweep` family vocabulary → `BENCH_dse.json` (see [`dse`]) |
//! | `serve` | the `mia serve` daemon under concurrent clients → `BENCH_serve.json` (see [`serve`]) |
//! | `ablation` | ablations A1–A4 of §II.C and §IV's design choices (interference mode, aggregation, arbiters, banks) |
//! | `precision` | V2: old-vs-new precision comparison |
//! | `tightness` | how far the analysed bounds sit above simulated executions |
//!
//! This crate is a leaf over `mia-cli`: workloads come from its one
//! family vocabulary ([`mia_cli::sweep`], [`mia_cli::benchmark_problem`])
//! and are timed with its [`mia_cli::time_algorithm`]. This library
//! adds what only the figures need: per-family sweeps with log–log
//! least-squares fitting ([`sweep_family`], [`fit_exponent`], producing
//! the `O(n^x)` annotations of Figure 3), their markdown rendering and
//! report serialization.

pub mod dse;
pub mod serve;

use std::time::Duration;

use mia_arbiter::RoundRobin;
use mia_cli::{benchmark_problem, time_algorithm, Algorithm, Outcome};
use mia_dag_gen::Family;
use serde::Serialize;

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Task count.
    pub n: usize,
    /// Which algorithm.
    pub algorithm: Algorithm,
    /// What happened.
    pub outcome: Outcome,
}

/// A full sweep over one benchmark family (one subplot of Figure 3).
#[derive(Debug, Clone, Serialize)]
pub struct FamilySweep {
    /// Family label ("LS64", "NL4", …).
    pub family: String,
    /// All measured points.
    pub points: Vec<Point>,
    /// Fitted exponent for the new algorithm (`O(n^x)`), if enough data.
    pub new_exponent: Option<f64>,
    /// Fitted exponent for the old algorithm.
    pub old_exponent: Option<f64>,
}

/// Least-squares slope of `ln(t)` against `ln(n)` — the `O(n^x)`
/// annotation of Figure 3. Points below `min_seconds` are dropped (timer
/// noise floor); returns `None` with fewer than three usable points.
pub fn fit_exponent(points: &[(usize, f64)], min_seconds: f64) -> Option<f64> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, t)| t >= min_seconds)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    if usable.len() < 3 {
        return None;
    }
    let n = usable.len() as f64;
    let mean_x = usable.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = usable.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = usable.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let sxx: f64 = usable.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    Some(sxy / sxx)
}

/// Sweeps one family over `grid`, timing both algorithms. The old
/// algorithm is skipped for every size beyond its first timeout (the
/// paper's benchmark does the same).
pub fn sweep_family(
    family: Family,
    grid_new: &[usize],
    grid_old: &[usize],
    budget: Duration,
    seed: u64,
    mut progress: impl FnMut(&Point),
) -> FamilySweep {
    let mut points = Vec::new();
    let mut old_alive = true;
    let mut all_ns: Vec<usize> = grid_new.iter().chain(grid_old).copied().collect();
    all_ns.sort_unstable();
    all_ns.dedup();
    let arbiter = RoundRobin::new();
    for &n in &all_ns {
        let problem = benchmark_problem(family, n, seed);
        if grid_new.contains(&n) {
            let point = Point {
                n,
                algorithm: Algorithm::Incremental,
                outcome: time_algorithm(Algorithm::Incremental, &problem, &arbiter, budget),
            };
            progress(&point);
            points.push(point);
        }
        if grid_old.contains(&n) && old_alive {
            let outcome = time_algorithm(Algorithm::Original, &problem, &arbiter, budget);
            old_alive = !outcome.timed_out();
            let point = Point {
                n,
                algorithm: Algorithm::Original,
                outcome,
            };
            progress(&point);
            points.push(point);
        }
    }
    let series = |alg: Algorithm| -> Vec<(usize, f64)> {
        points
            .iter()
            .filter(|p| p.algorithm == alg)
            .filter_map(|p| p.outcome.seconds().map(|s| (p.n, s)))
            .collect()
    };
    FamilySweep {
        family: family.label(),
        new_exponent: fit_exponent(&series(Algorithm::Incremental), 1e-3),
        old_exponent: fit_exponent(&series(Algorithm::Original), 1e-3),
        points,
    }
}

/// Renders a sweep as a markdown table (one row per size, old and new
/// columns), mirroring a Figure 3 subplot in text form.
pub fn render_sweep(sweep: &FamilySweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### {}", sweep.family);
    let _ = writeln!(out, "| n | new (s) | old (s) | speedup |");
    let _ = writeln!(out, "|---|---------|---------|---------|");
    let mut ns: Vec<usize> = sweep.points.iter().map(|p| p.n).collect();
    ns.sort_unstable();
    ns.dedup();
    for n in ns {
        let find = |alg: Algorithm| {
            sweep
                .points
                .iter()
                .find(|p| p.n == n && p.algorithm == alg)
                .map(|p| &p.outcome)
        };
        let fmt = |o: Option<&Outcome>| match o {
            Some(Outcome::Completed { seconds, .. }) => format!("{seconds:.4}"),
            Some(Outcome::TimedOut { budget }) => format!(">{budget:.0} (timeout)"),
            Some(Outcome::Failed { error }) => format!("failed: {error}"),
            None => "—".to_owned(),
        };
        let speedup = match (
            find(Algorithm::Original).and_then(|o| o.seconds()),
            find(Algorithm::Incremental).and_then(|o| o.seconds()),
        ) {
            (Some(old), Some(new)) if new > 0.0 => format!("{:.0}×", old / new),
            _ => "—".to_owned(),
        };
        let _ = writeln!(
            out,
            "| {n} | {} | {} | {speedup} |",
            fmt(find(Algorithm::Incremental)),
            fmt(find(Algorithm::Original)),
        );
    }
    let fmt_exp = |e: Option<f64>| {
        e.map(|x| format!("O(n^{x:.2})"))
            .unwrap_or_else(|| "insufficient data".to_owned())
    };
    let _ = writeln!(
        out,
        "\nfitted: new = {}, old = {}  (paper: new O(n^1.0–1.9), old O(n^3.7–5.1))",
        fmt_exp(sweep.new_exponent),
        fmt_exp(sweep.old_exponent)
    );
    out
}

/// Writes a serializable report under `results/` (created on demand),
/// returning the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serializes"),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_exponents() {
        // t = 1e-6 · n².
        let pts: Vec<(usize, f64)> = [64usize, 128, 256, 512, 1024]
            .iter()
            .map(|&n| (n, 1e-6 * (n as f64).powi(2)))
            .collect();
        let e = fit_exponent(&pts, 0.0).unwrap();
        assert!((e - 2.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn fit_needs_three_points_above_floor() {
        let pts = vec![(10usize, 1e-9), (20, 2e-9), (40, 1.0), (80, 2.0)];
        assert!(fit_exponent(&pts, 1e-6).is_none());
        assert!(fit_exponent(&pts, 0.0).is_some());
    }

    #[test]
    fn sweep_produces_points_and_speedups() {
        let sweep = sweep_family(
            Family::FixedLayerSize(4),
            &[16, 32, 64],
            &[16, 32],
            Duration::from_secs(30),
            1,
            |_| {},
        );
        assert_eq!(sweep.points.len(), 5);
        let text = render_sweep(&sweep);
        assert!(text.contains("LS4"));
        assert!(text.contains("| 16 |"));
    }
}
