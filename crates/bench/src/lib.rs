//! Benchmark harness regenerating the paper's evaluation (§V).
//!
//! The binaries in `src/bin/` reproduce each artefact:
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig3` | Figure 3: runtime of old vs new algorithm over the six random-DAG families (LS4/16/64, NL4/16/64), with log–log regression exponents |
//! | `headline` | §V's headline numbers (LS64@256: 270×, NL64@384: 593×) |
//! | `scale8000` | §VI's ">8000 tasks in reasonable time" claim |
//! | `sweep` | arbitrary arbiter × family × size grids → one JSON report (Figure 3 in one command; see [`sweep`]) |
//! | `dse` | interference-aware mapping optimization over the same family grid → `BENCH_dse.json` (see [`dse`]) |
//! | `ablation` | ablations A1–A4 of §II.C and §IV's design choices (interference mode, aggregation, arbiters, banks) |
//! | `precision` | V2: old-vs-new precision comparison |
//!
//! This library holds the shared machinery: wall-clock measurement with
//! cooperative timeouts ([`run_timed`]), log–log least-squares fitting
//! ([`fit_exponent`], producing the `O(n^x)` annotations of Figure 3),
//! workload construction and report serialization. The [`sweep`] module
//! adds the batch driver behind `mia sweep` and the `sweep` binary:
//! arbiter × family × size grids measured concurrently into one JSON
//! report.

pub mod dse;
pub mod serve;
pub mod sweep;

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mia_core::{AnalysisError, CancelToken};
use mia_dag_gen::{Family, LayeredDag};
use mia_model::{Cycles, Platform, Problem};
use serde::Serialize;

/// Which algorithm a measurement exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Algorithm {
    /// The paper's incremental O(n²) analysis (`mia-core`).
    Incremental,
    /// The original O(n⁴) double fixed point (`mia-baseline`).
    Original,
}

impl Algorithm {
    /// Label used in reports ("new"/"old", as in the paper's plots).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Incremental => "new",
            Algorithm::Original => "old",
        }
    }
}

/// Outcome of one timed analysis run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Outcome {
    /// Finished within the budget.
    Completed {
        /// Wall-clock seconds.
        seconds: f64,
        /// Resulting global WCRT (sanity anchor across algorithms).
        makespan: u64,
    },
    /// Cancelled after exceeding the budget (the paper's "timeout that
    /// the C++ version easily reaches for more than 256 tasks").
    TimedOut {
        /// The budget that was exhausted, in seconds.
        budget: f64,
    },
    /// The analysis failed (should not happen on generated workloads).
    Failed {
        /// Error rendering.
        error: String,
    },
}

impl Outcome {
    /// The runtime if the run completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Completed { seconds, .. } => Some(*seconds),
            _ => None,
        }
    }

    /// True if the run hit its budget.
    pub fn timed_out(&self) -> bool {
        matches!(self, Outcome::TimedOut { .. })
    }
}

/// Runs `f` with a cancellation token that fires after `budget`.
///
/// The analysis algorithms poll their token at every cursor step /
/// fixed-point pass, so cancellation latency is a small multiple of one
/// pass.
pub fn run_timed<F>(budget: Duration, f: F) -> Outcome
where
    F: FnOnce(CancelToken) -> Result<Cycles, AnalysisError>,
{
    let token = CancelToken::new();
    let watchdog_token = token.clone();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(budget).is_err() {
            watchdog_token.cancel();
        }
    });
    let start = Instant::now();
    let result = f(token);
    let seconds = start.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    let _ = watchdog.join();
    match result {
        Ok(makespan) => Outcome::Completed {
            seconds,
            makespan: makespan.as_u64(),
        },
        Err(AnalysisError::Cancelled) => Outcome::TimedOut {
            budget: budget.as_secs_f64(),
        },
        Err(e) => Outcome::Failed {
            error: e.to_string(),
        },
    }
}

/// Builds the benchmark problem for `family` with `n` tasks (paper
/// parameters, MPPA-256 cluster platform). The seed mixes the family and
/// size so every point is an independent draw, reproducibly.
pub fn benchmark_problem(family: Family, n: usize, seed: u64) -> Problem {
    let mixed = seed ^ ((n as u64) << 20) ^ family.label().bytes().map(u64::from).sum::<u64>();
    LayeredDag::new(family.config(n, mixed))
        .generate()
        .into_problem(&Platform::mppa256_cluster())
        .expect("generated workload is valid")
}

/// Times the chosen algorithm on a problem with a budget.
pub fn time_algorithm(algorithm: Algorithm, problem: &Problem, budget: Duration) -> Outcome {
    let arbiter = mia_arbiter::RoundRobin::new();
    match algorithm {
        Algorithm::Incremental => run_timed(budget, |token| {
            let options = mia_core::AnalysisOptions::new().cancel_token(token);
            mia_core::analyze_with(problem, &arbiter, &options, &mut mia_core::NoopObserver)
                .map(|r| r.schedule.makespan())
        }),
        Algorithm::Original => run_timed(budget, |token| {
            let options = mia_baseline::BaselineOptions::new().cancel_token(token);
            mia_baseline::analyze_with(problem, &arbiter, &options).map(|r| r.schedule.makespan())
        }),
    }
}

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
    for &n in &all_ns {
        let problem = benchmark_problem(family, n, seed);
        if grid_new.contains(&n) {
            let point = Point {
                n,
                algorithm: Algorithm::Incremental,
                outcome: time_algorithm(Algorithm::Incremental, &problem, budget),
            };
            progress(&point);
            points.push(point);
        }
        if grid_old.contains(&n) && old_alive {
            let outcome = time_algorithm(Algorithm::Original, &problem, budget);
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
    fn run_timed_completes_fast_functions() {
        let o = run_timed(Duration::from_secs(5), |_| Ok(Cycles(42)));
        assert!(matches!(o, Outcome::Completed { makespan: 42, .. }));
    }

    #[test]
    fn run_timed_cancels_slow_functions() {
        let o = run_timed(Duration::from_millis(50), |token| {
            while !token.is_cancelled() {
                std::thread::yield_now();
            }
            Err(AnalysisError::Cancelled)
        });
        assert!(o.timed_out());
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

    #[test]
    fn benchmark_problem_is_reproducible() {
        let a = benchmark_problem(Family::FixedLayers(4), 64, 9);
        let b = benchmark_problem(Family::FixedLayers(4), 64, 9);
        assert_eq!(a.graph(), b.graph());
    }
}
