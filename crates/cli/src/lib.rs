//! Command-line front-end for the `mia` workspace.
//!
//! The `mia` binary drives the full flow from files:
//!
//! ```text
//! mia generate --family LS64 -n 256 --seed 7 -o workload.json
//! mia analyze workload.json --arbiter mppa --gantt
//! mia analyze workload.json --algorithm baseline
//! mia analyze workload.json --json schedule.json
//! mia optimize rosace --budget-evals 200 --seed 7 --threads 4
//! mia sweep --families tobita,layered --arbiters rr,mppa --sizes 1000,8000,32000
//! mia simulate workload.json --pattern random --seed 3
//! mia sdf app.sdf --cores 4 --iterations 2 --strategy etf
//! mia dot workload.json
//! ```
//!
//! An option a command does not take is a usage error (exit code 1).
//!
//! Workloads are exchanged in a human-writable JSON schema
//! ([`WorkloadFile`]) that is validated into a
//! [`Problem`] on load — hand-edited files get real
//! error messages instead of panics.
//!
//! The workload-family vocabulary every front end shares — one token
//! parser and one `(family, n, seed)` problem builder — lives in
//! [`sweep`], next to the sweep engine behind `mia sweep`. This crate
//! root holds the measurement primitives the sweep and the `mia-bench`
//! figure binaries time analyses with: [`run_timed`] (a wall-clock run
//! with cooperative cancellation), [`time_algorithm`] and
//! [`benchmark_problem`].

mod commands;
mod optimize;
mod serve;
pub mod sweep;
mod workload;

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mia_core::{AnalysisError, CancelToken};
use mia_dag_gen::Family;
use mia_model::{Arbiter, Cycles, Problem};
use serde::Serialize;

pub use commands::{run, CliError};
pub use serve::CliEngine;
pub use workload::{EdgeSpec, PlatformSpec, TaskSpec, WorkloadFile};

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
    /// The analysis failed, or its workload could not be built.
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

/// The benchmark problem for the generated `family` with `n` tasks
/// (paper parameters, MPPA-256 cluster platform), built by
/// [`SweepFamily::grid_problem`](sweep::SweepFamily::grid_problem): the
/// seed is mixed with the family and size so every point is an
/// independent draw, reproducibly.
///
/// # Panics
///
/// If `n` is 0.
pub fn benchmark_problem(family: Family, n: usize, seed: u64) -> Problem {
    sweep::SweepFamily::Generated(family)
        .grid_problem(n, seed)
        .expect("a generated family builds at every positive size")
}

/// Times the chosen algorithm on a problem under `arbiter` with a budget.
pub fn time_algorithm(
    algorithm: Algorithm,
    problem: &Problem,
    arbiter: &dyn Arbiter,
    budget: Duration,
) -> Outcome {
    match algorithm {
        Algorithm::Incremental => run_timed(budget, |token| {
            let options = mia_core::AnalysisOptions::new().cancel_token(token);
            mia_core::analyze_with(problem, arbiter, &options, &mut mia_core::NoopObserver)
                .map(|r| r.schedule.makespan())
        }),
        Algorithm::Original => run_timed(budget, |token| {
            let options = mia_baseline::BaselineOptions::new().cancel_token(token);
            mia_baseline::analyze_with(problem, arbiter, &options).map(|r| r.schedule.makespan())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn benchmark_problem_is_reproducible() {
        let a = benchmark_problem(Family::FixedLayers(4), 64, 9);
        let b = benchmark_problem(Family::FixedLayers(4), 64, 9);
        assert_eq!(a.graph(), b.graph());
    }
}
