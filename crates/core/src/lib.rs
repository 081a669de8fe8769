//! The incremental O(n²) memory interference analysis — the contribution
//! of *"Scaling Up the Memory Interference Analysis for Hard Real-Time
//! Many-Core Systems"* (DATE 2020), Algorithm 1.
//!
//! # The problem
//!
//! Given a validated [`Problem`](mia_model::Problem) (task DAG, mapping
//! with per-core execution order, platform, per-bank demands) and an
//! [`Arbiter`](mia_model::Arbiter), compute a **static time-triggered
//! schedule**: a release date and worst-case response time (WCET +
//! interference) per task. Once computed, release dates are honoured at
//! run time even when dependencies finish early, which keeps the
//! interference bounds valid ("avoiding unexpected interferences", §II.B).
//!
//! # The algorithm
//!
//! Instead of the global fixed-point iterations of the original algorithm
//! (`mia-baseline`), a time cursor `t` sweeps forward. Tasks are
//! partitioned into **closed** (finished before `t`), **alive** (executing
//! at `t` — at most one per core, since per-core execution is serial) and
//! **future**. At each step:
//!
//! 1. alive tasks whose finish date equals `t` close, releasing their
//!    dependents,
//! 2. each idle core opens the next task of its execution order if its
//!    dependencies are closed and its minimal release date has passed;
//!    the release date is **fixed forever** at `t`,
//! 3. interference between the newly opened tasks and the other alive
//!    tasks is (re)computed per memory bank via the arbiter's `IBUS`
//!    function,
//! 4. `t` jumps to the next alive finish date or future minimal release
//!    date, whichever is smaller.
//!
//! Because releases are final and interference sets only grow, no
//! fixed-point iteration is needed: the complexity is `O(c²·b·n²)` — with
//! platform constants, **O(n²)** against the original **O(n⁴)**.
//!
//! # Entry points
//!
//! One cursor loop (the internal `engine` module) runs every analysis.
//! Its alive set lives in dense, generation-stamped per-core slots, so
//! the hot path performs no heap allocation.
//!
//! * [`analyze`] / [`analyze_with`] — a full run;
//! * [`analyze_checkpointed_with`] — a full run that records
//!   [`Checkpoint`]s into a [`CheckpointLog`];
//! * [`resume_analyze_with`] / [`analyze_delta_with`] — re-enter a
//!   recorded run after a local mapping change and replay only the
//!   suffix (the DSE inner loop).
//!
//! The [`testkit`] module runs a scenario and captures everything
//! observable; the conformance harness (`tests/conformance.rs`) uses it
//! to pin full and resumed runs to the same schedules, work counters and
//! event streams, and to the exhaustive `mia-baseline` oracle, on
//! generated systems covering every arbiter and interference mode.
//!
//! # Example
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_core::analyze;
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two producers on different cores feeding one consumer: the producers
//! // overlap and interfere where their demands meet.
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(100)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(100)));
//! let c = g.add_task(Task::builder("c").wcet(Cycles(50)));
//! g.add_edge(a, c, 10)?;
//! g.add_edge(b, c, 10)?;
//! let mapping = Mapping::from_assignment(&g, &[0, 1, 0])?;
//! let problem = Problem::new(g, mapping, Platform::new(2, 2))?;
//!
//! let schedule = analyze(&problem, &RoundRobin::new())?;
//! // a and b both write 10 words into c's bank (bank 0, core 0's bank):
//! // each suffers min(10, 10) = 10 cycles of interference.
//! assert_eq!(schedule.timing(a).interference, Cycles(10));
//! assert_eq!(schedule.timing(b).interference, Cycles(10));
//! assert_eq!(schedule.makespan(), Cycles(160)); // a finishes at 110, c at 160
//! # Ok(())
//! # }
//! ```

mod alive;
mod analysis;
mod cancel;
mod checkpoint;
mod engine;
mod error;
mod observer;
mod options;
pub mod testkit;

pub use analysis::{
    analyze, analyze_checkpointed_with, analyze_delta_with, analyze_parallel_with, analyze_with,
    resume_analyze_with, AnalysisReport, AnalysisStats,
};
pub use cancel::CancelToken;
pub use checkpoint::{Checkpoint, CheckpointLog};
pub use error::AnalysisError;
pub use observer::{NoopObserver, Observer};
pub use options::{AnalysisOptions, InterferenceMode};
