//! Test support: run the incremental analysis on any scenario and
//! capture **everything observable** — schedule, work counters and the
//! full observer event stream.
//!
//! The paper's central claim is that the incremental analysis is
//! semantically equivalent to the exhaustive baseline while scaling to
//! many-core systems, and the DSE relies on a resumed run being
//! indistinguishable from a full one. The conformance harness
//! (`crates/core/tests/conformance.rs`) pins both with this module's
//! [`run`], [`record`] and [`run_resumed`]; they are also useful for
//! ad-hoc debugging ("what exactly did the cursor emit on this
//! workload?") and for downstream crates testing custom observers.
//!
//! # Example
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_core::testkit::{self, Event};
//! use mia_core::AnalysisOptions;
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(10)));
//! g.add_edge(a, b, 2)?;
//! let p = Problem::new(
//!     g.clone(),
//!     Mapping::from_assignment(&g, &[0, 1])?,
//!     Platform::new(2, 2),
//! )?;
//! let run = testkit::run(&p, &RoundRobin::new(), &AnalysisOptions::new())?;
//! assert_eq!(run.schedule.makespan(), Cycles(20));
//! assert_eq!(run.events[0], Event::Cursor(Cycles::ZERO));
//! # Ok(())
//! # }
//! ```

use mia_model::arbiter::Arbiter;
use mia_model::{BankId, CoreId, Cycles, Problem, Schedule, TaskId};

use crate::{
    analyze_checkpointed_with, analyze_with, resume_analyze_with, AnalysisError, AnalysisOptions,
    AnalysisReport, AnalysisStats, Checkpoint, CheckpointLog, Observer,
};

/// One event of the incremental analysis, as delivered through
/// [`Observer`] — the unit of the conformance harness's stream
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The cursor jumped to `t`.
    Cursor(Cycles),
    /// `task` opened on `core` at `t`.
    Open(TaskId, CoreId, Cycles),
    /// `task` on `core` closed at `t`.
    Close(TaskId, CoreId, Cycles),
    /// `task`'s interference on `bank` was recomputed to `total`.
    Interference(TaskId, BankId, Cycles),
}

/// An [`Observer`] that records every event verbatim.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// The recorded stream, in delivery order.
    pub events: Vec<Event>,
}

impl Observer for EventLog {
    fn on_cursor(&mut self, t: Cycles) {
        self.events.push(Event::Cursor(t));
    }

    fn on_open(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.events.push(Event::Open(task, core, t));
    }

    fn on_close(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.events.push(Event::Close(task, core, t));
    }

    fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
        self.events.push(Event::Interference(task, bank, total));
    }
}

/// Everything observable about one analysis run. Two runs comparing
/// equal are indistinguishable to any caller: same schedule, same work
/// counters, same observer event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The computed schedule.
    pub schedule: Schedule,
    /// The work counters.
    pub stats: AnalysisStats,
    /// The full observer event stream.
    pub events: Vec<Event>,
}

impl EngineRun {
    fn new(report: AnalysisReport, log: EventLog) -> Self {
        EngineRun {
            schedule: report.schedule,
            stats: report.stats,
            events: log.events,
        }
    }
}

/// Runs the analysis on `problem` under `arbiter` and `options`,
/// recording the full event stream.
///
/// # Errors
///
/// As [`crate::analyze_with`].
pub fn run<A>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
) -> Result<EngineRun, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    let mut log = EventLog::default();
    let report = analyze_with(problem, arbiter, options, &mut log)?;
    Ok(EngineRun::new(report, log))
}

/// [`run`] that also records checkpoints into `checkpoints` — the
/// recording side of the delta-resume conformance checks.
///
/// # Errors
///
/// As [`crate::analyze_with`].
pub fn record<A>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    checkpoints: &mut CheckpointLog,
) -> Result<EngineRun, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    let mut log = EventLog::default();
    let report = analyze_checkpointed_with(problem, arbiter, options, &mut log, checkpoints)?;
    Ok(EngineRun::new(report, log))
}

/// Resumes from `checkpoint` (recorded by [`record`] for the run that
/// produced `prior`), capturing the suffix event stream. The returned
/// schedule and stats are complete; `events` holds only the resumed
/// suffix — the harness pins it as a strict suffix of the full run's
/// stream.
///
/// # Errors
///
/// As [`crate::analyze_with`].
pub fn run_resumed<A>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    checkpoint: &Checkpoint,
    prior: &Schedule,
) -> Result<EngineRun, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    let mut log = EventLog::default();
    let report = resume_analyze_with(problem, arbiter, options, &mut log, checkpoint, prior, None)?;
    Ok(EngineRun::new(report, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::default();
        log.on_cursor(Cycles(0));
        log.on_open(TaskId(1), CoreId(0), Cycles(0));
        log.on_interference(TaskId(1), BankId(2), Cycles(5));
        log.on_close(TaskId(1), CoreId(0), Cycles(9));
        assert_eq!(
            log.events,
            vec![
                Event::Cursor(Cycles(0)),
                Event::Open(TaskId(1), CoreId(0), Cycles(0)),
                Event::Interference(TaskId(1), BankId(2), Cycles(5)),
                Event::Close(TaskId(1), CoreId(0), Cycles(9)),
            ]
        );
    }
}
