//! The incremental scheduling algorithm (Algorithm 1 of the paper): the
//! public entry points over the cursor driver of the
//! [`engine` module](crate::engine).

use mia_model::arbiter::Arbiter;
use mia_model::{Problem, Schedule};

use crate::checkpoint::{Checkpoint, CheckpointLog};
use crate::engine::{drive, Resume};
use crate::{AnalysisError, AnalysisOptions, NoopObserver, Observer};

/// Counters describing the work an analysis run performed; useful for
/// checking the complexity claims empirically (the benches report them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Distinct cursor positions visited (bounded by 2n in the paper's
    /// complexity argument: task end dates and minimal release dates).
    pub cursor_steps: usize,
    /// Calls to the arbiter's `IBUS` function.
    pub ibus_calls: usize,
    /// (destination, source) alive pairs examined.
    pub pairs_considered: usize,
    /// Peak number of simultaneously alive tasks (bounded by the core
    /// count — the key of the complexity reduction).
    pub max_alive: usize,
}

/// The result of [`analyze_with`]: the schedule plus run statistics.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The computed time-triggered schedule.
    pub schedule: Schedule,
    /// Work counters for this run.
    pub stats: AnalysisStats,
}

/// Runs the incremental analysis with default options and no observer.
///
/// This is the paper's Algorithm 1: complexity `O(c²·b·n²)`, i.e. O(n²)
/// for a fixed platform, against the original algorithm's O(n⁴)
/// (see [`mia_baseline`-style baseline crate] for the latter).
///
/// # Errors
///
/// * [`AnalysisError::Deadlock`] on inconsistent hand-built inputs (cannot
///   happen for a validated [`Problem`]).
///
/// # Example
///
/// See the [crate-level documentation](crate).
pub fn analyze<A>(problem: &Problem, arbiter: &A) -> Result<Schedule, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    analyze_with(
        problem,
        arbiter,
        &AnalysisOptions::default(),
        &mut NoopObserver,
    )
    .map(|r| r.schedule)
}

/// Runs the incremental analysis with explicit options and an observer.
///
/// The observer receives every cursor move, task opening/closing and
/// interference update in order — enough to reconstruct the paper's
/// Figure 2 snapshot at any instant (see `mia-trace`).
///
/// # Errors
///
/// * [`AnalysisError::DeadlineExceeded`] if a finish date crosses
///   `options.deadline` (the task set is unschedulable),
/// * [`AnalysisError::Cancelled`] if `options.cancel` fires,
/// * [`AnalysisError::Deadlock`] on inconsistent hand-built inputs.
pub fn analyze_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    observer: &mut O,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    let (timings, stats) = drive(problem, arbiter, options, observer, None, None)?;
    Ok(AnalysisReport {
        schedule: Schedule::from_timings(timings),
        stats,
    })
}

/// [`analyze_with`] under its former multi-threaded name: `threads` is
/// ignored. Kept only because the benchmark's traced run still times it
/// as `core.analyze_parallel2_s`, which therefore measures the sequential
/// engine; the function goes when the benchmark drops that row.
///
/// # Errors
///
/// As [`analyze_with`].
#[doc(hidden)]
pub fn analyze_parallel_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    _threads: usize,
    observer: &mut O,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    analyze_with(problem, arbiter, options, observer)
}

/// [`analyze_with`] that additionally records [`Checkpoint`]s of the
/// cursor driver into `log` as the run progresses. The filled log (plus
/// the returned schedule) is what [`analyze_delta_with`] and
/// [`resume_analyze_with`] resume from after a local mapping change.
///
/// # Errors
///
/// As [`analyze_with`].
pub fn analyze_checkpointed_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    observer: &mut O,
    log: &mut CheckpointLog,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    let (timings, stats) = drive(problem, arbiter, options, observer, None, Some(log))?;
    Ok(AnalysisReport {
        schedule: Schedule::from_timings(timings),
        stats,
    })
}

/// Resumes a recorded analysis from `checkpoint`:
/// only the suffix of the run is re-executed (and only its events reach
/// the observer), yet the returned schedule and stats are complete and
/// bit-identical to a from-scratch [`analyze_with`] of `problem`.
///
/// `prior` is the schedule of the run that recorded the checkpoint; the
/// caller must have verified the admission rule
/// ([`Checkpoint::admits`]) for whatever changed between that run's
/// problem and this one. Pass a `log` to keep recording the suffix.
///
/// # Errors
///
/// As [`analyze_with`].
pub fn resume_analyze_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    observer: &mut O,
    checkpoint: &Checkpoint,
    prior: &Schedule,
    log: Option<&mut CheckpointLog>,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    let resume = Resume {
        checkpoint,
        prior: prior.timings(),
    };
    let (timings, stats) = drive(problem, arbiter, options, observer, Some(resume), log)?;
    Ok(AnalysisReport {
        schedule: Schedule::from_timings(timings),
        stats,
    })
}

/// Delta re-analysis: analyzes `problem` — which must differ from the
/// run recorded in `log` (whose schedule was `prior`) only at order
/// positions at or after the `(core, position)` pairs in `changed` —
/// resuming from the latest admissible checkpoint, or from scratch when
/// the whole prefix is invalidated.
///
/// Returns the report, the checkpoint log of *this* run (sharing the
/// admissible prefix with `log`, which is left untouched — callers keep
/// it valid for the base mapping), and whether the delta path actually
/// skipped work.
///
/// # Errors
///
/// As [`analyze_with`].
pub fn analyze_delta_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    observer: &mut O,
    log: &CheckpointLog,
    changed: &[(usize, usize)],
    prior: &Schedule,
) -> Result<(AnalysisReport, CheckpointLog, bool), AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    if prior.len() == problem.len() {
        if let Some(checkpoint) = log.best_for(changed) {
            if checkpoint.skips_work() {
                let mut branch = log.branch_at(checkpoint.step());
                let report = resume_analyze_with(
                    problem,
                    arbiter,
                    options,
                    observer,
                    checkpoint,
                    prior,
                    Some(&mut branch),
                )?;
                return Ok((report, branch, true));
            }
        }
    }
    // Prefix invalidated (or resuming would not skip anything): fall back
    // to a full run, recording a fresh log for the next move.
    let mut fresh = CheckpointLog::new();
    let report = analyze_checkpointed_with(problem, arbiter, options, observer, &mut fresh)?;
    Ok((report, fresh, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InterferenceMode;
    use mia_model::arbiter::InterfererDemand;
    use mia_model::{
        BankId, CoreId, Cycles, Mapping, ModelError, Platform, Task, TaskGraph, TaskId,
    };

    /// Flat round-robin: Σ min(d_v, d_j), additive — a local copy so unit
    /// tests do not depend on `mia-arbiter` (which is a dev-dependency of
    /// the integration tests instead).
    struct Rr;

    impl Arbiter for Rr {
        fn name(&self) -> &str {
            "rr-test"
        }

        fn bank_interference(
            &self,
            _victim: CoreId,
            demand: u64,
            interferers: &[InterfererDemand],
            access_cycles: Cycles,
        ) -> Cycles {
            access_cycles
                * interferers
                    .iter()
                    .map(|i| demand.min(i.accesses))
                    .sum::<u64>()
        }

        fn is_additive(&self) -> bool {
            true
        }
    }

    /// The paper's Figure 1 instance (the edges are reconstructed as in
    /// `tests/figure1.rs`).
    fn figure1() -> Problem {
        let mut g = TaskGraph::new();
        let n0 = g.add_task(Task::builder("n0").wcet(Cycles(2)));
        let n1 = g.add_task(Task::builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
        let n2 = g.add_task(Task::builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
        let n3 = g.add_task(Task::builder("n3").wcet(Cycles(3)));
        let n4 = g.add_task(Task::builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
        for (s, d) in [(n0, n1), (n0, n2), (n1, n2), (n3, n2), (n3, n4)] {
            g.add_edge(s, d, 1).unwrap();
        }
        let m = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3]).unwrap();
        Problem::new(g, m, Platform::new(4, 4)).unwrap()
    }

    #[test]
    fn figure1_makespan_is_7() {
        let p = figure1();
        let s = analyze(&p, &Rr).unwrap();
        // Paper: interference delays the global WCRT from t=6 to t=7.
        assert_eq!(p.graph().critical_path().unwrap(), Cycles(6));
        assert_eq!(s.makespan(), Cycles(7));
        // Per-task interference as in the figure: n0:1, n1:1, n3:2.
        assert_eq!(s.timing(TaskId(0)).interference, Cycles(1));
        assert_eq!(s.timing(TaskId(1)).interference, Cycles(1));
        assert_eq!(s.timing(TaskId(2)).interference, Cycles(0));
        assert_eq!(s.timing(TaskId(3)).interference, Cycles(2));
        assert_eq!(s.timing(TaskId(4)).interference, Cycles(0));
        // Release dates.
        assert_eq!(s.timing(TaskId(0)).release, Cycles(0));
        assert_eq!(s.timing(TaskId(1)).release, Cycles(3));
        assert_eq!(s.timing(TaskId(2)).release, Cycles(6));
        assert_eq!(s.timing(TaskId(3)).release, Cycles(0));
        assert_eq!(s.timing(TaskId(4)).release, Cycles(5));
        s.check(&p).unwrap();
    }

    #[test]
    fn empty_problem_yields_empty_schedule() {
        let g = TaskGraph::new();
        let m = Mapping::from_assignment(&g, &[]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.makespan(), Cycles::ZERO);
    }

    #[test]
    fn single_task_has_no_interference() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(42)).min_release(Cycles(5)));
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert_eq!(s.timing(a).release, Cycles(5));
        assert_eq!(s.timing(a).interference, Cycles::ZERO);
        assert_eq!(s.makespan(), Cycles(47));
    }

    #[test]
    fn same_core_tasks_never_interfere() {
        // Two tasks with huge shared demand on one core: serialized, so no
        // interference.
        let mut g = TaskGraph::new();
        let a = g.add_task(
            Task::builder("a")
                .wcet(Cycles(10))
                .private_demand(mia_model::BankDemand::single(BankId(0), 100)),
        );
        let b = g.add_task(
            Task::builder("b")
                .wcet(Cycles(10))
                .private_demand(mia_model::BankDemand::single(BankId(0), 100)),
        );
        let m = Mapping::from_assignment(&g, &[0, 0]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert_eq!(s.timing(a).interference, Cycles::ZERO);
        assert_eq!(s.timing(b).interference, Cycles::ZERO);
        assert_eq!(s.timing(b).release, Cycles(10));
        assert_eq!(s.makespan(), Cycles(20));
    }

    #[test]
    fn disjoint_banks_no_interference() {
        let mut g = TaskGraph::new();
        let _a = g.add_task(
            Task::builder("a")
                .wcet(Cycles(10))
                .private_demand(mia_model::BankDemand::single(BankId(0), 50)),
        );
        let _b = g.add_task(
            Task::builder("b")
                .wcet(Cycles(10))
                .private_demand(mia_model::BankDemand::single(BankId(0), 50)),
        );
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        // PerCoreBank policy maps each private demand to its own core bank:
        // a → bank 0, b → bank 1. Disjoint → zero interference.
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert_eq!(s.total_interference(), Cycles::ZERO);
        assert_eq!(s.makespan(), Cycles(10));
    }

    #[test]
    fn overlapping_tasks_interfere_symmetrically() {
        use mia_model::{BankDemand, BankPolicy};
        let mut g = TaskGraph::new();
        let a = g.add_task(
            Task::builder("a")
                .wcet(Cycles(100))
                .private_demand(BankDemand::single(BankId(0), 20)),
        );
        let b = g.add_task(
            Task::builder("b")
                .wcet(Cycles(100))
                .private_demand(BankDemand::single(BankId(0), 30)),
        );
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let p = Problem::with_policy(g, m, Platform::new(2, 2), BankPolicy::SingleBank).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        // a suffers min(20, 30) = 20; b suffers min(30, 20) = 20.
        assert_eq!(s.timing(a).interference, Cycles(20));
        assert_eq!(s.timing(b).interference, Cycles(20));
        assert_eq!(s.makespan(), Cycles(120));
    }

    #[test]
    fn deadline_makes_unschedulable() {
        let p = figure1();
        let opts = AnalysisOptions::new().deadline(Cycles(6));
        let err = analyze_with(&p, &Rr, &opts, &mut NoopObserver).unwrap_err();
        assert!(matches!(err, AnalysisError::DeadlineExceeded { .. }));
        // A deadline of 7 is met.
        let opts = AnalysisOptions::new().deadline(Cycles(7));
        assert!(analyze_with(&p, &Rr, &opts, &mut NoopObserver).is_ok());
    }

    #[test]
    fn task_deadline_enforcement() {
        // n3 of Figure 1 responds in 5 cycles (wcet 3 + interference 2).
        let p = figure1();
        let mut g2 = p.graph().clone();
        g2.task_mut(TaskId(3)).set_deadline(Some(Cycles(4)));
        let p2 = Problem::new(g2, p.mapping().clone(), p.platform().clone()).unwrap();
        let opts = AnalysisOptions::new().task_deadlines(true);
        let err = analyze_with(&p2, &Rr, &opts, &mut NoopObserver).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::TaskDeadlineMissed {
                task: TaskId(3),
                ..
            }
        ));
        // A 5-cycle deadline is met; without enforcement nothing aborts.
        let mut g3 = p.graph().clone();
        g3.task_mut(TaskId(3)).set_deadline(Some(Cycles(5)));
        let p3 = Problem::new(g3, p.mapping().clone(), p.platform().clone()).unwrap();
        assert!(analyze_with(&p3, &Rr, &opts, &mut NoopObserver).is_ok());
        assert!(analyze_with(&p2, &Rr, &AnalysisOptions::new(), &mut NoopObserver).is_ok());
    }

    #[test]
    fn cancellation_aborts() {
        let p = figure1();
        let token = crate::CancelToken::new();
        token.cancel();
        let opts = AnalysisOptions::new().cancel_token(token);
        let err = analyze_with(&p, &Rr, &opts, &mut NoopObserver).unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }

    #[test]
    fn pairwise_mode_matches_aggregate_for_single_interferer_per_core() {
        let p = figure1();
        let exact = analyze(&p, &Rr).unwrap();
        let opts = AnalysisOptions::new().interference_mode(InterferenceMode::PairwiseAdditive);
        let pairwise = analyze_with(&p, &Rr, &opts, &mut NoopObserver)
            .unwrap()
            .schedule;
        assert_eq!(exact, pairwise);
    }

    #[test]
    fn stats_report_bounded_alive_set() {
        let p = figure1();
        let r = analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut NoopObserver).unwrap();
        assert!(r.stats.max_alive <= 4, "alive set bounded by core count");
        assert!(r.stats.cursor_steps >= 1);
        assert!(r.stats.ibus_calls >= 1);
    }

    #[test]
    fn zero_wcet_tasks_chain_at_same_instant() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(0)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(0)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(5)));
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        let m = Mapping::from_assignment(&g, &[0, 1, 0]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert_eq!(s.timing(a).release, Cycles(0));
        assert_eq!(s.timing(b).release, Cycles(0));
        assert_eq!(s.timing(c).release, Cycles(0));
        assert_eq!(s.makespan(), Cycles(5));
    }

    #[test]
    fn observer_sees_figure1_event_stream() {
        #[derive(Default)]
        struct Log {
            opens: Vec<(TaskId, Cycles)>,
            closes: Vec<(TaskId, Cycles)>,
            cursors: Vec<Cycles>,
        }
        impl Observer for Log {
            fn on_cursor(&mut self, t: Cycles) {
                self.cursors.push(t);
            }
            fn on_open(&mut self, task: TaskId, _core: CoreId, t: Cycles) {
                self.opens.push((task, t));
            }
            fn on_close(&mut self, task: TaskId, _core: CoreId, t: Cycles) {
                self.closes.push((task, t));
            }
        }
        let p = figure1();
        let mut log = Log::default();
        let _ = analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut log).unwrap();
        assert_eq!(log.opens.len(), 5);
        assert_eq!(log.closes.len(), 5);
        // Cursor positions strictly increase.
        for w in log.cursors.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Opens: n0 and n3 at t=0.
        assert_eq!(log.opens[0], (TaskId(0), Cycles(0)));
        assert_eq!(log.opens[1], (TaskId(3), Cycles(0)));
    }

    #[test]
    fn invalid_mapping_is_rejected_before_analysis() {
        // Problem construction already rejects cross-core order cycles;
        // analyze never sees them.
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(1)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(1)));
        g.add_edge(a, b, 1).unwrap();
        let m = Mapping::from_orders(&g, vec![vec![b, a]]).unwrap();
        assert!(matches!(
            Problem::new(g, m, Platform::new(1, 1)),
            Err(ModelError::Cycle(_))
        ));
    }
}
