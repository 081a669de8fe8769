//! Objectives: what the search minimises.
//!
//! Since PR 9 every evaluation prices a small fixed *objective vector*
//! ([`ObjVec`]) instead of a bare makespan: the scalar search is the
//! 1-component special case (it ranks candidates by
//! [`ObjVec::makespan`] alone), while the Pareto mode trades all three
//! components off against each other.

use mia_core::{
    analyze_checkpointed_with, analyze_delta_with, analyze_with, AnalysisError, AnalysisOptions,
    CheckpointLog, NoopObserver,
};
use mia_model::arbiter::Arbiter;
use mia_model::{Cycles, Problem, Schedule};

/// The fixed objective vector every evaluation produces. All three
/// components are *minimised*:
///
/// * `makespan` — the analyzed global worst-case response time;
/// * `neg_slack` — the negated tightest per-task slack
///   (`deadline − response_time`, as [`mia_model::ScheduleMetrics`]
///   measures it): minimising it maximises the safety margin. `0` when
///   no task carries a deadline, so deadline-free workloads simply
///   collapse this axis;
/// * `bank_peak` — the heaviest per-bank total access count under the
///   candidate's mapping and bank placement
///   ([`mia_model::bank_loads`]): the memory-placement axis the
///   paper's analysis can already price.
///
/// The derived `Ord` is lexicographic in field order, which gives the
/// deterministic tie-break the Pareto archive and the reports rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjVec {
    /// Analyzed makespan in cycles.
    pub makespan: u64,
    /// Negated minimum slack over deadline tasks (0 without deadlines).
    pub neg_slack: i64,
    /// Heaviest per-bank total access count.
    pub bank_peak: u64,
}

impl ObjVec {
    /// The scalar special case: a bare makespan with collapsed
    /// secondary axes (used by objectives that cannot price them).
    #[must_use]
    pub fn scalar(makespan: Cycles) -> Self {
        ObjVec {
            makespan: makespan.as_u64(),
            neg_slack: 0,
            bank_peak: 0,
        }
    }

    /// Measures a finished schedule: makespan from the schedule,
    /// min-slack against the tasks' relative deadlines, bank peak from
    /// the problem's demand vectors.
    #[must_use]
    pub fn measure(schedule: &Schedule, problem: &Problem) -> Self {
        let mut min_slack: Option<i64> = None;
        for (id, task) in problem.graph().iter() {
            if let Some(deadline) = task.deadline() {
                let response = schedule.timing(id).response_time();
                let slack = saturating_i64(deadline.as_u64()) - saturating_i64(response.as_u64());
                min_slack = Some(min_slack.map_or(slack, |m| m.min(slack)));
            }
        }
        let (_, bank_peak) = mia_model::bank_loads(problem);
        ObjVec {
            makespan: schedule.makespan().as_u64(),
            neg_slack: min_slack.map_or(0, |s| -s),
            bank_peak,
        }
    }

    /// The components as one uniformly-signed array (minimised), in
    /// the canonical order `[makespan, neg_slack, bank_peak]` — the
    /// order [`crate::ObjMask`] indexes.
    #[must_use]
    pub fn components(&self) -> [i128; 3] {
        [
            i128::from(self.makespan),
            i128::from(self.neg_slack),
            i128::from(self.bank_peak),
        ]
    }
}

fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// How an evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectiveError {
    /// This candidate cannot be scheduled (e.g. it misses a deadline the
    /// options enforce). The search rejects the candidate and carries on.
    Infeasible(String),
    /// The whole search must stop (e.g. cooperative cancellation fired).
    Fatal(String),
}

/// The outcome of one bounded move evaluation
/// (see [`Objective::evaluate_move`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveVerdict {
    /// The evaluation completed: this is the exact objective vector.
    Feasible(ObjVec),
    /// The candidate cannot be scheduled at all (ordering deadlock, or a
    /// deadline the options enforce was missed).
    Infeasible(String),
    /// The evaluation was cut off: the **makespan** provably exceeds the
    /// bound the caller passed. Its exact vector — and its feasibility
    /// under a larger bound — is unknown. The bound stays a pure
    /// makespan bound even in multi-objective searches: it is the one
    /// component the analysis can abort on mid-run, and the scalar
    /// special case is exactly the 1-component dominance cutoff.
    AboveBound,
}

/// A cost function over validated problems. Implementations are called
/// thousands of times per search, always on the **same** graph and
/// platform with different mappings — only per-call state (an arbiter,
/// analysis options) belongs in the implementor.
///
/// # Delta protocol
///
/// The search loop evaluates candidates that each differ from the last
/// *accepted* one by a single move. Objectives that can exploit that
/// implement the four optional hooks: [`establish_base`] records the
/// accepted incumbent, [`evaluate_move`] evaluates a neighbour knowing
/// what changed (and under a rejection bound), and the caller then
/// either [`promote`]s the scratch state (the move was accepted) or
/// [`invalidate`]s it. The defaults fall back to a plain full
/// [`evaluate`], so objectives without delta support keep working
/// unchanged.
///
/// # Variants
///
/// Joint-axis searches carry the arbiter choice *inside* the candidate;
/// [`select_variant`] tells the objective which variant the next
/// evaluations run under. Single-arbiter objectives ignore it, which is
/// what keeps the scalar path bit-identical to the pre-vector code.
///
/// [`establish_base`]: Objective::establish_base
/// [`evaluate_move`]: Objective::evaluate_move
/// [`promote`]: Objective::promote
/// [`invalidate`]: Objective::invalidate
/// [`evaluate`]: Objective::evaluate
/// [`select_variant`]: Objective::select_variant
pub trait Objective {
    /// Label used in reports ("analyzed", "proxy", …).
    fn name(&self) -> &str;

    /// The objective vector of `problem` (component-wise lower is
    /// better).
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::Infeasible`] rejects this candidate only;
    /// [`ObjectiveError::Fatal`] aborts the search.
    fn evaluate(&mut self, problem: &Problem) -> Result<ObjVec, ObjectiveError>;

    /// Evaluates `problem` knowing it differs from the last
    /// [`promote`](Objective::promote)d base only at the given
    /// `(core, order position)` pairs (see
    /// [`Candidate::changed_positions`](crate::Candidate::changed_positions)),
    /// and that the caller rejects any makespan above `bound`. Returns
    /// the verdict plus whether the evaluation actually resumed from a
    /// recorded checkpoint. The default ignores both hints and runs
    /// [`Objective::evaluate`] in full.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::Fatal`] aborts the search (infeasibility is a
    /// verdict here, not an error).
    fn evaluate_move(
        &mut self,
        problem: &Problem,
        changed: &[(usize, usize)],
        bound: Option<Cycles>,
    ) -> Result<(MoveVerdict, bool), ObjectiveError> {
        let _ = (changed, bound);
        match self.evaluate(problem) {
            Ok(obj) => Ok((MoveVerdict::Feasible(obj), false)),
            Err(ObjectiveError::Infeasible(m)) => Ok((MoveVerdict::Infeasible(m), false)),
            Err(e) => Err(e),
        }
    }

    /// Selects the arbiter variant subsequent evaluations run under
    /// (joint-axis searches fold the arbiter choice into the candidate).
    /// Out-of-range indices clamp; objectives without variants ignore
    /// the call entirely.
    fn select_variant(&mut self, variant: usize) {
        let _ = variant;
    }

    /// Records `problem` as the base that subsequent
    /// [`evaluate_move`](Objective::evaluate_move) calls are relative
    /// to. No-op for objectives without delta support.
    ///
    /// # Errors
    ///
    /// [`ObjectiveError::Fatal`] aborts the search; an infeasible base
    /// merely leaves delta support disabled.
    fn establish_base(&mut self, problem: &Problem) -> Result<(), ObjectiveError> {
        let _ = problem;
        Ok(())
    }

    /// The caller accepted the last
    /// [`evaluate_move`](Objective::evaluate_move): its recorded state
    /// becomes the new base.
    fn promote(&mut self) {}

    /// The last [`evaluate_move`](Objective::evaluate_move)'s recorded
    /// state must not become a base (the caller served the cost from a
    /// cache, or rejected the candidate structurally).
    fn invalidate(&mut self) {}
}

/// The recorded outcome of one full or resumed analysis: everything a
/// later delta evaluation needs to resume mid-run, plus the arbiter
/// variant it ran under (a recorded prefix is only valid for the same
/// arbiter).
struct DeltaState {
    log: CheckpointLog,
    schedule: Schedule,
    variant: usize,
}

/// The real thing: the analyzed objective vector under an arbiter —
/// WCETs plus memory interference, computed by the paper's incremental
/// analysis ([`mia_core::analyze_with`]). This is the objective that
/// makes the search *interference-aware*: a mapping that looks balanced
/// to the proxy can lose here because it piles communicating tasks onto
/// conflicting banks.
///
/// It implements the full delta protocol: every evaluation records a
/// [`CheckpointLog`], and [`Objective::evaluate_move`] resumes from the
/// latest checkpoint of the accepted base whose prefix the move provably
/// cannot affect ([`mia_core::analyze_delta_with`]). A `bound` is folded
/// into the analysis deadline, so provably-rejected candidates abort
/// mid-run instead of being priced exactly.
///
/// Joint-axis searches construct it over *several* arbiters
/// ([`AnalyzedMakespan::with_arbiters`]); [`Objective::select_variant`]
/// switches between them, and a recorded base is only resumed when it
/// was produced under the currently selected variant — an arbiter
/// switch therefore re-analyses in full, exactly as correctness
/// demands.
pub struct AnalyzedMakespan<'a> {
    arbiters: Vec<&'a (dyn Arbiter + Send + Sync)>,
    active: usize,
    options: AnalysisOptions,
    /// Recorded state of the last promoted (accepted) evaluation.
    base: Option<DeltaState>,
    /// Recorded state of the last `evaluate_move`, awaiting promotion.
    scratch: Option<DeltaState>,
}

impl<'a> AnalyzedMakespan<'a> {
    /// Builds the objective for an arbiter with explicit options (a
    /// deadline in the options makes deadline-missing candidates
    /// infeasible rather than accepted-but-late).
    pub fn new(arbiter: &'a (dyn Arbiter + Send + Sync), options: AnalysisOptions) -> Self {
        Self::with_arbiters(vec![arbiter], options)
    }

    /// Builds the objective over several arbiter variants (joint-axis
    /// searches; variant 0 is the initial selection).
    ///
    /// # Panics
    ///
    /// Panics when `arbiters` is empty.
    pub fn with_arbiters(
        arbiters: Vec<&'a (dyn Arbiter + Send + Sync)>,
        options: AnalysisOptions,
    ) -> Self {
        assert!(!arbiters.is_empty(), "at least one arbiter variant");
        AnalyzedMakespan {
            arbiters,
            active: 0,
            options,
            base: None,
            scratch: None,
        }
    }

    fn arbiter(&self) -> &'a (dyn Arbiter + Send + Sync) {
        self.arbiters[self.active]
    }
}

impl Objective for AnalyzedMakespan<'_> {
    fn name(&self) -> &str {
        "analyzed"
    }

    fn select_variant(&mut self, variant: usize) {
        self.active = variant.min(self.arbiters.len() - 1);
    }

    fn evaluate(&mut self, problem: &Problem) -> Result<ObjVec, ObjectiveError> {
        match analyze_with(problem, self.arbiter(), &self.options, &mut NoopObserver) {
            Ok(report) => Ok(ObjVec::measure(&report.schedule, problem)),
            Err(
                e @ (AnalysisError::DeadlineExceeded { .. }
                | AnalysisError::TaskDeadlineMissed { .. }),
            ) => Err(ObjectiveError::Infeasible(e.to_string())),
            Err(e) => Err(ObjectiveError::Fatal(e.to_string())),
        }
    }

    fn evaluate_move(
        &mut self,
        problem: &Problem,
        changed: &[(usize, usize)],
        bound: Option<Cycles>,
    ) -> Result<(MoveVerdict, bool), ObjectiveError> {
        self.scratch = None;
        let user_deadline = self.options.deadline;
        let mut options = self.options.clone();
        options.deadline = match (user_deadline, bound) {
            (Some(d), Some(b)) => Some(d.min(b)),
            (Some(d), None) => Some(d),
            (None, b) => b,
        };
        // A base recorded under a different arbiter variant must not be
        // resumed: its schedule prefix priced different interference.
        let base = self.base.as_ref().filter(|b| b.variant == self.active);
        let run = match base {
            Some(base) => analyze_delta_with(
                problem,
                self.arbiter(),
                &options,
                &mut NoopObserver,
                &base.log,
                changed,
                &base.schedule,
            ),
            None => {
                let mut log = CheckpointLog::new();
                analyze_checkpointed_with(
                    problem,
                    self.arbiter(),
                    &options,
                    &mut NoopObserver,
                    &mut log,
                )
                .map(|report| (report, log, false))
            }
        };
        match run {
            Ok((report, log, resumed)) => {
                let obj = ObjVec::measure(&report.schedule, problem);
                self.scratch = Some(DeltaState {
                    log,
                    schedule: report.schedule,
                    variant: self.active,
                });
                Ok((MoveVerdict::Feasible(obj), resumed))
            }
            Err(e @ AnalysisError::DeadlineExceeded { .. }) => {
                // Crossing the caller's bound is a rejection with unknown
                // exact cost; crossing the problem's own deadline is a
                // genuinely infeasible candidate.
                let cut_by_bound = bound.is_some_and(|b| user_deadline.is_none_or(|d| b < d));
                if cut_by_bound {
                    Ok((MoveVerdict::AboveBound, false))
                } else {
                    Ok((MoveVerdict::Infeasible(e.to_string()), false))
                }
            }
            Err(e @ AnalysisError::TaskDeadlineMissed { .. }) => {
                Ok((MoveVerdict::Infeasible(e.to_string()), false))
            }
            Err(e) => Err(ObjectiveError::Fatal(e.to_string())),
        }
    }

    fn establish_base(&mut self, problem: &Problem) -> Result<(), ObjectiveError> {
        self.base = None;
        self.scratch = None;
        let mut log = CheckpointLog::new();
        match analyze_checkpointed_with(
            problem,
            self.arbiter(),
            &self.options,
            &mut NoopObserver,
            &mut log,
        ) {
            Ok(report) => {
                self.base = Some(DeltaState {
                    log,
                    schedule: report.schedule,
                    variant: self.active,
                });
                Ok(())
            }
            // An infeasible base disables delta resumption but is not an
            // error: every subsequent move evaluates in full.
            Err(
                AnalysisError::DeadlineExceeded { .. } | AnalysisError::TaskDeadlineMissed { .. },
            ) => Ok(()),
            Err(e) => Err(ObjectiveError::Fatal(e.to_string())),
        }
    }

    fn promote(&mut self) {
        self.base = self.scratch.take();
    }

    fn invalidate(&mut self) {
        self.scratch = None;
    }
}

/// The interference-free proxy ([`mia_mapping::assignment_makespan`]):
/// list-schedule the assignment ignoring memory interference. Kept as the A/B baseline for measuring what the
/// analysis-backed objective buys, and as a fast objective for tests.
/// It prices no schedule, so the secondary axes stay collapsed
/// ([`ObjVec::scalar`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProxyMakespan;

impl Objective for ProxyMakespan {
    fn name(&self) -> &str {
        "proxy"
    }

    fn evaluate(&mut self, problem: &Problem) -> Result<ObjVec, ObjectiveError> {
        let assignment: Vec<usize> = (0..problem.len())
            .map(|i| {
                problem
                    .mapping()
                    .core_of(mia_model::TaskId::from_index(i))
                    .index()
            })
            .collect();
        mia_mapping::assignment_makespan(problem.graph(), &assignment)
            .map(ObjVec::scalar)
            .map_err(|e| ObjectiveError::Fatal(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_arbiter::{MppaTree, RoundRobin};
    use mia_model::{Cycles, Mapping, Platform, Task, TaskGraph};

    fn contended_problem() -> Problem {
        // Two heavy communicators on separate cores: the analyzed
        // makespan exceeds the interference-free proxy.
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(100)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(100)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(50)));
        g.add_edge(a, c, 10).unwrap();
        g.add_edge(b, c, 10).unwrap();
        let m = Mapping::from_assignment(&g, &[0, 1, 0]).unwrap();
        Problem::new(g, m, Platform::new(2, 2)).unwrap()
    }

    #[test]
    fn analyzed_objective_sees_interference_the_proxy_misses() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        let analyzed = AnalyzedMakespan::new(&rr, AnalysisOptions::new())
            .evaluate(&p)
            .unwrap();
        let proxy = ProxyMakespan.evaluate(&p).unwrap();
        assert!(
            analyzed.makespan > proxy.makespan,
            "{analyzed:?} vs {proxy:?}"
        );
        assert_eq!(analyzed.makespan, 160); // the crate-doc example numbers
        assert_eq!(proxy.makespan, 150);
        // No deadlines: the slack axis collapses; both edges land in
        // bank 0 (c's core bank) alongside nothing else.
        assert_eq!(analyzed.neg_slack, 0);
        assert_eq!(analyzed.bank_peak, 40);
    }

    #[test]
    fn measured_slack_tracks_the_tightest_deadline() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(100)).deadline(Cycles(200)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(100)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(50)).deadline(Cycles(200)));
        g.add_edge(a, c, 10).unwrap();
        g.add_edge(b, c, 10).unwrap();
        let m = Mapping::from_assignment(&g, &[0, 1, 0]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let rr = RoundRobin::new();
        let obj = AnalyzedMakespan::new(&rr, AnalysisOptions::new())
            .evaluate(&p)
            .unwrap();
        // Feasible: every deadline holds, and neg_slack is the negated
        // tightest margin (a positive margin → a negative component).
        assert!(obj.neg_slack < 0, "{obj:?}");
    }

    #[test]
    fn deadline_in_options_makes_candidates_infeasible_not_fatal() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        let mut tight = AnalyzedMakespan::new(&rr, AnalysisOptions::new().deadline(Cycles(100)));
        assert!(matches!(
            tight.evaluate(&p),
            Err(ObjectiveError::Infeasible(_))
        ));
    }

    #[test]
    fn evaluate_move_matches_evaluate_and_promotes_a_base() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        let mut obj = AnalyzedMakespan::new(&rr, AnalysisOptions::new());
        let full = obj.evaluate(&p).unwrap();

        obj.establish_base(&p).unwrap();
        assert!(obj.base.is_some());
        // The "move" changes nothing observable beyond the end of every
        // order: the evaluation may resume, and the cost must agree.
        let (verdict, _resumed) = obj.evaluate_move(&p, &[(0, 5), (1, 5)], None).unwrap();
        assert_eq!(verdict, MoveVerdict::Feasible(full));
        assert!(obj.scratch.is_some());
        obj.promote();
        assert!(obj.base.is_some());
        assert!(obj.scratch.is_none());
        obj.invalidate();
        obj.promote();
        assert!(obj.base.is_none(), "promoting an invalidated move demotes");
    }

    #[test]
    fn a_bound_below_the_cost_cuts_the_evaluation_off() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        let mut obj = AnalyzedMakespan::new(&rr, AnalysisOptions::new());
        let (verdict, _) = obj.evaluate_move(&p, &[], Some(Cycles(120))).unwrap();
        assert_eq!(verdict, MoveVerdict::AboveBound);
        assert!(obj.scratch.is_none(), "a cutoff leaves no promotable state");
        // A bound at or above the cost completes exactly.
        let (verdict, _) = obj.evaluate_move(&p, &[], Some(Cycles(160))).unwrap();
        match verdict {
            MoveVerdict::Feasible(obj) => assert_eq!(obj.makespan, 160),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn a_real_deadline_beats_the_bound_classification() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        // User deadline 120 is the binding limit even under a huge bound:
        // the candidate is infeasible, not merely above the bound.
        let mut obj = AnalyzedMakespan::new(&rr, AnalysisOptions::new().deadline(Cycles(120)));
        let (verdict, _) = obj.evaluate_move(&p, &[], Some(Cycles(10_000))).unwrap();
        assert!(matches!(verdict, MoveVerdict::Infeasible(_)));
        // The default implementation (no delta support) reports
        // infeasibility the same way.
        let mut proxy = ProxyMakespan;
        proxy.establish_base(&p).unwrap();
        let (verdict, resumed) = proxy.evaluate_move(&p, &[], Some(Cycles(1))).unwrap();
        assert_eq!(verdict, MoveVerdict::Feasible(ObjVec::scalar(Cycles(150))));
        assert!(!resumed, "the default never resumes");
    }

    #[test]
    fn switching_variants_invalidates_the_recorded_base() {
        let p = contended_problem();
        let rr = RoundRobin::new();
        let mppa = MppaTree::new(2, 2);
        let mut obj = AnalyzedMakespan::with_arbiters(vec![&rr, &mppa], AnalysisOptions::new());
        let under_rr = obj.evaluate(&p).unwrap();
        obj.establish_base(&p).unwrap();

        // Same problem under variant 1: the base recorded under variant
        // 0 must not be resumed, and the cost is the mppa cost.
        obj.select_variant(1);
        let (verdict, resumed) = obj.evaluate_move(&p, &[], None).unwrap();
        assert!(!resumed, "a cross-variant resume would price stale state");
        let under_mppa = match verdict {
            MoveVerdict::Feasible(o) => o,
            other => panic!("expected feasible, got {other:?}"),
        };
        let mut fresh = AnalyzedMakespan::new(&mppa, AnalysisOptions::new());
        assert_eq!(under_mppa, fresh.evaluate(&p).unwrap());

        // Back on variant 0 the original base is valid again.
        obj.select_variant(0);
        let (verdict, _) = obj.evaluate_move(&p, &[], None).unwrap();
        assert_eq!(verdict, MoveVerdict::Feasible(under_rr));

        // Out-of-range selection clamps instead of panicking.
        obj.select_variant(99);
        assert_eq!(obj.active, 1);
    }
}
