//! The **original** interference analysis of Rihani et al. (RTNS 2016) —
//! the O(n⁴) algorithm the paper improves upon, reimplemented as the
//! comparison baseline for the evaluation (paper §III and §V).
//!
//! # Structure
//!
//! Two nested fixed-point iterations over *all* tasks:
//!
//! 1. **Interference fixed point** — with the current release dates, find
//!    for every task the set of tasks overlapping its execution window on
//!    other cores, aggregate their demands per core and bank (§II.C's
//!    "single big task" hypothesis), and recompute the response time
//!    `R = WCET + Σ_b IBUS(...)`. Growing response times grow the windows,
//!    so this repeats until no response time changes.
//! 2. **Release fixed point** — push every release date to
//!    `max(min_release, dependency finishes, core-predecessor finish)` in
//!    combined topological order, until stable.
//!
//! The two phases repeat until neither changes anything ("until a stable
//! value for the release dates is found or the deadline is crossed,
//! meaning that the task set is unschedulable", §III).
//!
//! Every pass of phase 1 scans all task pairs — O(n²) — and the number of
//! passes and outer rounds both grow with n, which is where the measured
//! O(n³·⁷)–O(n⁵) behaviour of the paper's Figure 3 comes from. This crate
//! intentionally keeps that structure: it is the *reference point* for the
//! speedup plots, not an optimized implementation.
//!
//! Beyond the speedup plots, this crate is the **independent oracle** of
//! the cross-engine conformance harness (`mia-core`'s
//! `tests/conformance.rs`): computed from a completely different
//! fixed-point structure, its schedules must coincide bit for bit with
//! every incremental engine's in the exact aggregation mode — on
//! generated systems covering all registered arbiters — which pins the
//! paper's semantic-equivalence claim from both sides.
//!
//! # Example
//!
//! ```
//! use mia_baseline::analyze;
//! use mia_model::arbiter::{Arbiter, InterfererDemand};
//! use mia_model::{CoreId, Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//!
//! # struct Rr;
//! # impl Arbiter for Rr {
//! #     fn name(&self) -> &str { "rr" }
//! #     fn bank_interference(&self, _v: CoreId, d: u64, s: &[InterfererDemand], a: Cycles) -> Cycles {
//! #         a * s.iter().map(|i| d.min(i.accesses)).sum::<u64>()
//! #     }
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(10)));
//! let c = g.add_task(Task::builder("c").wcet(Cycles(10)));
//! g.add_edge(a, c, 5)?;
//! g.add_edge(b, c, 5)?;
//! let m = Mapping::from_assignment(&g, &[0, 1, 0])?;
//! let p = Problem::new(g, m, Platform::new(2, 2))?;
//! let schedule = analyze(&p, &Rr)?;
//! assert!(schedule.makespan() >= p.graph().critical_path()?);
//! # Ok(())
//! # }
//! ```

use mia_core::{AnalysisError, CancelToken};
use mia_model::arbiter::{Arbiter, InterfererDemand};
use mia_model::scratch::DemandMerge;
use mia_model::{BankId, CoreId, Cycles, Problem, Schedule, TaskId, TaskTiming};

/// How interfering tasks are grouped before calling the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum AggregationMode {
    /// Merge all overlapping tasks of one core into "a single big task,
    /// summing their … memory accesses" — the paper's §II.C hypothesis,
    /// which it reports "empirically outputs less pessimistic release
    /// times". The default.
    #[default]
    MergeByCore,
    /// Present every overlapping task as its own interferer entry (one
    /// `IBUS` argument per task instead of per core). Sound, but for
    /// capped arbiters such as round-robin it double counts the victim's
    /// grant rounds — the "more complex approach" §II.C argues against,
    /// kept for the A2 ablation.
    PairwiseTasks,
}

/// Options controlling a baseline run.
#[derive(Debug, Clone, Default)]
pub struct BaselineOptions {
    /// Global deadline; crossing it reports unschedulability.
    pub deadline: Option<Cycles>,
    /// Interferer grouping (see [`AggregationMode`]).
    pub aggregation: AggregationMode,
    /// Bound on outer rounds before giving up with
    /// [`AnalysisError::NoConvergence`]; `None` means `16·n + 64`.
    pub max_rounds: Option<usize>,
    /// Cooperative cancellation, checked once per phase pass.
    pub cancel: Option<CancelToken>,
}

impl BaselineOptions {
    /// Default options.
    pub fn new() -> Self {
        BaselineOptions::default()
    }

    /// Sets the global deadline.
    pub fn deadline(mut self, deadline: Cycles) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the interferer grouping mode.
    pub fn aggregation(mut self, aggregation: AggregationMode) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the outer round bound.
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Attaches a cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Work counters of a baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineStats {
    /// Outer rounds (phase 1 + phase 2 alternations).
    pub rounds: usize,
    /// Passes of the interference fixed point.
    pub interference_passes: usize,
    /// Passes of the release fixed point.
    pub release_passes: usize,
    /// Task pairs examined for overlap.
    pub pairs_scanned: usize,
    /// Calls to the arbiter's `IBUS` function.
    pub ibus_calls: usize,
}

/// Result of [`analyze_with`].
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// The computed schedule.
    pub schedule: Schedule,
    /// Work counters.
    pub stats: BaselineStats,
}

/// Runs the original double fixed-point analysis with default options.
///
/// # Errors
///
/// * [`AnalysisError::NoConvergence`] if the fixed point does not
///   stabilise within the round bound.
pub fn analyze<A>(problem: &Problem, arbiter: &A) -> Result<Schedule, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    analyze_with(problem, arbiter, &BaselineOptions::default()).map(|r| r.schedule)
}

/// Runs the original analysis with explicit options.
///
/// # Errors
///
/// * [`AnalysisError::DeadlineExceeded`] when the schedule crosses
///   `options.deadline` (unschedulable),
/// * [`AnalysisError::Cancelled`] when `options.cancel` fires,
/// * [`AnalysisError::NoConvergence`] when the fixed point does not
///   stabilise within the round bound.
pub fn analyze_with<A>(
    problem: &Problem,
    arbiter: &A,
    options: &BaselineOptions,
) -> Result<BaselineReport, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    let graph = problem.graph();
    let n = graph.len();
    let mapping = problem.mapping();
    let access = problem.platform().access_cycles();
    let mut stats = BaselineStats::default();

    if n == 0 {
        return Ok(BaselineReport {
            schedule: Schedule::from_timings(Vec::new()),
            stats,
        });
    }

    let wcet: Vec<Cycles> = graph.iter().map(|(_, t)| t.wcet()).collect();
    let min_rel: Vec<Cycles> = graph.iter().map(|(_, t)| t.min_release()).collect();
    let core_of: Vec<CoreId> = graph.task_ids().map(|t| mapping.core_of(t)).collect();
    let core_pred: Vec<Option<TaskId>> = graph
        .task_ids()
        .map(|t| mapping.core_predecessor(t))
        .collect();

    // Θ and R: start from the minimal release dates and isolation WCETs,
    // then make the releases dependency-consistent.
    let mut rel: Vec<Cycles> = min_rel.clone();
    let mut resp: Vec<Cycles> = wcet.clone();
    let order = combined_order(problem);
    release_sweep(
        problem, &order, &mut rel, &resp, &min_rel, &core_pred, &mut stats,
    );

    // Reusable merge buffers for the interference evaluations — shared
    // machinery with `mia-core` (see `mia_model::scratch`): one reset per
    // evaluation instead of fresh maps per task pair.
    let mut scratch = Scratch {
        merge: DemandMerge::new(problem.platform().banks(), mapping.cores()),
        pairwise: Vec::new(),
    };

    let max_rounds = options.max_rounds.unwrap_or(16 * n + 64);
    for _round in 0..max_rounds {
        stats.rounds += 1;
        if options.is_cancelled() {
            return Err(AnalysisError::Cancelled);
        }

        // Phase 1: interference fixed point at the current release dates.
        // As in classic response-time analysis, every response restarts
        // from the isolation WCET (R = F(Θ), no warm start).
        let prev_resp = resp.clone();
        resp.copy_from_slice(&wcet);
        interference_fixed_point(
            problem,
            arbiter,
            options,
            &rel,
            &mut resp,
            &wcet,
            &core_of,
            access,
            &mut scratch,
            &mut stats,
        )?;
        let resp_changed = resp != prev_resp;

        // Phase 2: one sweep adjusting release dates to the new responses
        // (Θ = G(R)); re-stabilisation happens across outer rounds, which
        // is what makes the original algorithm iterate O(n) times.
        let rel_changed = release_sweep(
            problem, &order, &mut rel, &resp, &min_rel, &core_pred, &mut stats,
        );

        if let Some(deadline) = options.deadline {
            let makespan = (0..n).map(|i| rel[i] + resp[i]).max().unwrap();
            if makespan > deadline {
                return Err(AnalysisError::DeadlineExceeded { makespan, deadline });
            }
        }

        if !resp_changed && !rel_changed {
            let timings = (0..n)
                .map(|i| TaskTiming {
                    release: rel[i],
                    wcet: wcet[i],
                    interference: resp[i] - wcet[i],
                })
                .collect();
            return Ok(BaselineReport {
                schedule: Schedule::from_timings(timings),
                stats,
            });
        }
    }
    Err(AnalysisError::NoConvergence {
        iterations: max_rounds,
    })
}

/// Reusable buffers threaded through the fixed-point evaluations.
struct Scratch {
    /// Per-`(bank, core)` demand aggregation (`MergeByCore`).
    merge: DemandMerge,
    /// Per-task interferer entries (`PairwiseTasks`).
    pairwise: Vec<(BankId, CoreId, u64)>,
}

/// Phase 1: recompute every task's interference from the tasks whose
/// execution windows overlap it, until no response time changes. Returns
/// whether anything changed relative to the responses passed in.
#[allow(clippy::too_many_arguments)]
fn interference_fixed_point<A>(
    problem: &Problem,
    arbiter: &A,
    options: &BaselineOptions,
    rel: &[Cycles],
    resp: &mut [Cycles],
    wcet: &[Cycles],
    core_of: &[CoreId],
    access: Cycles,
    scratch: &mut Scratch,
    stats: &mut BaselineStats,
) -> Result<bool, AnalysisError>
where
    A: Arbiter + ?Sized,
{
    let n = rel.len();
    let mut changed_any = false;
    loop {
        stats.interference_passes += 1;
        if options.is_cancelled() {
            return Err(AnalysisError::Cancelled);
        }
        let mut changed = false;
        for i in 0..n {
            // Classic response-time iteration (after Altmeyer et al. [1],
            // as adopted by Rihani et al. [7]): grow R_i until its own
            // fixed point — every growth can pull new tasks into the
            // overlap window, so the interferer set is rebuilt from
            // scratch each round.
            let demand_i = problem.demand(TaskId::from_index(i));
            if demand_i.is_empty() {
                continue;
            }
            loop {
                let inter = interference_of(
                    problem, arbiter, options, rel, resp, core_of, access, i, scratch, stats,
                );
                let new_resp = wcet[i] + inter;
                if new_resp == resp[i] {
                    break;
                }
                // The window function is monotone, so from any starting
                // point the iteration is monotone (up after releases moved
                // closer, down after they spread out) and terminates.
                resp[i] = new_resp;
                changed = true;
                changed_any = true;
            }
        }
        if !changed {
            return Ok(changed_any);
        }
    }
}

/// Interference of task `i` given the current windows: scans all tasks for
/// overlap, groups their demands into the reusable scratch buffers, and
/// sums `IBUS` over the shared banks.
#[allow(clippy::too_many_arguments)]
fn interference_of<A>(
    problem: &Problem,
    arbiter: &A,
    options: &BaselineOptions,
    rel: &[Cycles],
    resp: &[Cycles],
    core_of: &[CoreId],
    access: Cycles,
    i: usize,
    scratch: &mut Scratch,
    stats: &mut BaselineStats,
) -> Cycles
where
    A: Arbiter + ?Sized,
{
    let n = rel.len();
    let fin_i = rel[i] + resp[i];
    let demand_i = problem.demand(TaskId::from_index(i));
    scratch.merge.reset();
    scratch.pairwise.clear();
    for j in 0..n {
        if i == j || core_of[j] == core_of[i] {
            continue;
        }
        stats.pairs_scanned += 1;
        let fin_j = rel[j] + resp[j];
        // Interval overlap on half-open windows:
        // [rel_i, fin_i) ∩ [rel_j, fin_j) ≠ ∅.
        if rel[i] >= fin_j || rel[j] >= fin_i {
            continue;
        }
        for (bank, d) in problem.demand(TaskId::from_index(j)).iter() {
            if demand_i.get(bank) == 0 {
                continue;
            }
            match options.aggregation {
                AggregationMode::MergeByCore => {
                    scratch.merge.add(bank, core_of[j], d);
                }
                AggregationMode::PairwiseTasks => {
                    scratch.pairwise.push((bank, core_of[j], d));
                }
            }
        }
    }
    let mut inter = Cycles::ZERO;
    match options.aggregation {
        AggregationMode::MergeByCore => {
            for b in 0..scratch.merge.touched_banks().len() {
                let bank = scratch.merge.touched_banks()[b];
                stats.ibus_calls += 1;
                inter += arbiter.bank_interference(
                    core_of[i],
                    demand_i.get(bank),
                    scratch.merge.bank_set(bank),
                    access,
                );
            }
        }
        AggregationMode::PairwiseTasks => {
            for &(bank, core, accesses) in &scratch.pairwise {
                stats.ibus_calls += 1;
                inter += arbiter.bank_interference(
                    core_of[i],
                    demand_i.get(bank),
                    &[InterfererDemand { core, accesses }],
                    access,
                );
            }
        }
    }
    inter
}

/// Phase 2: one sweep pushing release dates to respect minimal releases,
/// dependency finishes and the core predecessor's finish. Returns whether
/// any release moved. (The sweep follows the combined topological order, so
/// a single pass propagates fully for the *current* response times; the
/// interaction with phase 1 is what the outer rounds iterate on.)
fn release_sweep(
    problem: &Problem,
    order: &[TaskId],
    rel: &mut [Cycles],
    resp: &[Cycles],
    min_rel: &[Cycles],
    core_pred: &[Option<TaskId>],
    stats: &mut BaselineStats,
) -> bool {
    let graph = problem.graph();
    stats.release_passes += 1;
    let mut changed = false;
    for &t in order {
        let i = t.index();
        let mut r = min_rel[i];
        for e in graph.predecessors(t) {
            r = r.max(rel[e.src.index()] + resp[e.src.index()]);
        }
        if let Some(p) = core_pred[i] {
            r = r.max(rel[p.index()] + resp[p.index()]);
        }
        if r != rel[i] {
            rel[i] = r;
            changed = true;
        }
    }
    changed
}

/// The smallest-id-first topological order of the combined precedence
/// relation: dependency edges plus consecutive tasks on one core. The
/// release sweep follows it, so one pass propagates release dates fully.
///
/// # Panics
///
/// Never for a [`Problem`]: construction rejects a cyclic relation.
pub fn combined_order(problem: &Problem) -> Vec<TaskId> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let graph = problem.graph();
    let n = graph.len();
    let mut indegree = vec![0usize; n];
    for e in graph.edges() {
        indegree[e.dst.index()] += 1;
    }
    // Successor lookup for core-order edges: next task on the same core.
    let mut core_next: Vec<Option<TaskId>> = vec![None; n];
    for (_, order) in problem.mapping().iter() {
        for pair in order.windows(2) {
            indegree[pair[1].index()] += 1;
            core_next[pair[0].index()] = Some(pair[1]);
        }
    }
    let mut ready: BinaryHeap<Reverse<TaskId>> = (0..n)
        .map(TaskId::from_index)
        .filter(|t| indegree[t.index()] == 0)
        .map(Reverse)
        .collect();
    let mut out = Vec::with_capacity(n);
    while let Some(Reverse(t)) = ready.pop() {
        out.push(t);
        let succs = graph.successors(t).map(|e| e.dst);
        for succ in succs.chain(core_next[t.index()]) {
            indegree[succ.index()] -= 1;
            if indegree[succ.index()] == 0 {
                ready.push(Reverse(succ));
            }
        }
    }
    assert_eq!(
        out.len(),
        n,
        "a validated problem has an acyclic combined relation"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{Mapping, Platform, Task, TaskGraph};

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
    fn combined_order_respects_core_order() {
        // Two independent tasks on one core: combined order must follow the
        // mapping order even without dependency edges.
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(1)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(1)));
        let m = Mapping::from_orders(&g, vec![vec![b, a]]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        assert_eq!(combined_order(&p), vec![b, a]);
        assert_eq!(p.mapping().core_of(a), CoreId(0));
    }

    #[test]
    fn empty_problem() {
        let g = TaskGraph::new();
        let m = Mapping::from_assignment(&g, &[]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn figure1_schedule_is_valid_and_interference_aware() {
        let p = figure1();
        let s = analyze(&p, &Rr).unwrap();
        s.check(&p).unwrap();
        // The baseline solves the same problem: its makespan must cover the
        // interference-free bound and stay in the same ballpark as the
        // incremental algorithm's 7.
        assert!(s.makespan() >= Cycles(6));
        assert!(s.total_interference() > Cycles::ZERO);
    }

    #[test]
    fn no_interference_matches_critical_path_on_distinct_cores() {
        // Chain of 3 tasks on 3 cores: no overlap is possible, so the
        // result is exactly the interference-free schedule.
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(20)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(30)));
        g.add_edge(a, b, 3).unwrap();
        g.add_edge(b, c, 3).unwrap();
        let m = Mapping::from_assignment(&g, &[0, 1, 2]).unwrap();
        let p = Problem::new(g, m, Platform::new(3, 3)).unwrap();
        let s = analyze(&p, &Rr).unwrap();
        assert_eq!(s.makespan(), Cycles(60));
        assert_eq!(s.total_interference(), Cycles::ZERO);
    }

    #[test]
    fn deadline_reports_unschedulable() {
        let p = figure1();
        let err = analyze_with(&p, &Rr, &BaselineOptions::new().deadline(Cycles(5))).unwrap_err();
        assert!(matches!(err, AnalysisError::DeadlineExceeded { .. }));
    }

    #[test]
    fn cancellation_aborts() {
        let p = figure1();
        let token = CancelToken::new();
        token.cancel();
        let err = analyze_with(&p, &Rr, &BaselineOptions::new().cancel_token(token)).unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }

    #[test]
    fn pairwise_tasks_is_at_least_as_pessimistic() {
        let p = figure1();
        let merged = analyze_with(&p, &Rr, &BaselineOptions::new()).unwrap();
        let pairwise = analyze_with(
            &p,
            &Rr,
            &BaselineOptions::new().aggregation(AggregationMode::PairwiseTasks),
        )
        .unwrap();
        assert!(pairwise.schedule.makespan() >= merged.schedule.makespan());
    }

    #[test]
    fn stats_are_populated() {
        let p = figure1();
        let r = analyze_with(&p, &Rr, &BaselineOptions::new()).unwrap();
        assert!(r.stats.rounds >= 1);
        assert!(r.stats.interference_passes >= 1);
        assert!(r.stats.release_passes >= 2);
        assert!(r.stats.pairs_scanned > 0);
    }

    #[test]
    fn tiny_round_bound_reports_no_convergence() {
        let p = figure1();
        let err = analyze_with(&p, &Rr, &BaselineOptions::new().max_rounds(0)).unwrap_err();
        assert!(matches!(err, AnalysisError::NoConvergence { .. }));
    }
}
