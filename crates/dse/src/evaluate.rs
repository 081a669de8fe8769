//! The evaluation hot loop: patch, memoise, analyze.

use std::collections::HashMap;

use mia_core::AnalysisOptions;
use mia_model::{BankPolicy, Cycles, Problem, Revert};

use crate::{Candidate, CandidateKey, DseError, MoveVerdict, ObjVec, Objective, ObjectiveError};

/// The fixed part of a design-space exploration: the seed problem (its
/// mapping is the incumbent the search must never lose to), the bank
/// policy used to re-derive demands when candidates move tasks, and the
/// analysis options every evaluation runs under.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    seed: Problem,
    policy: BankPolicy,
    options: AnalysisOptions,
}

impl SearchSpace {
    /// Builds a space around a validated seed problem.
    pub fn new(seed: Problem, policy: BankPolicy) -> Self {
        SearchSpace {
            seed,
            policy,
            options: AnalysisOptions::new(),
        }
    }

    /// Sets the analysis options of every evaluation (a deadline here
    /// turns deadline-missing candidates into rejected ones).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// The seed problem (graph, platform, incumbent mapping).
    pub fn seed_problem(&self) -> &Problem {
        &self.seed
    }

    /// The demand-derivation policy candidates are validated under.
    pub fn policy(&self) -> BankPolicy {
        self.policy
    }

    /// The analysis options evaluations run under.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Number of cores of the space (the platform's, not just those the
    /// seed mapping uses — migrations may colonise idle cores).
    pub fn cores(&self) -> usize {
        self.seed.platform().cores()
    }
}

/// Work counters of one evaluator (aggregated across chains by the
/// portfolio driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Total cost lookups (cache hits included).
    pub evaluations: usize,
    /// Analyses actually run — full, delta-resumed, or cut off at a
    /// bound (cache misses only).
    pub analyses: usize,
    /// Lookups served from the memo cache (exact costs, cached dead
    /// ends and cached cutoffs alike).
    pub cache_hits: usize,
    /// Cache hits that returned a usable exact cost — the productive
    /// kind. `hit_rate` is built on these.
    pub feasible_hits: usize,
    /// Cache hits that merely re-rejected a memoised infeasible dead
    /// end.
    pub infeasible_hits: usize,
    /// Candidates rejected as infeasible (ordering cycles, missed
    /// deadlines) — cached too, so a revisited dead end is free.
    pub infeasible: usize,
    /// Evaluations that resumed from a recorded checkpoint instead of
    /// analyzing from scratch (the delta re-analysis fast path).
    pub delta_resumes: usize,
    /// Evaluations cut off mid-analysis because the cost provably
    /// exceeded the caller's rejection bound.
    pub bound_cutoffs: usize,
}

impl EvalStats {
    /// Cache hits that returned a usable cost, as a fraction of all
    /// lookups (0 when nothing ran). Hits on memoised dead ends are
    /// deliberately excluded: re-rejecting a known-infeasible candidate
    /// saves nothing worth advertising as cache efficiency.
    pub fn hit_rate(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.feasible_hits as f64 / self.evaluations as f64
        }
    }

    /// Component-wise sum (for aggregating chains).
    pub fn merge(&mut self, other: &EvalStats) {
        self.evaluations += other.evaluations;
        self.analyses += other.analyses;
        self.cache_hits += other.cache_hits;
        self.feasible_hits += other.feasible_hits;
        self.infeasible_hits += other.infeasible_hits;
        self.infeasible += other.infeasible;
        self.delta_resumes += other.delta_resumes;
        self.bound_cutoffs += other.bound_cutoffs;
    }
}

/// Telemetry handles of one evaluator, resolved from the global registry
/// once at construction and only when [`mia_obs::enabled`] — the search
/// hot loop pays one `Option` check per section otherwise.
struct EvalProfile {
    memo_probe: std::sync::Arc<mia_obs::Histogram>,
    validate: std::sync::Arc<mia_obs::Histogram>,
    full_analysis: std::sync::Arc<mia_obs::Histogram>,
    delta_resume: std::sync::Arc<mia_obs::Histogram>,
}

impl EvalProfile {
    fn new() -> Self {
        let reg = mia_obs::global();
        EvalProfile {
            memo_probe: reg.histogram("dse.memo_probe_ns"),
            validate: reg.histogram("dse.validate_ns"),
            full_analysis: reg.histogram("dse.full_analysis_ns"),
            delta_resume: reg.histogram("dse.delta_resume_ns"),
        }
    }

    fn begin(prof: Option<&EvalProfile>) -> Option<u64> {
        prof.map(|_| mia_obs::now_ns())
    }

    /// One histogram observation; analysis-scale sections also record a
    /// span (memo probes are sub-microsecond noise on a timeline).
    fn end(hist: &mia_obs::Histogram, span: Option<&'static str>, started: Option<u64>) {
        if let Some(start) = started {
            let dur = mia_obs::now_ns().saturating_sub(start);
            hist.observe(dur);
            if let Some(name) = span {
                mia_obs::record_span(name, start, dur);
            }
        }
    }
}

/// One memoised evaluation outcome.
#[derive(Debug, Clone, Copy)]
enum Cached {
    /// Completed with this exact objective vector.
    Exact(ObjVec),
    /// Structurally or deadline infeasible — final under any bound.
    Infeasible,
    /// Cut off above this bound; a revisit under a larger bound must
    /// re-evaluate.
    AboveBound(u64),
}

/// Evaluates candidates against an [`Objective`], memoising outcomes by
/// canonical mapping key.
///
/// The evaluator owns **one** working [`Problem`] — a single clone of
/// the seed made at construction — and patches each candidate into it
/// with [`Problem::apply_move`]: the move a candidate differs by
/// ([`Candidate::move_from`]) touches one or two core orders and a few
/// demand vectors, and that is all the patch costs. The revert token is
/// kept until the caller accepts the candidate; a rejected candidate is
/// reverted before the next one is patched in. Only re-establishing a
/// design outright ([`Evaluator::begin`], or accepting a cost the memo
/// cache served) rebuilds the problem with [`Problem::remap`]. Rejected
/// moves that are re-proposed later (a common annealing pattern) hit the
/// memo cache and skip the analysis entirely.
pub struct Evaluator<'s, O> {
    space: &'s SearchSpace,
    problem: Problem,
    /// Reverts the last candidate patched into `problem`, until an
    /// accept commits it.
    pending: Option<Revert>,
    objective: O,
    cache: HashMap<CandidateKey, Cached>,
    stats: EvalStats,
    /// Key of the candidate whose state the objective holds as
    /// promotable scratch (set only by a fresh, feasible
    /// [`Evaluator::evaluate_move`]).
    scratch_key: Option<CandidateKey>,
    /// Telemetry, present only when profiling was enabled at
    /// construction.
    prof: Option<EvalProfile>,
}

impl<'s, O: Objective> Evaluator<'s, O> {
    /// Builds an evaluator (clones the seed problem once).
    pub fn new(space: &'s SearchSpace, objective: O) -> Self {
        Evaluator {
            space,
            problem: space.seed.clone(),
            pending: None,
            objective,
            cache: HashMap::new(),
            stats: EvalStats::default(),
            scratch_key: None,
            prof: mia_obs::enabled().then(EvalProfile::new),
        }
    }

    /// The search space this evaluator explores.
    pub fn space(&self) -> &'s SearchSpace {
        self.space
    }

    /// Pre-seeds the memo cache (the driver evaluates the seed mapping
    /// once and shares the outcome with every chain).
    pub fn prime(&mut self, key: CandidateKey, cost: ObjVec) {
        self.cache.insert(key, Cached::Exact(cost));
    }

    /// Establishes `candidate` as the objective's delta base (one full
    /// recorded analysis for delta-aware objectives, a remap otherwise).
    /// Chains call this once on their seed before proposing moves; the
    /// work is not counted in [`EvalStats`] — it is setup, not search.
    ///
    /// # Errors
    ///
    /// [`DseError::Objective`] on fatal objective failure.
    pub fn begin(&mut self, candidate: &Candidate) -> Result<(), DseError> {
        self.scratch_key = None;
        self.rebase(candidate)
    }

    /// The objective vector of `candidate`, or `None` when it is
    /// infeasible.
    ///
    /// # Errors
    ///
    /// [`DseError::Objective`] when the objective fails fatally (e.g.
    /// cancellation) — infeasible candidates are a `None`, not an error.
    pub fn evaluate(&mut self, candidate: &Candidate) -> Result<Option<ObjVec>, DseError> {
        self.stats.evaluations += 1;
        self.scratch_key = None;
        let key = candidate.key();
        let probe_started = EvalProfile::begin(self.prof.as_ref());
        let cached = self.cache.get(&key).copied();
        if let Some(p) = &self.prof {
            EvalProfile::end(&p.memo_probe, None, probe_started);
        }
        match cached {
            Some(Cached::Exact(cost)) => {
                self.stats.cache_hits += 1;
                self.stats.feasible_hits += 1;
                return Ok(Some(cost));
            }
            Some(Cached::Infeasible) => {
                self.stats.cache_hits += 1;
                self.stats.infeasible_hits += 1;
                self.stats.infeasible += 1;
                return Ok(None);
            }
            // A memoised cutoff has no exact cost: re-evaluate in full.
            Some(Cached::AboveBound(_)) | None => {}
        }
        let outcome = self.evaluate_uncached(candidate)?;
        if outcome.is_none() {
            self.stats.infeasible += 1;
        }
        self.cache.insert(
            key,
            match outcome {
                Some(cost) => Cached::Exact(cost),
                None => Cached::Infeasible,
            },
        );
        Ok(outcome)
    }

    fn evaluate_uncached(&mut self, candidate: &Candidate) -> Result<Option<ObjVec>, DseError> {
        if self.patch_in(candidate).is_err() {
            // A cross-core ordering cycle: the candidate cannot execute.
            return Ok(None);
        }
        self.objective.select_variant(candidate.arbiter() as usize);
        self.stats.analyses += 1;
        let analysis_started = EvalProfile::begin(self.prof.as_ref());
        let outcome = self.objective.evaluate(&self.problem);
        if let Some(p) = &self.prof {
            EvalProfile::end(
                &p.full_analysis,
                Some("dse.full_analysis"),
                analysis_started,
            );
        }
        match outcome {
            Ok(cost) => Ok(Some(cost)),
            Err(ObjectiveError::Infeasible(_)) => Ok(None),
            Err(ObjectiveError::Fatal(m)) => Err(DseError::Objective(m)),
        }
    }

    /// Makes the working problem describe `candidate` by a patch: the
    /// last unaccepted candidate is reverted, then the move between the
    /// two is applied and its revert token kept. The explicit bank
    /// placement of joint bank moves is honoured, the space's policy
    /// applies otherwise. Timed as `dse.validate`. On error (an invalid
    /// or cyclic design) the problem is left at the last accepted one.
    fn patch_in(&mut self, candidate: &Candidate) -> Result<(), ()> {
        let started = EvalProfile::begin(self.prof.as_ref());
        if let Some(revert) = self.pending.take() {
            self.problem.revert(revert);
        }
        let patched = if candidate.cores() == self.problem.mapping().cores() {
            let mv = candidate.move_from(&self.problem, self.space.policy);
            self.problem
                .apply_move(mv)
                .map(|revert| self.pending = Some(revert))
        } else {
            // The working problem still has the seed's core count (no
            // design was established yet): rebuild it once.
            self.rebuild(candidate)
        };
        if let Some(p) = &self.prof {
            EvalProfile::end(&p.validate, Some("dse.validate"), started);
        }
        patched.map_err(drop)
    }

    /// Rebuilds the working problem for `candidate` from scratch with
    /// [`Problem::remap`]; any pending revert is void afterwards.
    fn rebuild(&mut self, candidate: &Candidate) -> Result<(), mia_model::ModelError> {
        self.pending = None;
        let mapping = candidate.to_mapping(self.space.seed.graph())?;
        self.problem
            .remap(mapping, candidate.placement(self.space.policy))
    }

    /// The objective vector of `candidate` knowing it differs from the
    /// objective's promoted base only at `changed` (see
    /// [`Candidate::changed_positions`]) and that the caller rejects any
    /// **makespan** above `bound`: the objective may resume mid-run from
    /// a recorded checkpoint and may cut the analysis off at the bound.
    ///
    /// Returns the exact vector when one is known — possibly above
    /// `bound`; the caller applies its own acceptance rule — or `None`
    /// when the candidate was rejected without an exact cost (infeasible
    /// or cut off).
    ///
    /// # Errors
    ///
    /// As [`Evaluator::evaluate`].
    pub fn evaluate_move(
        &mut self,
        candidate: &Candidate,
        changed: &[(usize, usize)],
        bound: Option<u64>,
    ) -> Result<Option<ObjVec>, DseError> {
        self.stats.evaluations += 1;
        self.scratch_key = None;
        let key = candidate.key();
        let probe_started = EvalProfile::begin(self.prof.as_ref());
        let cached = self.cache.get(&key).copied();
        if let Some(p) = &self.prof {
            EvalProfile::end(&p.memo_probe, None, probe_started);
        }
        match cached {
            Some(Cached::Exact(cost)) => {
                self.stats.cache_hits += 1;
                self.stats.feasible_hits += 1;
                self.objective.invalidate();
                return Ok(Some(cost));
            }
            Some(Cached::Infeasible) => {
                self.stats.cache_hits += 1;
                self.stats.infeasible_hits += 1;
                self.stats.infeasible += 1;
                self.objective.invalidate();
                return Ok(None);
            }
            Some(Cached::AboveBound(b)) if bound.is_some_and(|nb| nb <= b) => {
                // Cut off under a bound at least this generous before:
                // certainly above the current one too.
                self.stats.cache_hits += 1;
                self.objective.invalidate();
                return Ok(None);
            }
            Some(Cached::AboveBound(_)) | None => {}
        }
        if self.patch_in(candidate).is_err() {
            // A cross-core ordering cycle (or, for hand-built candidates,
            // a design that loses a task): the candidate cannot execute.
            self.stats.infeasible += 1;
            self.cache.insert(key, Cached::Infeasible);
            return Ok(None);
        }
        self.objective.select_variant(candidate.arbiter() as usize);
        self.stats.analyses += 1;
        let analysis_started = EvalProfile::begin(self.prof.as_ref());
        let outcome = self
            .objective
            .evaluate_move(&self.problem, changed, bound.map(Cycles));
        if let Some(p) = &self.prof {
            // A resumed evaluation is the delta fast path; everything
            // else ran (or was cut off) as a full analysis.
            if matches!(&outcome, Ok((_, true))) {
                EvalProfile::end(&p.delta_resume, Some("dse.delta_resume"), analysis_started);
            } else {
                EvalProfile::end(
                    &p.full_analysis,
                    Some("dse.full_analysis"),
                    analysis_started,
                );
            }
        }
        match outcome {
            Ok((MoveVerdict::Feasible(cost), resumed)) => {
                if resumed {
                    self.stats.delta_resumes += 1;
                }
                self.scratch_key = Some(key);
                self.cache.insert(key, Cached::Exact(cost));
                Ok(Some(cost))
            }
            Ok((MoveVerdict::Infeasible(_), _)) | Err(ObjectiveError::Infeasible(_)) => {
                self.stats.infeasible += 1;
                self.cache.insert(key, Cached::Infeasible);
                Ok(None)
            }
            Ok((MoveVerdict::AboveBound, _)) => {
                self.stats.bound_cutoffs += 1;
                if let Some(b) = bound {
                    self.cache.insert(key, Cached::AboveBound(b));
                }
                Ok(None)
            }
            Err(ObjectiveError::Fatal(m)) => Err(DseError::Objective(m)),
        }
    }

    /// Tells the evaluator that the caller accepted the candidate of the
    /// last [`Evaluator::evaluate_move`]: the objective's recorded
    /// scratch state is promoted to the base subsequent moves resume
    /// from. When the accepted cost came from the memo cache there is no
    /// recorded state, so the base is rebuilt outright.
    ///
    /// # Errors
    ///
    /// [`DseError::Objective`] on fatal objective failure while
    /// rebuilding.
    pub fn accept_last(&mut self, candidate: &Candidate) -> Result<(), DseError> {
        if self.scratch_key.take() == Some(candidate.key()) {
            // The working problem already describes the candidate.
            self.pending = None;
            self.objective.promote();
            return Ok(());
        }
        self.objective.invalidate();
        self.rebase(candidate)
    }

    /// Rebuilds the working problem for `candidate` and re-establishes
    /// the objective's delta base there.
    fn rebase(&mut self, candidate: &Candidate) -> Result<(), DseError> {
        self.objective.invalidate();
        if self.rebuild(candidate).is_err() {
            // Unreachable for accepted candidates (they validated once
            // already): leave the objective without a base.
            self.objective.promote();
            return Ok(());
        }
        self.objective.select_variant(candidate.arbiter() as usize);
        match self.objective.establish_base(&self.problem) {
            Ok(()) => Ok(()),
            Err(ObjectiveError::Infeasible(_)) => Ok(()),
            Err(ObjectiveError::Fatal(m)) => Err(DseError::Objective(m)),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The objective's label.
    pub fn objective_name(&self) -> &str {
        self.objective.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_arbiter::RoundRobin;
    use mia_core::AnalysisOptions;
    use mia_model::{Cycles, Mapping, Platform, Task, TaskGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::AnalyzedMakespan;

    fn space() -> SearchSpace {
        let mut g = TaskGraph::new();
        for i in 0..6 {
            g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(50 + i)));
        }
        g.add_edge(mia_model::TaskId(0), mia_model::TaskId(3), 5)
            .unwrap();
        let m = Mapping::from_assignment(&g, &[0, 0, 0, 1, 1, 1]).unwrap();
        let p = Problem::new(g, m, Platform::new(4, 4)).unwrap();
        SearchSpace::new(p, BankPolicy::PerCoreBank)
    }

    #[test]
    fn repeated_candidates_hit_the_cache() {
        let space = space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let cand = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let a = eval.evaluate(&cand).unwrap().unwrap();
        let b = eval.evaluate(&cand).unwrap().unwrap();
        assert_eq!(a, b);
        let stats = eval.stats();
        assert_eq!(stats.evaluations, 2);
        assert_eq!(stats.analyses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.feasible_hits, 1);
        assert_eq!(stats.infeasible_hits, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_move_and_its_revisit_share_one_analysis() {
        let space = space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let mut cand = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let mut rng = StdRng::seed_from_u64(3);
        let undo = cand.propose(&mut rng);
        let first = eval.evaluate(&cand).unwrap();
        cand.undo(undo);
        // Re-propose the exact same move by replaying the RNG.
        let mut rng = StdRng::seed_from_u64(3);
        let _ = cand.propose(&mut rng);
        let second = eval.evaluate(&cand).unwrap();
        assert_eq!(first, second);
        assert_eq!(eval.stats().analyses, 1);
        assert_eq!(eval.stats().cache_hits, 1);
    }

    #[test]
    fn infeasible_candidates_are_rejected_and_cached() {
        // Dependency 0 -> 3; ordering 3 before 0 on one core combined
        // with 0's core order forms no cycle on separate cores, so build
        // one explicitly: put both on one core with 3 first.
        let space = space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let g = space.seed_problem().graph();
        let bad = Mapping::from_orders(
            g,
            vec![vec![
                mia_model::TaskId(3),
                mia_model::TaskId(0),
                mia_model::TaskId(1),
                mia_model::TaskId(2),
                mia_model::TaskId(4),
                mia_model::TaskId(5),
            ]],
        )
        .unwrap();
        let cand = Candidate::from_mapping(&bad, space.cores());
        assert_eq!(eval.evaluate(&cand).unwrap(), None);
        assert_eq!(eval.evaluate(&cand).unwrap(), None);
        let stats = eval.stats();
        assert_eq!(stats.infeasible, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.analyses, 0);
        // The dead-end revisit is an infeasible hit, not a productive
        // one: it must not inflate the hit rate.
        assert_eq!(stats.infeasible_hits, 1);
        assert_eq!(stats.feasible_hits, 0);
        assert!(stats.hit_rate().abs() < 1e-12);
    }

    #[test]
    fn evaluate_move_resumes_from_the_base_and_matches_a_full_evaluation() {
        let space = space();
        let rr = RoundRobin::new();
        let graph = space.seed_problem().graph();
        let seed = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());

        // Reference: a fresh evaluator pricing the moved candidate from
        // scratch.
        let mut reference =
            Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let guide = crate::MoveGuide::new(space.seed_problem().table());
        let mut moved = seed.clone();
        let mut rng = StdRng::seed_from_u64(17);
        let undo = moved.propose_guided(graph, &guide, &mut rng);
        assert_ne!(undo, crate::Undo::Noop);
        let expected = reference.evaluate(&moved).unwrap();

        // Delta path: establish the seed as base, then price the move.
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        eval.begin(&seed).unwrap();
        let changed = moved.changed_positions(graph, undo);
        let got = eval.evaluate_move(&moved, &changed, None).unwrap();
        assert_eq!(got, expected);
        assert_eq!(eval.stats().analyses, 1);

        // Accepting promotes the move's state; pricing a follow-up move
        // relative to it still matches a from-scratch evaluation.
        eval.accept_last(&moved).unwrap();
        let undo = moved.propose_guided(graph, &guide, &mut rng);
        let changed = moved.changed_positions(graph, undo);
        let expected = reference.evaluate(&moved).unwrap();
        assert_eq!(
            eval.evaluate_move(&moved, &changed, None).unwrap(),
            expected
        );
    }

    #[test]
    fn a_bound_cuts_off_hopeless_candidates_and_caches_the_cutoff() {
        let space = space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let cand = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let cost = eval.evaluate(&cand).unwrap().unwrap();

        // Same mapping through a cold evaluator, priced under a bound it
        // cannot meet: rejected without an exact cost.
        let mut bounded =
            Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        assert_eq!(
            bounded
                .evaluate_move(&cand, &[], Some(cost.makespan - 1))
                .unwrap(),
            None
        );
        assert_eq!(bounded.stats().bound_cutoffs, 1);
        assert_eq!(bounded.stats().infeasible, 0, "a cutoff is not a dead end");

        // A revisit under an equal-or-tighter bound is a free cache hit;
        // a looser bound re-evaluates to the exact cost.
        assert_eq!(
            bounded
                .evaluate_move(&cand, &[], Some(cost.makespan - 1))
                .unwrap(),
            None
        );
        assert_eq!(bounded.stats().cache_hits, 1);
        assert_eq!(
            bounded
                .evaluate_move(&cand, &[], Some(cost.makespan))
                .unwrap(),
            Some(cost)
        );
    }

    #[test]
    fn banked_candidates_evaluate_through_their_explicit_placement() {
        let space = space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let plain = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let base = eval.evaluate(&plain).unwrap().unwrap();

        // Pile every task onto bank 0: the same mapping, a different
        // (worse or equal) bank profile — and a different memo key.
        let guide = crate::MoveGuide::new(space.seed_problem().table());
        let axes = crate::JointAxes {
            arbiters: 1,
            banks: 4,
            policy: BankPolicy::PerCoreBank,
            resize_cores: false,
            remap_banks: true,
        };
        let mut banked = plain.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let undo = loop {
            let undo = banked.propose_joint(space.seed_problem().graph(), &guide, &axes, &mut rng);
            match undo {
                crate::Undo::RemapBank { .. } => break undo,
                other => banked.undo(other),
            }
        };
        assert_ne!(banked.key(), plain.key());
        let changed = banked.changed_positions(space.seed_problem().graph(), undo);
        eval.begin(&plain).unwrap();
        let moved = eval
            .evaluate_move(&banked, &changed, None)
            .unwrap()
            .unwrap();
        // A cold evaluator pricing the same banked candidate from
        // scratch must agree with the delta path exactly.
        let mut cold = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let fresh = cold.evaluate(&banked).unwrap().unwrap();
        assert_eq!(moved, fresh, "delta and full evaluation agree");
        assert_eq!(base.neg_slack, 0);
    }
}
