//! One simulated-annealing chain over candidates.
//!
//! Two chain flavours share the machinery:
//!
//! * [`run_chain`] — the scalar chain: minimises the makespan alone,
//!   with the Metropolis threshold passed down as a rejection bound so
//!   hopeless candidates abort mid-analysis. Its arithmetic is pinned
//!   bit-for-bit (integer bounds, one PRNG stream); the multi-objective
//!   refactor must never perturb it.
//! * [`run_pareto_chain`] — the joint-axis chain: proposes over the
//!   full design space ([`Candidate::propose_joint`]), steers by a
//!   per-chain scalarisation profile ([`WeightProfile`]) and publishes
//!   every exactly-priced design into a per-chain [`ParetoArchive`].
//!   Makespan-profile chains keep the scalar chain's integer bound
//!   logic, so the bound-cutoff machinery stays live in Pareto mode
//!   too; other profiles trade makespan against slack and bank
//!   pressure, where a makespan bound would reject exactly the
//!   trade-offs the front exists to find.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::pareto::{ObjMask, ParetoArchive, ParetoPoint};
use crate::{Candidate, DseError, EvalStats, Evaluator, JointAxes, MoveGuide, ObjVec, Objective};

/// Chain-side telemetry: proposal-generation time plus the end-to-end
/// pricing time of each proposal, keyed by the move kind that produced
/// it ([`crate::Undo::kind_name`]). Resolved once per chain, only when
/// [`mia_obs::enabled`].
struct ChainProfile {
    propose: std::sync::Arc<mia_obs::Histogram>,
}

impl ChainProfile {
    fn new() -> Self {
        ChainProfile {
            propose: mia_obs::global().histogram("dse.propose_ns"),
        }
    }

    fn observe_propose(&self, started: u64) {
        self.propose
            .observe(mia_obs::now_ns().saturating_sub(started));
    }

    /// Records one priced proposal under its move kind. The per-kind
    /// histogram set is small (seven kinds) and the registry lookup is
    /// a lock plus a map probe, paid only on the profiled path.
    fn observe_move(kind: &str, started: u64) {
        let dur = mia_obs::now_ns().saturating_sub(started);
        mia_obs::global()
            .histogram(&format!("dse.move.{kind}_ns"))
            .observe(dur);
    }
}

/// Tuning knobs of the annealing chains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealTuning {
    /// Starting acceptance temperature in cycles; `None` scales it to 5%
    /// of the seed makespan (so acceptance behaviour is workload-size
    /// independent).
    pub initial_temperature: Option<f64>,
    /// Geometric per-proposal cooling factor (`0 < cooling < 1`).
    pub cooling: f64,
}

impl Default for AnnealTuning {
    fn default() -> Self {
        AnnealTuning {
            initial_temperature: None,
            cooling: 0.985,
        }
    }
}

impl AnnealTuning {
    /// The concrete starting temperature for a chain whose seed costs
    /// `seed_cost`.
    fn start_temperature(&self, seed_cost: u64) -> f64 {
        self.initial_temperature
            .unwrap_or_else(|| (seed_cost as f64 * 0.05).max(1.0))
    }
}

/// The scalarisation a Pareto chain anneals against. Different chains
/// of one portfolio cycle through different profiles, so the fronts
/// they publish cover different corners of the objective space instead
/// of rediscovering the same makespan valley eight times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightProfile {
    /// Pure makespan — the scalar search's view. Chains with this
    /// profile keep the integer Metropolis bound, so delta cutoffs stay
    /// engaged.
    Makespan,
    /// Slack-dominant (70% slack, 30% makespan).
    Slack,
    /// Bank-pressure-dominant (70% bank peak, 30% makespan).
    Bank,
    /// The mean of the active objectives.
    Balanced,
}

impl WeightProfile {
    /// The deterministic profile rotation for a mask: the axis-specific
    /// profiles of every active objective, then the balanced blend.
    /// Chain `i` of a portfolio uses `cycle(mask)[i % len]`.
    pub(crate) fn cycle(mask: &ObjMask) -> Vec<WeightProfile> {
        let mut profiles = Vec::with_capacity(4);
        if mask.makespan {
            profiles.push(WeightProfile::Makespan);
        }
        if mask.slack {
            profiles.push(WeightProfile::Slack);
        }
        if mask.bank {
            profiles.push(WeightProfile::Bank);
        }
        if mask.count() > 1 {
            profiles.push(WeightProfile::Balanced);
        }
        profiles
    }

    /// Scalarises `obj` against the seed vector `norm` (each active
    /// axis normalised by the seed's magnitude, so the profiles are
    /// workload-size independent). Lower is better on every axis by
    /// construction of [`ObjVec`].
    fn scalarize(&self, obj: &ObjVec, norm: &ObjVec, mask: &ObjMask) -> f64 {
        let m = if mask.makespan {
            obj.makespan as f64 / norm.makespan.max(1) as f64
        } else {
            0.0
        };
        let s = if mask.slack {
            obj.neg_slack as f64 / norm.neg_slack.unsigned_abs().max(1) as f64
        } else {
            0.0
        };
        let b = if mask.bank {
            obj.bank_peak as f64 / norm.bank_peak.max(1) as f64
        } else {
            0.0
        };
        match self {
            WeightProfile::Makespan => m,
            WeightProfile::Slack => 0.7 * s + 0.3 * m,
            WeightProfile::Bank => 0.7 * b + 0.3 * m,
            WeightProfile::Balanced => (m + s + b) / mask.count().max(1) as f64,
        }
    }
}

/// Everything a Pareto chain needs beyond the scalar parameters.
#[derive(Debug, Clone)]
pub(crate) struct ParetoChainSetup {
    /// Joint move axes (arbiter variants, banks, core resizing).
    pub axes: JointAxes,
    /// This chain's scalarisation.
    pub profile: WeightProfile,
    /// Active objectives.
    pub mask: ObjMask,
    /// Archive capacity (applied when reporting the front).
    pub capacity: usize,
    /// Arbiter variant this chain opens on (staggered per chain so the
    /// portfolio covers every variant from proposal zero).
    pub start_variant: u32,
    /// Annealing schedule (shared with the scalar chain).
    pub tuning: AnnealTuning,
}

/// What one chain produced.
#[derive(Debug, Clone)]
pub(crate) struct ChainOutcome {
    /// Best candidate visited (the seed if nothing beat it).
    pub best: Candidate,
    /// Its cost (makespan — the scalar axis both modes minimise).
    pub best_cost: u64,
    /// Evaluation counters of this chain.
    pub stats: EvalStats,
    /// Accepted moves.
    pub accepted: usize,
    /// The designs this chain archived (Pareto mode only).
    pub archive: Option<ParetoArchive>,
}

/// The archive payload of a candidate priced at `obj`.
pub(crate) fn point_of(candidate: &Candidate, obj: ObjVec) -> ParetoPoint {
    ParetoPoint {
        obj,
        assignment: candidate.assignment().to_vec(),
        banks: candidate.banks().map(<[u32]>::to_vec),
        arbiter: candidate.arbiter(),
        active_cores: candidate.active_cores(),
        key: candidate.key(),
    }
}

/// Runs one annealing chain: `budget` proposals from the seed candidate,
/// fully determined by `rng_seed`. `publish` is invoked on every strict
/// improvement (the portfolio's shared best-so-far); it receives the
/// new cost and must not influence the chain — determinism across
/// thread counts depends on chains being steered only by their own RNG.
///
/// The chain drives the delta machinery end to end: moves come from the
/// dependency-aware generators, every evaluation is a delta
/// [`Evaluator::evaluate_move`] relative to the last accepted candidate,
/// and the Metropolis draw happens **up front** — accepting a worsening
/// of Δ with probability `exp(-Δ/T)` is exactly accepting when
/// `Δ ≤ -T·ln(u)`, so that threshold is passed down as a rejection bound
/// and hopeless candidates abort mid-analysis.
pub(crate) fn run_chain<O: Objective>(
    evaluator: &mut Evaluator<'_, O>,
    seed_candidate: &Candidate,
    seed_cost: u64,
    budget: usize,
    rng_seed: u64,
    tuning: &AnnealTuning,
    publish: &mut dyn FnMut(u64),
) -> Result<ChainOutcome, DseError> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    evaluator.begin(seed_candidate)?;
    let seed_problem = evaluator.space().seed_problem();
    let graph = seed_problem.graph();
    let guide = MoveGuide::new(seed_problem.table());
    let mut current = seed_candidate.clone();
    let mut current_cost = seed_cost;
    let mut best = seed_candidate.clone();
    let mut best_cost = seed_cost;
    let mut accepted = 0usize;
    let mut temperature = tuning.start_temperature(seed_cost);
    let prof = mia_obs::enabled().then(ChainProfile::new);

    for _ in 0..budget {
        let propose_started = prof.as_ref().map(|_| mia_obs::now_ns());
        let undo = current.propose_guided(graph, &guide, &mut rng);
        let changed = current.changed_positions(graph, undo);
        if let (Some(p), Some(t0)) = (&prof, propose_started) {
            p.observe_propose(t0);
        }
        let slack =
            -rng.random_range(0.0..1.0_f64).max(f64::MIN_POSITIVE).ln() * temperature.max(1e-9);
        let bound = current_cost.saturating_add(slack.min(u64::MAX as f64 / 4.0) as u64);
        let move_started = prof.as_ref().map(|_| mia_obs::now_ns());
        let verdict = evaluator.evaluate_move(&current, &changed, Some(bound))?;
        if let Some(t0) = move_started {
            ChainProfile::observe_move(undo.kind_name(), t0);
        }
        // A degenerate proposal (Undo::Noop) left the candidate
        // unchanged: its evaluation is a guaranteed cache hit and it
        // counts as a rejected move, per the Candidate contract.
        let accept = !matches!(undo, crate::Undo::Noop)
            && verdict.is_some_and(|cost| cost.makespan <= bound);
        if accept {
            evaluator.accept_last(&current)?;
            accepted += 1;
            current_cost = verdict
                .expect("only feasible candidates are accepted")
                .makespan;
            if current_cost < best_cost {
                best_cost = current_cost;
                best.clone_from(&current);
                publish(best_cost);
            }
        } else {
            current.undo(undo);
        }
        temperature *= tuning.cooling;
    }

    Ok(ChainOutcome {
        best,
        best_cost,
        stats: evaluator.stats(),
        accepted,
        archive: None,
    })
}

/// Runs one joint-axis Pareto chain. Structure mirrors [`run_chain`];
/// the differences are exactly the ones the module docs call out:
/// joint proposals, profile-scalarised Metropolis acceptance, and
/// archive publication of every exactly-priced design. The seed design
/// is archived unconditionally, so a front is never empty and never
/// worse than the seed.
pub(crate) fn run_pareto_chain<O: Objective>(
    evaluator: &mut Evaluator<'_, O>,
    seed_candidate: &Candidate,
    seed_obj: ObjVec,
    budget: usize,
    rng_seed: u64,
    setup: &ParetoChainSetup,
    publish: &mut dyn FnMut(u64),
) -> Result<ChainOutcome, DseError> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    evaluator.begin(seed_candidate)?;
    let seed_problem = evaluator.space().seed_problem();
    let graph = seed_problem.graph();
    let guide = MoveGuide::new(seed_problem.table());
    let mut archive = ParetoArchive::new(setup.mask, setup.capacity);
    archive.insert(point_of(seed_candidate, seed_obj));

    let norm = seed_obj;
    let integer_bound = setup.profile == WeightProfile::Makespan;
    let mut current = seed_candidate.clone();
    let mut current_obj = seed_obj;
    let mut current_score = setup.profile.scalarize(&current_obj, &norm, &setup.mask);
    let mut best = seed_candidate.clone();
    let mut best_cost = seed_obj.makespan;
    let mut accepted = 0usize;
    // The same 5%-of-seed start; scalarised profiles rescale it into
    // score space (where the seed sits near 1.0 by construction).
    let mut temperature = setup.tuning.start_temperature(seed_obj.makespan);
    let score_scale = (seed_obj.makespan.max(1)) as f64;

    // Staggered start: jump to this chain's opening variant before the
    // first proposal, pricing the jump through the same delta protocol
    // as any move. An infeasible opening variant rolls back to the
    // seed's — the chain still runs, just from variant 0.
    let jump = current.jump_to_variant(setup.start_variant);
    if !matches!(jump, crate::Undo::Noop) {
        let changed = current.changed_positions(graph, jump);
        match evaluator.evaluate_move(&current, &changed, None)? {
            Some(obj) => {
                evaluator.accept_last(&current)?;
                archive.insert(point_of(&current, obj));
                current_obj = obj;
                current_score = setup.profile.scalarize(&obj, &norm, &setup.mask);
                if obj.makespan < best_cost {
                    best_cost = obj.makespan;
                    best.clone_from(&current);
                    publish(best_cost);
                }
            }
            None => current.undo(jump),
        }
    }

    let prof = mia_obs::enabled().then(ChainProfile::new);
    for _ in 0..budget {
        let propose_started = prof.as_ref().map(|_| mia_obs::now_ns());
        let undo = current.propose_joint(graph, &guide, &setup.axes, &mut rng);
        let changed = current.changed_positions(graph, undo);
        if let (Some(p), Some(t0)) = (&prof, propose_started) {
            p.observe_propose(t0);
        }
        let draw = rng.random_range(0.0..1.0_f64).max(f64::MIN_POSITIVE);
        // Makespan chains bound the analysis exactly like the scalar
        // chain; trade-off chains need exact vectors for the archive,
        // so they run unbounded and apply Metropolis in score space.
        let bound = integer_bound.then(|| {
            let slack = -draw.ln() * temperature.max(1e-9);
            current_obj
                .makespan
                .saturating_add(slack.min(u64::MAX as f64 / 4.0) as u64)
        });
        let score_slack = -draw.ln() * (temperature / score_scale).max(1e-12);
        let move_started = prof.as_ref().map(|_| mia_obs::now_ns());
        let verdict = evaluator.evaluate_move(&current, &changed, bound)?;
        if let Some(t0) = move_started {
            ChainProfile::observe_move(undo.kind_name(), t0);
        }
        if let Some(obj) = verdict {
            archive.insert(point_of(&current, obj));
        }
        let accept = !matches!(undo, crate::Undo::Noop)
            && verdict.is_some_and(|obj| match bound {
                Some(b) => obj.makespan <= b,
                None => {
                    setup.profile.scalarize(&obj, &norm, &setup.mask) <= current_score + score_slack
                }
            });
        if accept {
            evaluator.accept_last(&current)?;
            accepted += 1;
            let obj = verdict.expect("only feasible candidates are accepted");
            current_obj = obj;
            current_score = setup.profile.scalarize(&obj, &norm, &setup.mask);
            if obj.makespan < best_cost {
                best_cost = obj.makespan;
                best.clone_from(&current);
                publish(best_cost);
            }
        } else {
            current.undo(undo);
        }
        temperature *= setup.tuning.cooling;
    }

    Ok(ChainOutcome {
        best,
        best_cost,
        stats: evaluator.stats(),
        accepted,
        archive: Some(archive),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzedMakespan, SearchSpace};
    use mia_arbiter::RoundRobin;
    use mia_core::AnalysisOptions;
    use mia_model::{BankPolicy, Cycles, Mapping, Platform, Problem, Task, TaskGraph};

    /// Six independent tasks of very different weights, all packed on
    /// one core of a four-core platform: plenty of room to improve.
    fn packed_space() -> SearchSpace {
        let mut g = TaskGraph::new();
        for w in [400u64, 300, 50, 50, 50, 50] {
            g.add_task(Task::builder(format!("w{w}")).wcet(Cycles(w)));
        }
        let m = Mapping::from_assignment(&g, &[0; 6]).unwrap();
        let p = Problem::new(g, m, Platform::new(4, 4)).unwrap();
        SearchSpace::new(p, BankPolicy::PerCoreBank)
    }

    #[test]
    fn chain_improves_a_packed_seed_and_never_regresses() {
        let space = packed_space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let seed = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let seed_cost = eval.evaluate(&seed).unwrap().unwrap().makespan;
        assert_eq!(seed_cost, 900); // fully serialised
        let mut publishes = 0;
        let out = run_chain(
            &mut eval,
            &seed,
            seed_cost,
            300,
            9,
            &AnnealTuning::default(),
            &mut |_| publishes += 1,
        )
        .unwrap();
        assert!(out.best_cost < seed_cost, "no improvement found");
        assert!(publishes > 0);
        // Independent tasks, 4 cores: the optimum is 400 (the heaviest
        // task alone); a short chain must at least get close.
        assert!(out.best_cost <= 500, "best {}", out.best_cost);
        assert!(out.archive.is_none(), "scalar chains archive nothing");
    }

    #[test]
    fn chains_are_deterministic_per_seed() {
        let space = packed_space();
        let rr = RoundRobin::new();
        let run = |chain_seed: u64| {
            let mut eval =
                Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
            let seed = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
            let seed_cost = eval.evaluate(&seed).unwrap().unwrap().makespan;
            run_chain(
                &mut eval,
                &seed,
                seed_cost,
                120,
                chain_seed,
                &AnnealTuning::default(),
                &mut |_| {},
            )
            .unwrap()
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.accepted, b.accepted);
        // A different seed explores differently (with overwhelming
        // probability visible in the counters).
        let c = run(6);
        assert!(a.stats != c.stats || a.best != c.best);
    }

    fn pareto_setup(profile: WeightProfile) -> ParetoChainSetup {
        ParetoChainSetup {
            axes: JointAxes {
                arbiters: 1,
                banks: 4,
                policy: BankPolicy::PerCoreBank,
                resize_cores: true,
                remap_banks: true,
            },
            profile,
            mask: ObjMask::all(),
            capacity: 0,
            start_variant: 0,
            tuning: AnnealTuning::default(),
        }
    }

    #[test]
    fn pareto_chains_archive_a_front_no_worse_than_the_seed() {
        let space = packed_space();
        let rr = RoundRobin::new();
        let mut eval = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let seed = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        let seed_obj = eval.evaluate(&seed).unwrap().unwrap();
        let out = run_pareto_chain(
            &mut eval,
            &seed,
            seed_obj,
            300,
            9,
            &pareto_setup(WeightProfile::Makespan),
            &mut |_| {},
        )
        .unwrap();
        let archive = out.archive.expect("pareto chains archive");
        assert!(!archive.is_empty());
        // Every archived point is no worse than the seed on some axis —
        // in particular the makespan-best point beats or matches it.
        let best_makespan = archive
            .points()
            .iter()
            .map(|p| p.obj.makespan)
            .min()
            .unwrap();
        assert!(best_makespan <= seed_obj.makespan);
        assert_eq!(best_makespan, out.best_cost);
        // Mutual non-domination of the archived set.
        let mask = ObjMask::all();
        for a in archive.points() {
            for b in archive.points() {
                assert!(!mask.dominates(&a.obj, &b.obj) || a == b);
            }
        }
    }

    #[test]
    fn pareto_chains_are_deterministic_per_seed_and_profile() {
        let space = packed_space();
        let rr = RoundRobin::new();
        let run = |profile| {
            let mut eval =
                Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
            let seed = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
            let seed_obj = eval.evaluate(&seed).unwrap().unwrap();
            run_pareto_chain(
                &mut eval,
                &seed,
                seed_obj,
                150,
                5,
                &pareto_setup(profile),
                &mut |_| {},
            )
            .unwrap()
        };
        let (a, b) = (run(WeightProfile::Bank), run(WeightProfile::Bank));
        assert_eq!(a.best, b.best);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.archive.unwrap().points(),
            b.archive.unwrap().points(),
            "identical seeds produce identical archives"
        );
    }
}
