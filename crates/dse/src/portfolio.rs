//! The search drivers: single-chain annealing and the parallel
//! multi-start portfolio.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mia_model::arbiter::Arbiter;
use mia_model::Mapping;

use crate::anneal::{point_of, run_chain, run_pareto_chain, ChainOutcome, ParetoChainSetup};
use crate::pareto::{ObjMask, ParetoArchive, ParetoPoint};
use crate::{
    AnalyzedMakespan, AnnealTuning, Candidate, DseError, EvalStats, Evaluator, JointAxes, ObjVec,
    Objective, ObjectiveError, SearchSpace, WeightProfile,
};

/// Which search strategy [`optimize`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One simulated-annealing chain (migrate / swap / reorder moves).
    Anneal,
    /// A multi-start portfolio: `chains` independent annealing chains
    /// from differently-seeded PRNGs, run concurrently on a scoped
    /// worker pool, sharing a best-so-far under a mutex. The result is
    /// independent of the worker count (see the crate docs).
    Portfolio {
        /// Number of independent chains (≥ 1).
        chains: usize,
    },
}

impl Strategy {
    /// Label used in reports and the CLI ("anneal" / "portfolio").
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Anneal => "anneal",
            Strategy::Portfolio { .. } => "portfolio",
        }
    }

    /// Parses a `--strategy` token with the `--chains` value, if one was
    /// given (default 8 chains). Both front ends parse through here.
    ///
    /// # Errors
    ///
    /// An unknown token, zero chains, or chains given to `anneal`.
    pub fn parse(token: &str, chains: Option<usize>) -> Result<Self, String> {
        if chains == Some(0) {
            return Err("--chains must be a positive number".to_owned());
        }
        match token {
            "anneal" if chains.is_some() => {
                Err("--chains only applies to the portfolio strategy".to_owned())
            }
            "anneal" => Ok(Strategy::Anneal),
            "portfolio" => Ok(Strategy::Portfolio {
                chains: chains.unwrap_or(8),
            }),
            other => Err(format!("unknown strategy `{other}` (anneal, portfolio)")),
        }
    }

    fn chains(&self) -> usize {
        match *self {
            Strategy::Anneal => 1,
            Strategy::Portfolio { chains } => chains.max(1),
        }
    }
}

/// Multi-objective search settings (see [`DseConfig::pareto`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoConfig {
    /// Which objectives participate in dominance.
    pub mask: ObjMask,
    /// Capacity of the reported front (0 = unbounded).
    pub capacity: usize,
}

impl Default for ParetoConfig {
    /// All three objectives, a 64-point reported front.
    fn default() -> Self {
        ParetoConfig {
            mask: ObjMask::all(),
            capacity: 64,
        }
    }
}

/// Configuration of one [`optimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// The search strategy.
    pub strategy: Strategy,
    /// Base PRNG seed; every derived chain seed is a deterministic
    /// function of it.
    pub seed: u64,
    /// Total evaluation budget (proposals across all chains; the seed
    /// evaluation comes on top).
    pub budget_evals: usize,
    /// Worker threads for the portfolio (0 = available parallelism).
    /// Changes wall-clock only, never the result.
    pub threads: usize,
    /// Annealing temperature schedule.
    pub tuning: AnnealTuning,
    /// `Some` switches the chains to the joint-axis multi-objective
    /// search and fills [`DseResult::front`]; `None` (the default) is
    /// the scalar search, bit-identical to the pre-vector code.
    pub pareto: Option<ParetoConfig>,
}

impl Default for DseConfig {
    /// An 8-chain portfolio, 2000 evaluations, automatic thread count.
    fn default() -> Self {
        DseConfig {
            strategy: Strategy::Portfolio { chains: 8 },
            seed: 0,
            budget_evals: 2_000,
            threads: 0,
            tuning: AnnealTuning::default(),
            pareto: None,
        }
    }
}

impl DseConfig {
    /// The worker count this configuration actually runs with: the
    /// requested `threads` — or the machine's available parallelism when
    /// 0 — capped at the chain count. Reports should record this instead
    /// of the raw `threads` spec (a recorded `0` says nothing about what
    /// ran).
    pub fn resolved_workers(&self) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        };
        requested.min(self.strategy.chains()).max(1)
    }
}

/// The outcome of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// Analyzed makespan of the seed mapping.
    pub seed_makespan: u64,
    /// Analyzed makespan of the returned mapping (≤ `seed_makespan`).
    pub best_makespan: u64,
    /// The winning mapping (the seed mapping when nothing beat it).
    pub best_mapping: Mapping,
    /// Index of the chain that found the winner (0 for the seed).
    pub best_chain: usize,
    /// Number of chains that ran.
    pub chains: usize,
    /// Aggregated evaluation counters (all chains + the seed analysis).
    pub stats: EvalStats,
    /// Accepted moves across all chains.
    pub accepted: usize,
    /// The seed design's full objective vector (reference point of the
    /// hypervolume proxy).
    pub seed_objectives: ObjVec,
    /// The merged, capacity-pruned Pareto front (empty in scalar mode).
    /// Always contains the seed design or something dominating it, and
    /// its makespan-best point never exceeds `best_makespan`.
    pub front: Vec<ParetoPoint>,
    /// Hypervolume proxy of `front` against `seed_objectives` (0 in
    /// scalar mode).
    pub hypervolume: f64,
}

impl DseResult {
    /// Relative improvement over the seed, in percent.
    pub fn improvement_pct(&self) -> f64 {
        if self.seed_makespan == 0 {
            0.0
        } else {
            (self.seed_makespan - self.best_makespan) as f64 / self.seed_makespan as f64 * 100.0
        }
    }
}

/// The best-so-far the chains share: `(cost, chain index)` under a
/// mutex. Chains **publish** improvements here but never read it to
/// steer their search, so the final minimum is an order-free reduction —
/// the same whatever the interleaving, which is what makes `--threads 1`
/// and `--threads 16` bit-identical.
struct SharedBest(Mutex<Option<(u64, usize)>>);

impl SharedBest {
    fn new() -> Self {
        SharedBest(Mutex::new(None))
    }

    fn publish(&self, cost: u64, chain: usize) {
        let mut guard = self.0.lock().expect("no panics while holding the lock");
        let better = match *guard {
            None => true,
            Some(incumbent) => (cost, chain) < incumbent,
        };
        if better {
            *guard = Some((cost, chain));
        }
    }

    fn take(&self) -> Option<(u64, usize)> {
        *self.0.lock().expect("no panics while holding the lock")
    }
}

/// Derives chain `c`'s PRNG seed from the base seed (splitmix64-style
/// mixing so neighbouring chains do not correlate).
fn chain_seed(base: u64, chain: usize) -> u64 {
    let mut z = base ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Searches the mapping space of `space` with the analyzed-makespan
/// objective under `arbiter` (the flagship configuration — for custom
/// objectives see [`optimize_with_objective`]).
///
/// # Errors
///
/// [`DseError::Objective`] when the seed mapping itself is infeasible
/// under the objective, or an evaluation fails fatally (cancellation).
pub fn optimize(
    space: &SearchSpace,
    arbiter: &(dyn Arbiter + Send + Sync),
    config: &DseConfig,
) -> Result<DseResult, DseError> {
    run_portfolio(space, config, 1, |_chain| {
        AnalyzedMakespan::new(arbiter, space.options().clone())
    })
}

/// [`optimize`] over a whole arbiter *list*: the arbiter choice becomes
/// a first-class move of the search ([`crate::Undo::SwitchArbiter`]),
/// so one joint run explores mappings,
/// orders, bank placements, core budgets and arbiters together instead
/// of an outer per-arbiter grid. Most useful with
/// [`DseConfig::pareto`] enabled — the merged front then spans all
/// variants; in scalar mode the extra variants are still searched but
/// only the makespan winner is reported.
///
/// # Errors
///
/// See [`optimize`].
///
/// # Panics
///
/// Panics when `arbiters` is empty.
pub fn optimize_joint(
    space: &SearchSpace,
    arbiters: &[&(dyn Arbiter + Send + Sync)],
    config: &DseConfig,
) -> Result<DseResult, DseError> {
    assert!(!arbiters.is_empty(), "at least one arbiter");
    run_portfolio(space, config, arbiters.len() as u32, |_chain| {
        AnalyzedMakespan::with_arbiters(arbiters.to_vec(), space.options().clone())
    })
}

/// [`optimize`] with a caller-chosen objective: `make_objective` builds
/// one objective per chain (chains run concurrently, so each needs its
/// own mutable instance).
///
/// # Errors
///
/// See [`optimize`].
pub fn optimize_with_objective<O, F>(
    space: &SearchSpace,
    config: &DseConfig,
    make_objective: F,
) -> Result<DseResult, DseError>
where
    O: Objective,
    F: Fn(usize) -> O + Sync,
{
    run_portfolio(space, config, 1, make_objective)
}

/// The shared driver behind [`optimize`], [`optimize_joint`] and
/// [`optimize_with_objective`]. `arbiter_variants` is the number of
/// arbiter variants the objective understands (1 disables
/// arbiter-switch moves).
fn run_portfolio<O, F>(
    space: &SearchSpace,
    config: &DseConfig,
    arbiter_variants: u32,
    make_objective: F,
) -> Result<DseResult, DseError>
where
    O: Objective,
    F: Fn(usize) -> O + Sync,
{
    let seed_candidate = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
    let seed_key = seed_candidate.key();

    // Evaluate the seed once, directly on the seed problem.
    let seed_obj = match make_objective(0).evaluate(space.seed_problem()) {
        Ok(cost) => cost,
        Err(ObjectiveError::Infeasible(m)) => {
            return Err(DseError::Objective(format!(
                "seed mapping is infeasible: {m}"
            )))
        }
        Err(ObjectiveError::Fatal(m)) => return Err(DseError::Objective(m)),
    };
    let seed_makespan = seed_obj.makespan;

    let chains = config.strategy.chains();
    // Distribute the proposal budget over the chains (front chains take
    // the remainder), deterministically.
    let budget_of = |chain: usize| {
        config.budget_evals / chains + usize::from(chain < config.budget_evals % chains)
    };

    // The Pareto rotation: chain i anneals profile cycle[i % len], so a
    // portfolio covers every corner of the active objective space.
    let profiles = config
        .pareto
        .as_ref()
        .map(|pc| WeightProfile::cycle(&pc.mask));
    let axes = JointAxes {
        arbiters: arbiter_variants,
        banks: space.seed_problem().platform().banks() as u32,
        policy: space.policy(),
        resize_cores: true,
        remap_banks: true,
    };

    let shared = SharedBest::new();
    let outcomes: Vec<Mutex<Option<Result<ChainOutcome, DseError>>>> =
        (0..chains).map(|_| Mutex::new(None)).collect();

    let run_one = |chain: usize| -> Result<ChainOutcome, DseError> {
        let mut evaluator = Evaluator::new(space, make_objective(chain));
        evaluator.prime(seed_key, seed_obj);
        match (&config.pareto, &profiles) {
            (Some(pc), Some(profiles)) => {
                let setup = ParetoChainSetup {
                    axes,
                    profile: profiles[chain % profiles.len()],
                    mask: pc.mask,
                    capacity: 0, // chains keep their full set; pruning is global
                    // Stagger opening variants in blocks of one full
                    // profile rotation, so every (variant, profile)
                    // pair gets a chain before any pair gets two.
                    start_variant: ((chain / profiles.len()) as u32) % arbiter_variants,
                    tuning: config.tuning,
                };
                run_pareto_chain(
                    &mut evaluator,
                    &seed_candidate,
                    seed_obj,
                    budget_of(chain),
                    chain_seed(config.seed, chain),
                    &setup,
                    &mut |cost| shared.publish(cost, chain),
                )
            }
            _ => run_chain(
                &mut evaluator,
                &seed_candidate,
                seed_makespan,
                budget_of(chain),
                chain_seed(config.seed, chain),
                &config.tuning,
                &mut |cost| shared.publish(cost, chain),
            ),
        }
    };

    let workers = config.resolved_workers();

    if workers <= 1 {
        for (chain, slot) in outcomes.iter().enumerate() {
            *slot.lock().expect("unshared slot") = Some(run_one(chain));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let chain = next.fetch_add(1, Ordering::Relaxed);
                    if chain >= chains {
                        break;
                    }
                    let outcome = run_one(chain);
                    *outcomes[chain].lock().expect("one writer per slot") = Some(outcome);
                });
            }
        });
    }

    let mut stats = EvalStats {
        evaluations: 1,
        analyses: 1,
        ..EvalStats::default()
    };
    let mut accepted = 0usize;
    let mut chain_results: Vec<ChainOutcome> = Vec::with_capacity(chains);
    for slot in outcomes {
        let outcome = slot
            .into_inner()
            .expect("pool joined")
            .expect("every chain ran")?;
        stats.merge(&outcome.stats);
        accepted += outcome.accepted;
        chain_results.push(outcome);
    }

    // The winner comes off the shared incumbent; ties and costs are
    // deterministic, so this is reproducible across thread counts.
    let (best_makespan, best_chain, best_mapping) = match shared.take() {
        Some((cost, chain)) if cost < seed_makespan => {
            debug_assert_eq!(chain_results[chain].best_cost, cost);
            let mapping = chain_results[chain]
                .best
                .to_mapping(space.seed_problem().graph())?;
            (cost, chain, mapping)
        }
        _ => (seed_makespan, 0, space.seed_problem().mapping().clone()),
    };

    // The merged front: the seed point plus every chain's archive. The
    // merge is a set union under dominance, so chain order (and hence
    // thread interleaving) cannot change it.
    let (front, hypervolume) = match &config.pareto {
        Some(pc) => {
            let mut merged = ParetoArchive::new(pc.mask, pc.capacity);
            merged.insert(point_of(&seed_candidate, seed_obj));
            for outcome in &chain_results {
                if let Some(archive) = &outcome.archive {
                    merged.merge(archive);
                }
            }
            let hv = merged.hypervolume_proxy(&seed_obj);
            (merged.front(), hv)
        }
        None => (Vec::new(), 0.0),
    };

    Ok(DseResult {
        seed_makespan,
        best_makespan,
        best_mapping,
        best_chain,
        chains,
        stats,
        accepted,
        seed_objectives: seed_obj,
        front,
        hypervolume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_arbiter::RoundRobin;
    use mia_model::{BankPolicy, Cycles, Mapping, Platform, Problem, Task, TaskGraph};

    fn packed_space(n: usize, cores: usize) -> SearchSpace {
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(40 + (i as u64 * 37) % 300)));
        }
        let m = Mapping::from_assignment(&g, &vec![0u32; n]).unwrap();
        let p = Problem::new(g, m, Platform::new(cores, cores)).unwrap();
        SearchSpace::new(p, BankPolicy::PerCoreBank)
    }

    #[test]
    fn portfolio_beats_the_packed_seed() {
        let space = packed_space(10, 4);
        let config = DseConfig {
            strategy: Strategy::Portfolio { chains: 4 },
            seed: 1,
            budget_evals: 400,
            threads: 2,
            ..DseConfig::default()
        };
        let r = optimize(&space, &RoundRobin::new(), &config).unwrap();
        assert!(r.best_makespan < r.seed_makespan);
        assert!(r.improvement_pct() > 0.0);
        // budget + the seed analysis, across 4 chains.
        assert_eq!(r.stats.evaluations, 401);
        assert_eq!(r.chains, 4);
        // The winning mapping re-validates on the original problem.
        let p = Problem::new(
            space.seed_problem().graph().clone(),
            r.best_mapping.clone(),
            space.seed_problem().platform().clone(),
        )
        .unwrap();
        let check = mia_core::analyze(&p, &RoundRobin::new()).unwrap();
        assert_eq!(check.makespan().as_u64(), r.best_makespan);
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        let space = packed_space(12, 4);
        let run = |threads: usize| {
            let config = DseConfig {
                strategy: Strategy::Portfolio { chains: 6 },
                seed: 42,
                budget_evals: 300,
                threads,
                ..DseConfig::default()
            };
            optimize(&space, &RoundRobin::new(), &config).unwrap()
        };
        let (one, many, auto) = (run(1), run(16), run(0));
        assert_eq!(one, many);
        assert_eq!(one, auto);
    }

    #[test]
    fn anneal_strategy_is_a_one_chain_portfolio() {
        let space = packed_space(8, 3);
        let base = DseConfig {
            seed: 5,
            budget_evals: 150,
            threads: 1,
            ..DseConfig::default()
        };
        let a = optimize(
            &space,
            &RoundRobin::new(),
            &DseConfig {
                strategy: Strategy::Anneal,
                ..base.clone()
            },
        )
        .unwrap();
        let b = optimize(
            &space,
            &RoundRobin::new(),
            &DseConfig {
                strategy: Strategy::Portfolio { chains: 1 },
                ..base
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_budget_returns_the_seed() {
        let space = packed_space(5, 2);
        let config = DseConfig {
            strategy: Strategy::Anneal,
            budget_evals: 0,
            threads: 1,
            ..DseConfig::default()
        };
        let r = optimize(&space, &RoundRobin::new(), &config).unwrap();
        assert_eq!(r.best_makespan, r.seed_makespan);
        assert_eq!(r.best_mapping, *space.seed_problem().mapping());
        assert_eq!(r.stats.evaluations, 1); // just the seed
    }

    #[test]
    fn proxy_objective_plugs_in() {
        use crate::ProxyMakespan;
        let space = packed_space(10, 4);
        let config = DseConfig {
            strategy: Strategy::Portfolio { chains: 2 },
            seed: 3,
            budget_evals: 200,
            threads: 1,
            ..DseConfig::default()
        };
        let r = optimize_with_objective(&space, &config, |_| ProxyMakespan).unwrap();
        assert!(r.best_makespan < r.seed_makespan);
    }

    fn pareto_config(chains: usize, threads: usize) -> DseConfig {
        DseConfig {
            strategy: Strategy::Portfolio { chains },
            seed: 11,
            budget_evals: 400,
            threads,
            pareto: Some(ParetoConfig::default()),
            ..DseConfig::default()
        }
    }

    #[test]
    fn pareto_mode_reports_a_front_no_worse_than_the_seed() {
        let space = packed_space(12, 4);
        let r = optimize(&space, &RoundRobin::new(), &pareto_config(4, 2)).unwrap();
        assert!(!r.front.is_empty());
        // Mutual non-domination under the configured mask.
        let mask = ObjMask::all();
        for a in &r.front {
            for b in &r.front {
                if a.key != b.key {
                    assert!(!mask.dominates(&a.obj, &b.obj), "{:?} dominates {:?}", a, b);
                }
            }
        }
        // The front's makespan-best point is exactly the scalar winner.
        let best = r.front.iter().map(|p| p.obj.makespan).min().unwrap();
        assert_eq!(best, r.best_makespan);
        assert!(r.best_makespan <= r.seed_makespan);
        assert!(r.hypervolume >= 0.0);
        assert_eq!(r.seed_objectives.makespan, r.seed_makespan);
    }

    #[test]
    fn pareto_mode_is_deterministic_across_thread_counts() {
        let space = packed_space(10, 4);
        let one = optimize(&space, &RoundRobin::new(), &pareto_config(5, 1)).unwrap();
        let many = optimize(&space, &RoundRobin::new(), &pareto_config(5, 16)).unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn joint_search_spans_the_arbiter_list() {
        use mia_arbiter::Fifo;
        let space = packed_space(10, 4);
        let rr = RoundRobin::new();
        let fifo = Fifo::new();
        let arbiters: Vec<&(dyn mia_model::arbiter::Arbiter + Send + Sync)> = vec![&rr, &fifo];
        let r = optimize_joint(&space, &arbiters, &pareto_config(4, 2)).unwrap();
        assert!(r.best_makespan <= r.seed_makespan);
        assert!(!r.front.is_empty());
        // Every archived arbiter index stays inside the list.
        assert!(r
            .front
            .iter()
            .all(|p| (p.arbiter as usize) < arbiters.len()));
    }
}
