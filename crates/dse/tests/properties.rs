//! Property tests pinning the two contracts of the DSE subsystem:
//!
//! 1. **never worse than the seed** — the returned mapping's *analyzed*
//!    makespan is ≤ the seed mapping's, whatever the workload, arbiter,
//!    budget or seed,
//! 2. **thread invariance** — for a fixed seed, `threads = 1` and
//!    `threads = 16` produce bit-identical results (mapping, makespans
//!    and every counter).

use mia_arbiter::{MppaTree, RoundRobin};
use mia_core::{analyze, AnalysisOptions};
use mia_dag_gen::{Family, LayeredDag};
use mia_dse::{
    optimize, AnalyzedMakespan, Candidate, CandidateKey, DseConfig, DseResult, Evaluator,
    JointAxes, MoveGuide, ObjMask, ObjVec, ParetoArchive, ParetoConfig, ParetoPoint, SearchSpace,
    Strategy,
};
use mia_model::{
    arbiter::Arbiter, BankPolicy, Mapping, ModelError, Platform, Problem, TaskGraph, TaskId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
// `mia_dse::Strategy` shadows the prelude's trait of the same name;
// re-import it anonymously so `prop_map` stays callable.
use proptest::strategy::Strategy as _;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn generated_space(layers: usize, n: usize, gen_seed: u64, cores: usize) -> SearchSpace {
    let mut config = Family::FixedLayers(layers).config(n, gen_seed);
    config.cores = cores; // cyclic-map onto the platform under search
    let workload = LayeredDag::new(config).generate();
    let problem = workload
        .into_problem(&Platform::new(cores, cores))
        .expect("generated workloads validate");
    SearchSpace::new(problem, BankPolicy::PerCoreBank)
}

/// The combined precedence order as `Problem` computed it before the
/// order moved to `mia-baseline`: smallest id first among the ready
/// tasks, or the lowest-id task left with a positive in-degree on a
/// cycle. Kept verbatim as the oracle of both.
fn reference_combined_order(
    graph: &TaskGraph,
    mapping: &Mapping,
) -> Result<Vec<TaskId>, ModelError> {
    let n = graph.len();
    let mut indegree = vec![0usize; n];
    for e in graph.edges() {
        indegree[e.dst.index()] += 1;
    }
    for (_, order) in mapping.iter() {
        for pair in order.windows(2) {
            indegree[pair[1].index()] += 1;
        }
    }
    let mut core_next: Vec<Option<TaskId>> = vec![None; n];
    for (_, order) in mapping.iter() {
        for pair in order.windows(2) {
            core_next[pair[0].index()] = Some(pair[1]);
        }
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut ready: BinaryHeap<Reverse<TaskId>> = (0..n)
        .map(TaskId::from_index)
        .filter(|t| indegree[t.index()] == 0)
        .map(Reverse)
        .collect();
    let mut out = Vec::with_capacity(n);
    while let Some(Reverse(t)) = ready.pop() {
        out.push(t);
        let succs: Vec<TaskId> = graph
            .successors(t)
            .map(|e| e.dst)
            .chain(core_next[t.index()])
            .collect();
        for succ in succs {
            indegree[succ.index()] -= 1;
            if indegree[succ.index()] == 0 {
                ready.push(Reverse(succ));
            }
        }
    }
    if out.len() != n {
        let culprit = (0..n)
            .map(TaskId::from_index)
            .find(|t| indegree[t.index()] > 0)
            .expect("cycle implies remaining in-degree");
        return Err(ModelError::Cycle(culprit));
    }
    Ok(out)
}

/// What the evaluator's working problem must equal for `candidate`: the
/// seed problem rebuilt from scratch.
fn remapped(space: &SearchSpace, candidate: &Candidate) -> Result<Problem, ModelError> {
    let mut fresh = space.seed_problem().clone();
    let mapping = candidate.to_mapping(fresh.graph())?;
    fresh.remap(mapping, candidate.placement(space.policy()))?;
    Ok(fresh)
}

/// One random walk of `steps` moves — unguided, guided and joint
/// (bank remaps and arbiter switches included), drawn in turn — patched
/// into a working problem with `Problem::apply_move`. After every apply
/// and every revert the problem must equal a fresh remap of the same
/// candidate, a cyclic candidate must be refused with the remap's error
/// and leave the problem as it was, and `mia-baseline`'s combined order
/// must match the reference. A kept move stays applied (the next one
/// patches on top of it); a dropped one is reverted. Returns how many
/// cyclic candidates the walk met.
fn apply_move_walk(
    space: &SearchSpace,
    walk_seed: u64,
    steps: usize,
) -> Result<usize, TestCaseError> {
    let graph = space.seed_problem().graph();
    let policy = space.policy();
    let guide = MoveGuide::new(space.seed_problem().table());
    let axes = JointAxes {
        arbiters: 2,
        banks: space.seed_problem().platform().banks() as u32,
        policy,
        resize_cores: true,
        remap_banks: true,
    };
    let mut current = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
    let mut problem = remapped(space, &current).expect("the seed is feasible");
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut cycles = 0;
    for step in 0..steps {
        let undo = match step % 3 {
            0 => current.propose(&mut rng),
            1 => current.propose_guided(graph, &guide, &mut rng),
            _ => current.propose_joint(graph, &guide, &axes, &mut rng),
        };
        let before = problem.clone();
        let applied = problem.apply_move(current.move_from(&problem, policy));
        match (applied, remapped(space, &current)) {
            (Ok(revert), Ok(fresh)) => {
                prop_assert_eq!(&problem, &fresh, "step {} ({:?})", step, undo);
                prop_assert_eq!(
                    mia_baseline::combined_order(&problem),
                    reference_combined_order(graph, problem.mapping()).unwrap()
                );
                if rng.random_bool(0.5) {
                    problem.revert(revert);
                    current.undo(undo);
                    prop_assert_eq!(&problem, &before, "revert of step {}", step);
                    prop_assert_eq!(&problem, &remapped(space, &current).unwrap());
                }
            }
            (Err(got), Err(expected)) => {
                prop_assert_eq!(&got, &expected, "step {}", step);
                prop_assert_eq!(
                    Err(got),
                    reference_combined_order(graph, &current.to_mapping(graph).unwrap())
                );
                prop_assert_eq!(&problem, &before, "refused step {}", step);
                cycles += 1;
                current.undo(undo);
            }
            (got, expected) => prop_assert!(
                false,
                "step {} ({:?}): apply_move gave {:?}, remap gave {:?}",
                step,
                undo,
                got.map(drop),
                expected.map(drop)
            ),
        }
    }
    Ok(cycles)
}

fn analyzed_makespan(problem: &Problem, arbiter: &(dyn Arbiter + Send + Sync)) -> u64 {
    analyze(problem, arbiter)
        .expect("validated problems analyze")
        .makespan()
        .as_u64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: the optimized mapping never analyzes worse than the
    /// seed mapping, and the reported best makespan is exactly the
    /// analyzed makespan of the returned mapping.
    #[test]
    fn never_worse_than_the_seed(
        n in 12usize..40,
        gen_seed in 0u64..1000,
        search_seed in 0u64..1000,
        budget in 10usize..80,
        mppa in any::<bool>(),
    ) {
        let space = generated_space(3, n, gen_seed, 4);
        let arbiter: Box<dyn Arbiter + Send + Sync> = if mppa {
            Box::new(MppaTree::cluster16())
        } else {
            Box::new(RoundRobin::new())
        };
        let config = DseConfig {
            strategy: Strategy::Portfolio { chains: 3 },
            seed: search_seed,
            budget_evals: budget,
            threads: 1,
            ..DseConfig::default()
        };
        let result = optimize(&space, arbiter.as_ref(), &config).unwrap();

        let seed_direct = analyzed_makespan(space.seed_problem(), arbiter.as_ref());
        prop_assert_eq!(result.seed_makespan, seed_direct);
        prop_assert!(result.best_makespan <= result.seed_makespan);

        // The claim is about the *returned mapping*, not just the number:
        // rebuild the problem and re-analyze.
        let optimized = Problem::new(
            space.seed_problem().graph().clone(),
            result.best_mapping.clone(),
            space.seed_problem().platform().clone(),
        ).unwrap();
        prop_assert_eq!(analyzed_makespan(&optimized, arbiter.as_ref()), result.best_makespan);
    }

    /// Contract 2: worker-thread count changes wall-clock, never results.
    #[test]
    fn bit_identical_across_thread_counts(
        n in 10usize..30,
        gen_seed in 0u64..500,
        search_seed in 0u64..500,
    ) {
        let space = generated_space(4, n, gen_seed, 4);
        let rr = RoundRobin::new();
        let run = |threads: usize| -> DseResult {
            let config = DseConfig {
                strategy: Strategy::Portfolio { chains: 5 },
                seed: search_seed,
                budget_evals: 60,
                threads,
                ..DseConfig::default()
            };
            optimize(&space, &rr, &config).unwrap()
        };
        prop_assert_eq!(run(1), run(16));
    }

    /// Contract 3: delta re-analysis is invisible. Along a random walk of
    /// dependency-aware moves, [`Evaluator::evaluate_move`] (which resumes
    /// from the last accepted candidate's checkpoints whenever the change
    /// admits it) returns exactly what an independent full evaluation of
    /// the same candidate returns — same feasibility verdict, same cost.
    #[test]
    fn delta_evaluation_matches_a_full_analysis_on_random_walks(
        n in 12usize..32,
        gen_seed in 0u64..500,
        walk_seed in 0u64..500,
    ) {
        let space = generated_space(3, n, gen_seed, 4);
        let rr = RoundRobin::new();
        let mut delta = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let mut full = Evaluator::new(&space, AnalyzedMakespan::new(&rr, AnalysisOptions::new()));
        let graph = space.seed_problem().graph();
        let guide = MoveGuide::new(space.seed_problem().table());
        let mut current = Candidate::from_mapping(space.seed_problem().mapping(), space.cores());
        delta.begin(&current).unwrap();
        let mut rng = StdRng::seed_from_u64(walk_seed);
        for step in 0..25 {
            let undo = current.propose_guided(graph, &guide, &mut rng);
            let changed = current.changed_positions(graph, undo);
            let moved = delta.evaluate_move(&current, &changed, None).unwrap();
            let reference = full.evaluate(&current).unwrap();
            prop_assert_eq!(moved, reference, "walk step {}", step);
            if moved.is_some() {
                // Accept every feasible move: the walk drags the delta
                // base through many promotions.
                delta.accept_last(&current).unwrap();
            } else {
                current.undo(undo);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 5: patching a move in place is invisible. See
    /// [`apply_move_walk`].
    #[test]
    fn apply_move_matches_a_fresh_remap_on_random_walks(
        n in 12usize..40,
        gen_seed in 0u64..500,
        walk_seed in 0u64..500,
        single_bank in any::<bool>(),
    ) {
        let mut space = generated_space(3, n, gen_seed, 4);
        if single_bank {
            space = SearchSpace::new(space.seed_problem().clone(), BankPolicy::SingleBank);
        }
        apply_move_walk(&space, walk_seed, 45)?;
    }
}

/// The walks above do meet cyclic candidates (unguided moves create
/// them), so the refusal path is exercised, not just reachable.
#[test]
fn apply_move_walks_meet_cyclic_candidates() {
    let cycles: usize = (0..6)
        .map(|seed| apply_move_walk(&generated_space(3, 24, seed, 4), seed, 45).unwrap())
        .sum();
    assert!(cycles > 0, "no walk met a cyclic candidate");
}

/// A random archive point over a small objective lattice (small ranges
/// force plenty of dominance and tie collisions).
fn arb_point() -> impl proptest::strategy::Strategy<Value = ParetoPoint> {
    (0u64..12, -6i64..6, 0u64..12, 0u32..3, 1u32..5).prop_map(
        |(makespan, neg_slack, bank_peak, arbiter, active_cores)| ParetoPoint {
            obj: ObjVec {
                makespan,
                neg_slack,
                bank_peak,
            },
            assignment: vec![arbiter, active_cores],
            banks: (arbiter == 2).then(|| vec![active_cores]),
            arbiter,
            active_cores,
            key: CandidateKey::default(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 4: whatever stream of designs is archived, the surviving
    /// set is mutually non-dominated under the active mask, and so is
    /// the capacity-pruned reported front.
    #[test]
    fn pareto_archive_is_mutually_non_dominated(
        points in proptest::collection::vec(arb_point(), 1..60),
        capacity in 0usize..6,
    ) {
        let mask = ObjMask::all();
        let mut archive = ParetoArchive::new(mask, capacity);
        for p in points {
            archive.insert(p);
        }
        for set in [archive.points().to_vec(), archive.front()] {
            for a in &set {
                for b in &set {
                    if a != b {
                        prop_assert!(
                            !mask.dominates(&a.obj, &b.obj),
                            "{:?} dominates {:?}", a.obj, b.obj
                        );
                    }
                }
            }
        }
        prop_assert!(capacity == 0 || archive.front().len() <= capacity);
    }

    /// Contract 5: the archive is a set, not a sequence — any insertion
    /// order (and any split into merged sub-archives) converges on the
    /// same points, the same reported front and the same hypervolume.
    #[test]
    fn pareto_archive_is_insertion_order_independent(
        points in proptest::collection::vec(arb_point(), 1..40),
        split in 0usize..40,
        capacity in 0usize..5,
    ) {
        let mask = ObjMask::all();
        let mut forward = ParetoArchive::new(mask, capacity);
        for p in &points {
            forward.insert(p.clone());
        }
        let mut backward = ParetoArchive::new(mask, capacity);
        for p in points.iter().rev() {
            backward.insert(p.clone());
        }
        // A merge of disjoint sub-streams must land on the same set.
        let split = split.min(points.len());
        let mut left = ParetoArchive::new(mask, capacity);
        let mut right = ParetoArchive::new(mask, capacity);
        for p in &points[..split] {
            left.insert(p.clone());
        }
        for p in &points[split..] {
            right.insert(p.clone());
        }
        left.merge(&right);
        let reference = ObjVec { makespan: 12, neg_slack: 6, bank_peak: 12 };
        prop_assert_eq!(forward.points(), backward.points());
        prop_assert_eq!(forward.points(), left.points());
        prop_assert_eq!(forward.front(), backward.front());
        prop_assert_eq!(forward.front(), left.front());
        prop_assert_eq!(
            forward.hypervolume_proxy(&reference),
            left.hypervolume_proxy(&reference)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 6: the multi-objective joint search is as thread-count
    /// invariant as the scalar one — result, front and hypervolume are
    /// bit-identical between `--threads 1` and `--threads 16`.
    #[test]
    fn pareto_mode_is_bit_identical_across_thread_counts(
        n in 10usize..26,
        gen_seed in 0u64..300,
        search_seed in 0u64..300,
    ) {
        let space = generated_space(3, n, gen_seed, 4);
        let rr = RoundRobin::new();
        let run = |threads: usize| -> DseResult {
            let config = DseConfig {
                strategy: Strategy::Portfolio { chains: 4 },
                seed: search_seed,
                budget_evals: 80,
                threads,
                pareto: Some(ParetoConfig::default()),
                ..DseConfig::default()
            };
            optimize(&space, &rr, &config).unwrap()
        };
        let (one, many) = (run(1), run(16));
        prop_assert_eq!(&one, &many);
        prop_assert!(!one.front.is_empty());
        // The front never loses to the scalar winner.
        let best = one.front.iter().map(|p| p.obj.makespan).min().unwrap();
        prop_assert_eq!(best, one.best_makespan);
    }
}

/// The acceptance-criteria scenario: on the ROSACE expansion the search
/// returns a mapping at least as good as the layered-cyclic seed, with a
/// deterministic, reproducible outcome and a non-trivial cache hit rate
/// to report.
#[test]
fn rosace_optimizes_against_the_layered_cyclic_seed() {
    let expansion = mia_sdf::rosace().expand(2).expect("rosace expands");
    let platform = Platform::mppa256_cluster();
    let mapping = mia_mapping::layered_cyclic(&expansion.graph, platform.cores()).expect("maps");
    let problem = Problem::new(expansion.graph, mapping, platform).expect("validates");
    let space = SearchSpace::new(problem, BankPolicy::PerCoreBank);
    let config = DseConfig {
        strategy: Strategy::Portfolio { chains: 4 },
        seed: 7,
        budget_evals: 300,
        threads: 2,
        ..DseConfig::default()
    };
    let rr = RoundRobin::new();
    let a = optimize(&space, &rr, &config).unwrap();
    let b = optimize(&space, &rr, &config).unwrap();
    assert_eq!(a, b, "same config must reproduce bit-identically");
    assert!(a.best_makespan <= a.seed_makespan);
    assert!(
        a.stats.cache_hits > 0,
        "annealing revisits neighbours; the memo cache must fire"
    );
    assert!(a.stats.hit_rate() > 0.0 && a.stats.hit_rate() < 1.0);
}

/// The evaluation budget is respected exactly — `budget_evals` proposals
/// across all chains plus the one seed analysis — for **both** strategies
/// and regardless of the worker-thread count. A search that silently
/// burned extra analyses (or skipped budgeted ones) would corrupt every
/// candidates-per-second measurement built on this counter.
#[test]
fn budget_is_respected_exactly() {
    let space = generated_space(3, 24, 1, 4);
    for threads in [1usize, 16] {
        for (strategy, expected_chains) in [
            (Strategy::Anneal, 1usize),
            (Strategy::Portfolio { chains: 1 }, 1),
            (Strategy::Portfolio { chains: 3 }, 3),
            (Strategy::Portfolio { chains: 7 }, 7),
        ] {
            let config = DseConfig {
                strategy,
                seed: 2,
                budget_evals: 100,
                threads,
                ..DseConfig::default()
            };
            let r = optimize(&space, &RoundRobin::new(), &config).unwrap();
            assert_eq!(
                r.stats.evaluations, 101,
                "strategy={strategy:?} threads={threads}"
            );
            assert_eq!(r.chains, expected_chains);
        }
    }
}
