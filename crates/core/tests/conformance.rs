//! The conformance harness of the incremental analysis.
//!
//! The paper's central claim is that the incremental analysis is
//! *semantically equivalent* to the exhaustive baseline while scaling to
//! many-core systems. A single divergence in the request-service event
//! order silently changes interference bounds, so this suite pins the
//! scanning cursor **bit for bit**:
//!
//! * one scenario generator (random layered DAGs via `mia-gen`, plus
//!   structured and degenerate topologies) drives the analysis through
//!   every registered arbiter and both interference modes, and
//! * `mia-baseline`'s independent double fixed point must settle on the
//!   same schedule (its `MergeByCore` grouping against
//!   `AggregateByCore`, its `PairwiseTasks` grouping against
//!   `PairwiseAdditive`), while
//! * runs resumed from recorded checkpoints must reproduce the full
//!   run's schedule, work counters and the suffix of its observer event
//!   stream.
//!
//! Coverage is exhaustive by construction, not by sampling: the
//! deterministic sweep below iterates every registered arbiter × every
//! interference mode; the proptest on top samples the same space with
//! random workload shapes. The per-suite case count is pinned (`CASES`)
//! so CI runs a fixed, reproducible workload.

use mia_baseline::{AggregationMode, BaselineOptions};
use mia_core::testkit::{self, EngineRun, Event};
use mia_core::{
    analyze_delta_with, AnalysisOptions, CheckpointLog, InterferenceMode, NoopObserver,
};
use mia_dag_gen::{topologies, Family, LayeredDag, LayeredDagConfig, Workload};
use mia_model::{Arbiter, CoreId, Cycles, Platform, Problem};
use proptest::prelude::*;

/// Pinned proptest case count (referenced by the dedicated CI job).
const CASES: u32 = 24;

/// Interference modes under test (every variant of the enum).
const MODES: [InterferenceMode; 2] = [
    InterferenceMode::AggregateByCore,
    InterferenceMode::PairwiseAdditive,
];

fn arbiters() -> Vec<Box<dyn Arbiter + Send + Sync>> {
    mia_arbiter::REGISTRY
        .iter()
        .map(|entry| mia_arbiter::by_name(entry.canonical).expect("registry resolves"))
        .collect()
}

fn workload(family: Family, total: usize, seed: u64) -> Problem {
    LayeredDag::new(family.config(total, seed))
        .generate()
        .into_problem(&Platform::mppa256_cluster())
        .expect("valid workload")
}

/// Asserts that `mia-baseline`, run with the grouping that matches
/// `mode`, settles on `schedule`.
fn assert_matches_baseline(
    problem: &Problem,
    arbiter: &(dyn Arbiter + Send + Sync),
    mode: InterferenceMode,
    schedule: &mia_model::Schedule,
    label: &str,
) {
    let aggregation = match mode {
        InterferenceMode::PairwiseAdditive => AggregationMode::PairwiseTasks,
        _ => AggregationMode::MergeByCore,
    };
    let options = BaselineOptions::new().aggregation(aggregation);
    let baseline = mia_baseline::analyze_with(problem, arbiter, &options)
        .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
    assert_eq!(
        &baseline.schedule, schedule,
        "{label}: baseline oracle diverged"
    );
}

/// Runs one scenario and pins its schedule to the `mia-baseline` oracle.
/// Returns the run for scenario-level follow-up assertions.
fn assert_conformance(
    problem: &Problem,
    arbiter: &(dyn Arbiter + Send + Sync),
    mode: InterferenceMode,
    label: &str,
) -> EngineRun {
    let options = AnalysisOptions::new().interference_mode(mode);
    let run = testkit::run(problem, arbiter, &options)
        .unwrap_or_else(|e| panic!("{label}: analysis failed: {e}"));
    assert_matches_baseline(problem, arbiter, mode, &run.schedule, label);
    run
}

/// The deterministic exhaustive sweep: every registered arbiter × every
/// interference mode × three seeds, on two workload shapes each (a deep
/// fixed-layer-size DAG and a wide fixed-layer-count DAG) — 84
/// scenarios, comfortably over the 64 the roadmap requires.
#[test]
fn every_arbiter_and_mode_conforms() {
    let mut scenarios = 0usize;
    for (arb_idx, arbiter) in arbiters().iter().enumerate() {
        for mode in MODES {
            for variant in [2u64, 3, 16] {
                for (family, total) in [
                    (Family::FixedLayerSize(16), 48),
                    (Family::FixedLayers(4), 72),
                ] {
                    let seed = 1_000 + 97 * arb_idx as u64 + variant;
                    let problem = workload(family, total, seed);
                    let label = format!(
                        "{} / {mode:?} / {} n={total} seed={seed}",
                        arbiter.name(),
                        family.label(),
                    );
                    let run = assert_conformance(&problem, arbiter.as_ref(), mode, &label);
                    // The oracle must not be vacuous: schedules carry
                    // real contention and streams carry real events.
                    assert!(run.stats.ibus_calls > 0, "{label}: no IBUS calls");
                    assert!(
                        run.events
                            .iter()
                            .any(|e| matches!(e, Event::Interference(..))),
                        "{label}: no interference events recorded"
                    );
                    scenarios += 1;
                }
            }
        }
    }
    assert!(scenarios >= 64, "only {scenarios} scenarios covered");
}

/// Structured and degenerate shapes: chains, fork-join, independent
/// tasks, diamonds, zero-WCET chains and the empty problem — the edge
/// cases where cursor fixed points (zero-length chains opening and
/// closing at one instant) historically differ between drivers.
#[test]
fn structured_and_degenerate_topologies_conform() {
    let platform = Platform::new(4, 4);
    let workloads: Vec<(&str, Workload)> = vec![
        ("chain", topologies::chain(12, 4, Cycles(40), 8)),
        ("fork_join", topologies::fork_join(9, 4, Cycles(30), 5)),
        ("independent", topologies::independent(10, 4, Cycles(25))),
        ("diamond", topologies::diamond(3, 4, 4, Cycles(20), 3)),
        ("zero_wcet_chain", topologies::chain(8, 4, Cycles(0), 2)),
    ];
    for arbiter in arbiters() {
        for (name, w) in &workloads {
            let problem = w.clone().into_problem(&platform).expect("valid workload");
            for mode in MODES {
                assert_conformance(
                    &problem,
                    arbiter.as_ref(),
                    mode,
                    &format!("{name} under {}", arbiter.name()),
                );
            }
        }
    }
}

/// The real-benchmark workload families of the sweep driver: the ROSACE
/// avionics case study and the committed SDF3 fixture, expanded exactly
/// as `mia_cli::sweep::SweepFamily` expands them (layered-cyclic
/// mapping on the MPPA cluster). Every registered arbiter × every
/// interference mode — 28 scenarios — is pinned bit-identically to the
/// `mia-baseline` oracle, so these families are as trustworthy as the
/// synthetic ones.
#[test]
fn sdf_benchmark_families_conform() {
    let fixture = mia_sdf::parse_sdf3(include_str!("../../../examples/fixture.sdf3"))
        .expect("committed fixture parses");
    let scenarios: Vec<(&str, mia_sdf::SdfGraph, u64)> = vec![
        ("rosace", mia_sdf::rosace(), 3),
        ("fixture.sdf3", fixture, 5),
    ];
    for (name, graph, iterations) in &scenarios {
        let expansion = graph.expand(*iterations).expect("benchmark expands");
        let platform = Platform::mppa256_cluster();
        let mapping = mia_mapping::layered_cyclic(&expansion.graph, platform.cores())
            .expect("cyclic mapping fits the cluster");
        let problem =
            Problem::new(expansion.graph, mapping, platform).expect("valid benchmark problem");
        for arbiter in arbiters() {
            for mode in MODES {
                let label = format!("{name} ×{iterations} / {mode:?} under {}", arbiter.name());
                let run = assert_conformance(&problem, arbiter.as_ref(), mode, &label);
                assert!(run.stats.ibus_calls > 0, "{label}: no IBUS calls");
            }
        }
    }
}

/// Resumes from a spread of recorded checkpoints and pins the outcome
/// bit-identical to the full run: same schedule, same work counters, and
/// a resumed event stream that is a strict suffix of the full stream (the
/// prefix's events were already emitted by the recording run). The full
/// run itself is pinned to the `mia-baseline` oracle.
fn assert_resume_conformance(
    problem: &Problem,
    arbiter: &(dyn Arbiter + Send + Sync),
    mode: InterferenceMode,
    label: &str,
) {
    let options = AnalysisOptions::new().interference_mode(mode);
    let mut log = CheckpointLog::new();
    let full = testkit::record(problem, arbiter, &options, &mut log)
        .unwrap_or_else(|e| panic!("{label}: recording run failed: {e}"));
    assert_matches_baseline(problem, arbiter, mode, &full.schedule, label);
    assert!(!log.is_empty(), "{label}: nothing recorded");
    // A spread of re-entry points: the earliest, a mid-run one, the last.
    let picks = [0, log.len() / 2, log.len() - 1];
    for &idx in &picks {
        let ckpt = &log.checkpoints()[idx];
        let step = ckpt.step();
        let resumed = testkit::run_resumed(problem, arbiter, &options, ckpt, &full.schedule)
            .unwrap_or_else(|e| panic!("{label}: resume @{step} failed: {e}"));
        assert_eq!(
            resumed.schedule, full.schedule,
            "{label}: resumed schedule diverged @{step}"
        );
        assert_eq!(
            resumed.stats, full.stats,
            "{label}: resumed work counters diverged @{step}"
        );
        assert!(
            full.events.ends_with(&resumed.events),
            "{label}: resumed events are not a suffix @{step}"
        );
        if step > 0 {
            assert!(
                resumed.events.len() < full.events.len(),
                "{label}: resume @{step} replayed the whole run"
            );
        }
    }
}

/// Delta-resume conformance: runs resumed from recorded checkpoints must
/// replay the suffix bit-exactly, and agree with the baseline engine —
/// for every registered arbiter and interference mode.
#[test]
fn resumed_runs_are_bit_identical_across_engines() {
    for (arb_idx, arbiter) in arbiters().iter().enumerate() {
        for mode in MODES {
            let seed = 9_000 + 31 * arb_idx as u64;
            let problem = workload(Family::FixedLayerSize(8), 56, seed);
            let label = format!("resume / {} / {mode:?} seed={seed}", arbiter.name());
            assert_resume_conformance(&problem, arbiter.as_ref(), mode, &label);
        }
    }
}

/// A random layered workload on a 64-core platform with 16 banks, every
/// core running at least one task.
fn workload_64(family: Family, total: usize, seed: u64) -> Problem {
    let config = LayeredDagConfig {
        cores: 64,
        ..family.config(total, seed)
    };
    let problem = LayeredDag::new(config)
        .generate()
        .into_problem(&Platform::new(64, 16))
        .expect("valid workload");
    let mapping = problem.mapping();
    assert!(
        (16..64).all(|c| !mapping.order(CoreId::from_index(c)).is_empty()),
        "every core outside the cluster tree must run a task"
    );
    problem
}

/// Past the 16-core cluster: `mppa` is the 16-core cluster tree, so on
/// 64 cores the cores 16..63 reach the bank outside it, as victims and as
/// interferers, while `fp` ranks all 64. Both policies are accounted by
/// their interferer groups; full and resumed runs in both interference
/// modes are pinned to the `mia-baseline` oracle.
#[test]
fn tree_and_fixed_priority_conform_on_64_cores() {
    for name in ["mppa", "fp"] {
        let arbiter = mia_arbiter::by_name(name).expect("registered arbiter");
        for (family, total, seed) in [
            (Family::FixedLayerSize(64), 192, 64),
            (Family::FixedLayers(2), 160, 65),
        ] {
            let problem = workload_64(family, total, seed);
            for mode in MODES {
                let label = format!(
                    "64 cores / {name} / {mode:?} / {} n={total} seed={seed}",
                    family.label()
                );
                let run = assert_conformance(&problem, arbiter.as_ref(), mode, &label);
                assert!(run.stats.ibus_calls > 0, "{label}: no IBUS calls");
                assert_resume_conformance(&problem, arbiter.as_ref(), mode, &label);
            }
        }
    }
}

/// An arbiter that declares neither additivity nor interferer groups:
/// the MPPA tree's bound, with the structure hidden.
struct Opaque(mia_arbiter::MppaTree);

impl Arbiter for Opaque {
    fn name(&self) -> &str {
        "opaque-mppa"
    }

    fn bank_interference(
        &self,
        victim: CoreId,
        demand: u64,
        interferers: &[mia_model::arbiter::InterfererDemand],
        access_cycles: Cycles,
    ) -> Cycles {
        self.0
            .bank_interference(victim, demand, interferers, access_cycles)
    }
}

/// The fallback rule, which re-evaluates `IBUS` on a bank's whole merged
/// set after every update: no registered arbiter takes it, so an arbiter
/// that hides its structure drives it. Full and resumed runs in both
/// modes, inside the 16-core cluster and on 64 cores, are pinned to the
/// `mia-baseline` oracle and give the same schedule and work counters as
/// the structured `mppa`.
#[test]
fn arbiters_without_declared_structure_conform() {
    let opaque = Opaque(mia_arbiter::MppaTree::cluster16());
    let mppa = mia_arbiter::by_name("mppa").expect("registered arbiter");
    let problems = [
        ("16 cores", workload(Family::FixedLayerSize(16), 96, 71)),
        ("64 cores", workload_64(Family::FixedLayerSize(64), 192, 72)),
    ];
    for (cores, problem) in &problems {
        for mode in MODES {
            let label = format!("{cores} / opaque mppa / {mode:?}");
            let run = assert_conformance(problem, &opaque, mode, &label);
            let structured = testkit::run(
                problem,
                mppa.as_ref(),
                &AnalysisOptions::new().interference_mode(mode),
            )
            .expect("analysis");
            assert_eq!(run.schedule, structured.schedule, "{label}");
            assert_eq!(run.stats, structured.stats, "{label}");
            assert_resume_conformance(problem, &opaque, mode, &label);
        }
    }
}

/// The tentpole end-to-end check at this layer: change the mapping at a
/// late order position, run [`analyze_delta_with`] against the recorded
/// base run, and pin the result bit-identical to a from-scratch analysis
/// of the changed problem — actually skipping work. An early change must
/// fall back to a full run and still agree.
#[test]
fn delta_reanalysis_matches_from_scratch_after_a_mapping_change() {
    let problem = workload(Family::FixedLayerSize(8), 64, 11);
    let rr = mia_arbiter::by_name("rr").unwrap();
    let options = AnalysisOptions::new();

    let mut log = CheckpointLog::new();
    let base = testkit::record(&problem, rr.as_ref(), &options, &mut log).unwrap();

    // A late local move: swap the last two tasks of the busiest core.
    let mapping = problem.mapping();
    let (core, len) = (0..mapping.cores())
        .map(|c| (c, mapping.order(mia_model::CoreId::from_index(c)).len()))
        .max_by_key(|&(_, len)| len)
        .unwrap();
    assert!(len >= 2, "workload must load the busiest core");
    let mut orders: Vec<Vec<mia_model::TaskId>> = (0..mapping.cores())
        .map(|c| mapping.order(mia_model::CoreId::from_index(c)).to_vec())
        .collect();
    orders[core].swap(len - 2, len - 1);
    let late = Problem::new(
        problem.graph().clone(),
        mia_model::Mapping::from_orders(problem.graph(), orders.clone()).unwrap(),
        problem.platform().clone(),
    )
    .unwrap();
    let changed = [(core, len - 2), (core, len - 1)];
    let (delta, branch, resumed) = analyze_delta_with(
        &late,
        rr.as_ref(),
        &options,
        &mut NoopObserver,
        &log,
        &changed,
        &base.schedule,
    )
    .unwrap();
    assert!(resumed, "a last-position change must resume, not restart");
    assert!(!branch.is_empty());
    let scratch = testkit::run(&late, rr.as_ref(), &options).unwrap();
    assert_eq!(delta.schedule, scratch.schedule);
    assert_eq!(delta.stats, scratch.stats);

    // An order-position-0 move invalidates every checkpoint: the fall
    // back is a full, freshly recorded run with the same answer.
    orders[core].swap(0, 1);
    let early = Problem::new(
        problem.graph().clone(),
        mia_model::Mapping::from_orders(problem.graph(), orders).unwrap(),
        problem.platform().clone(),
    )
    .unwrap();
    let (full, fresh, resumed) = analyze_delta_with(
        &early,
        rr.as_ref(),
        &options,
        &mut NoopObserver,
        &log,
        &[(core, 0), (core, 1)],
        &base.schedule,
    )
    .unwrap();
    assert!(!resumed, "a position-0 change must invalidate the prefix");
    assert!(
        !fresh.is_empty(),
        "the fallback re-records for the next move"
    );
    let scratch = testkit::run(&early, rr.as_ref(), &options).unwrap();
    assert_eq!(full.schedule, scratch.schedule);
    assert_eq!(full.stats, scratch.stats);
}

/// Regression for the `next_finish` contract ("strictly after `t`"): on
/// zero-length chains several tasks open *and* close at one instant, so
/// a stale finish date equal to the cursor must never be returned as the
/// next position. Pins that the cursor strictly advances — the invariant
/// a `debug_assert!` used to carry alone, now guaranteed by construction
/// in release builds too.
#[test]
fn cursor_strictly_advances_through_zero_length_chains() {
    let platform = Platform::new(4, 4);
    let w = topologies::chain(8, 4, Cycles(0), 2);
    let problem = w.into_problem(&platform).expect("valid workload");
    for arbiter in arbiters() {
        for mode in MODES {
            let options = AnalysisOptions::new().interference_mode(mode);
            let run = testkit::run(&problem, arbiter.as_ref(), &options)
                .unwrap_or_else(|e| panic!("{} / {mode:?} failed: {e}", arbiter.name()));
            let cursors: Vec<Cycles> = run
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Cursor(t) => Some(*t),
                    _ => None,
                })
                .collect();
            assert!(
                cursors.windows(2).all(|w| w[0] < w[1]),
                "{} / {mode:?} cursor stalled: {cursors:?}",
                arbiter.name()
            );
        }
    }
}

/// The telemetry contract: flipping the process-global `mia-obs` gate
/// must not change anything observable. Runtime timing lives off
/// `AnalysisStats`, so schedules, work counters and observer streams
/// stay bit-identical with telemetry on and off, in every interference
/// mode.
#[test]
fn telemetry_gate_does_not_change_any_engine_output() {
    let problem = workload(Family::FixedLayerSize(16), 48, 4117);
    let rr = mia_arbiter::by_name("rr").unwrap();
    for mode in MODES {
        let options = AnalysisOptions::new().interference_mode(mode);
        mia_obs::set_enabled(false);
        let off = testkit::run(&problem, rr.as_ref(), &options)
            .unwrap_or_else(|e| panic!("{mode:?} off: {e}"));
        mia_obs::set_enabled(true);
        let on = testkit::run(&problem, rr.as_ref(), &options)
            .unwrap_or_else(|e| panic!("{mode:?} on: {e}"));
        // Drop this round's spans and restore the default gate so the
        // rest of the suite runs on the cheap disabled path.
        mia_obs::set_enabled(false);
        drop(mia_obs::take_spans());
        assert_eq!(on.schedule, off.schedule, "{mode:?}: schedule");
        assert_eq!(on.stats, off.stats, "{mode:?}: stats");
        assert_eq!(on.events, off.events, "{mode:?}: events");
    }
}

/// The empty problem: the analysis and the baseline agree on the empty
/// schedule, with an event stream that holds only the initial cursor.
#[test]
fn empty_problem_conforms() {
    let g = mia_model::TaskGraph::new();
    let m = mia_model::Mapping::from_assignment(&g, &[]).unwrap();
    let problem = Problem::new(g, m, Platform::new(1, 1)).unwrap();
    let rr = mia_arbiter::by_name("rr").unwrap();
    let run = assert_conformance(
        &problem,
        rr.as_ref(),
        InterferenceMode::AggregateByCore,
        "empty problem",
    );
    assert!(run.schedule.is_empty());
    assert_eq!(run.events, vec![Event::Cursor(Cycles::ZERO)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Randomized differential check against the baseline over the full
    /// scenario space: arbiter, interference mode, DAG family, size and
    /// seed are all drawn per case.
    #[test]
    fn engines_agree_on_random_systems(
        seed in 0u64..100_000,
        total in 8usize..120,
        ls in prop::sample::select(vec![2usize, 4, 16, 64]),
        deep in prop::sample::select(vec![false, true]),
        mode_idx in 0usize..MODES.len(),
        arb_idx in 0usize..7,
    ) {
        let family = if deep { Family::FixedLayerSize(ls) } else { Family::FixedLayers(ls) };
        let problem = workload(family, total, seed);
        let arbiter = &arbiters()[arb_idx];
        assert_conformance(
            &problem,
            arbiter.as_ref(),
            MODES[mode_idx],
            &format!("random {} n={total} seed={seed} under {}", family.label(), arbiter.name()),
        );
    }
}
