//! Experiment E5: the conclusion's ">8000 tasks in reasonable time" claim
//! (§VI), plus structural properties at scale.

use std::time::Instant;

use mia::analysis::{analyze_with, AnalysisOptions, NoopObserver};
use mia::dag_gen::{Family, LayeredDag};
use mia::prelude::*;

#[test]
fn eight_thousand_tasks_analyse_quickly() {
    let workload = LayeredDag::new(Family::FixedLayerSize(64).config(8448, 7)).generate();
    let problem = workload.into_problem(&Platform::mppa256_cluster()).unwrap();
    let t0 = Instant::now();
    let report = analyze_with(
        &problem,
        &RoundRobin::new(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    report.schedule.check(&problem).unwrap();
    // Generous even for debug builds; release runs in well under a second.
    assert!(
        elapsed.as_secs() < 120,
        "8448 tasks took {elapsed:?} — the O(n²) claim is broken"
    );
    assert_eq!(report.schedule.len(), 8448);
}

#[test]
fn alive_set_is_bounded_by_core_count_at_scale() {
    let workload = LayeredDag::new(Family::FixedLayers(64).config(2048, 3)).generate();
    let problem = workload.into_problem(&Platform::mppa256_cluster()).unwrap();
    let report = analyze_with(
        &problem,
        &RoundRobin::new(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .unwrap();
    assert!(report.stats.max_alive <= 16);
    // The cursor visits at most "end dates + minimal release dates" many
    // positions (§IV.B: at most 2n).
    assert!(report.stats.cursor_steps <= 2 * problem.len() + 1);
}

/// Pins the 32k-task run end to end: the makespan is a fixed constant
/// and the analysis stays under the 60 s CI budget.
///
/// Release-only: debug builds skip it (`cargo test --release -- --ignored`
/// or plain `cargo test --release` runs it; CI covers the same 32k size
/// through the sweep smoke step).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run with cargo test --release"
)]
fn thirty_two_thousand_task_makespan_is_pinned() {
    let workload = LayeredDag::new(Family::FixedLayerSize(64).config(32_000, 7)).generate();
    let problem = workload.into_problem(&Platform::mppa256_cluster()).unwrap();
    let t0 = Instant::now();
    let seq = analyze_with(
        &problem,
        &RoundRobin::new(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 60,
        "32k tasks took {elapsed:?} — over the CI budget"
    );
    assert_eq!(seq.schedule.makespan(), Cycles(2_894_642));
    assert_eq!(seq.schedule.len(), 32_000);
}

/// The full 100k smoke point (ROADMAP "Push the scale axis to the full
/// 100k"): the makespan is a fixed constant and the run stays inside
/// the CI budget — 100 000 tasks analyse in well under a second in
/// release on current hardware, so a 120 s ceiling is pure headroom.
///
/// Release-only, like the 32k pin; the CI sweep step covers the same
/// size through `mia-bench --bin sweep --sizes ...,100000`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run with cargo test --release"
)]
fn one_hundred_thousand_task_makespan_is_pinned() {
    let workload = LayeredDag::new(Family::FixedLayerSize(64).config(100_000, 7)).generate();
    let problem = workload.into_problem(&Platform::mppa256_cluster()).unwrap();
    let t0 = Instant::now();
    let report = analyze_with(
        &problem,
        &RoundRobin::new(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 120,
        "100k tasks took {elapsed:?} — over the CI budget"
    );
    assert_eq!(report.schedule.makespan(), Cycles(9_056_829));
    assert_eq!(report.schedule.len(), 100_000);
    assert!(report.stats.max_alive <= 16);
    assert!(report.stats.cursor_steps <= 2 * problem.len() + 1);
}

/// The million-task pin (ROADMAP "Raise the scale axis to 1M"): the
/// makespan is a fixed constant and the run stays inside a generous CI
/// budget.
///
/// Release-only, like the 32k/100k pins; CI runs it in the dedicated
/// `scale` job.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run with cargo test --release"
)]
fn one_million_task_makespan_is_pinned() {
    let workload = LayeredDag::new(Family::FixedLayerSize(64).config(1_000_000, 7)).generate();
    let problem = workload.into_problem(&Platform::mppa256_cluster()).unwrap();
    let t0 = Instant::now();
    let seq = analyze_with(
        &problem,
        &RoundRobin::new(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 300,
        "1M tasks took {elapsed:?} — over the CI budget"
    );
    assert_eq!(seq.schedule.makespan(), Cycles(90_817_068));
    assert_eq!(seq.schedule.len(), 1_000_000);
    assert!(seq.stats.max_alive <= 16);
    assert!(seq.stats.cursor_steps <= 2 * problem.len() + 1);
}

#[test]
fn makespan_grows_with_task_count_within_a_family() {
    let platform = Platform::mppa256_cluster();
    let mut last = Cycles::ZERO;
    for n in [128usize, 512, 2048] {
        let p = LayeredDag::new(Family::FixedLayerSize(64).config(n, 11))
            .generate()
            .into_problem(&platform)
            .unwrap();
        let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
        assert!(s.makespan() > last);
        last = s.makespan();
    }
}
