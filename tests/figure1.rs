//! Experiment E1: exact reproduction of the paper's Figure 1.

use mia::prelude::*;
use mia::trace;

fn figure1() -> (Problem, [TaskId; 5]) {
    let mut g = TaskGraph::new();
    let n0 = g.add_task(Task::builder("n0").wcet(Cycles(2)));
    let n1 = g.add_task(Task::builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
    let n2 = g.add_task(Task::builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
    let n3 = g.add_task(Task::builder("n3").wcet(Cycles(3)));
    let n4 = g.add_task(Task::builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
    for (s, d) in [(n0, n1), (n0, n2), (n1, n2), (n3, n2), (n3, n4)] {
        g.add_edge(s, d, 1).unwrap();
    }
    let mapping = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3]).unwrap();
    let problem = Problem::new(g, mapping, Platform::new(4, 4)).unwrap();
    (problem, [n0, n1, n2, n3, n4])
}

#[test]
fn schedule_without_interference_ends_at_6() {
    let (p, _) = figure1();
    assert_eq!(p.graph().critical_path().unwrap(), Cycles(6));
}

#[test]
fn incremental_schedule_matches_the_figure() {
    let (p, [n0, n1, n2, n3, n4]) = figure1();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    // Global WCRT moves from t = 6 to t = 7.
    assert_eq!(s.makespan(), Cycles(7));
    // Interference boxes of the figure: n0 I:1, n1 I:1, n3 I:2.
    assert_eq!(s.timing(n0).interference, Cycles(1));
    assert_eq!(s.timing(n1).interference, Cycles(1));
    assert_eq!(s.timing(n2).interference, Cycles(0));
    assert_eq!(s.timing(n3).interference, Cycles(2));
    assert_eq!(s.timing(n4).interference, Cycles(0));
    // The resulting time-triggered releases.
    assert_eq!(s.timing(n0).release, Cycles(0));
    assert_eq!(s.timing(n1).release, Cycles(3));
    assert_eq!(s.timing(n2).release, Cycles(6));
    assert_eq!(s.timing(n3).release, Cycles(0));
    assert_eq!(s.timing(n4).release, Cycles(5));
    s.check(&p).unwrap();
}

#[test]
fn baseline_agrees_on_figure1() {
    let (p, _) = figure1();
    let s = mia::baseline::analyze(&p, &RoundRobin::new()).unwrap();
    assert_eq!(s.makespan(), Cycles(7));
    s.check(&p).unwrap();
}

#[test]
fn both_algorithms_compute_identical_timings_here() {
    let (p, _) = figure1();
    let inc = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    let base = mia::baseline::analyze(&p, &RoundRobin::new()).unwrap();
    assert_eq!(inc, base);
}

#[test]
fn gantt_of_figure1_is_renderable() {
    let (p, _) = figure1();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    let chart = trace::gantt(&p, &s);
    for core in ["PE0", "PE1", "PE2", "PE3"] {
        assert!(chart.contains(core));
    }
    // Interference columns are drawn.
    assert!(chart.contains('#'));
}

#[test]
fn single_bank_configuration_increases_contention() {
    // Squeezing all traffic into one bank can only worsen (or equal) the
    // per-core-bank layout of the figure.
    let (p, _) = figure1();
    let per_core = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();

    let mut g = TaskGraph::new();
    let n0 = g.add_task(Task::builder("n0").wcet(Cycles(2)));
    let n1 = g.add_task(Task::builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
    let n2 = g.add_task(Task::builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
    let n3 = g.add_task(Task::builder("n3").wcet(Cycles(3)));
    let n4 = g.add_task(Task::builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
    for (s, d) in [(n0, n1), (n0, n2), (n1, n2), (n3, n2), (n3, n4)] {
        g.add_edge(s, d, 1).unwrap();
    }
    let mapping = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3]).unwrap();
    let single =
        Problem::with_policy(g, mapping, Platform::new(4, 4), BankPolicy::SingleBank).unwrap();
    let s = mia::analysis::analyze(&single, &RoundRobin::new()).unwrap();
    assert!(s.makespan() >= per_core.makespan());
    assert!(s.total_interference() >= per_core.total_interference());
}

/// The schedule JSON `mia analyze --json` writes, pinned byte for byte.
const SCHEDULE_JSON: &str = r#"[
  {
    "task": 0,
    "name": "n0",
    "core": 0,
    "release": 0,
    "wcet": 2,
    "interference": 1,
    "finish": 3
  },
  {
    "task": 1,
    "name": "n1",
    "core": 1,
    "release": 3,
    "wcet": 2,
    "interference": 1,
    "finish": 6
  },
  {
    "task": 2,
    "name": "n2",
    "core": 1,
    "release": 6,
    "wcet": 1,
    "interference": 0,
    "finish": 7
  },
  {
    "task": 3,
    "name": "n3",
    "core": 2,
    "release": 0,
    "wcet": 3,
    "interference": 2,
    "finish": 5
  },
  {
    "task": 4,
    "name": "n4",
    "core": 3,
    "release": 5,
    "wcet": 2,
    "interference": 0,
    "finish": 7
  }
]"#;

#[test]
fn schedule_json_is_pinned() {
    let (p, _) = figure1();
    let s = mia::analysis::analyze(&p, &RoundRobin::new()).unwrap();
    assert_eq!(trace::schedule_json(&p, &s), SCHEDULE_JSON);
}
