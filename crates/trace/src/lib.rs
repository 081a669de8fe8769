//! Schedule visualisation and export.
//!
//! Renders the artefacts the paper presents as figures:
//!
//! * [`gantt`] — ASCII timing diagrams like Figure 1's schedules (one row
//!   per core, interference marked),
//! * [`CursorTrace`] — an [`mia_core::Observer`] recording the
//!   incremental algorithm's cursor mechanism, with
//!   [`CursorTrace::snapshot`] reproducing Figure 2's closed/alive/future
//!   partition at any instant,
//! * [`to_dot`] — Graphviz export of task graphs (Figure 1's DAG),
//! * [`schedule_json`] / [`report_json`] — machine-readable results for
//!   external plotting.
//!
//! # Example
//!
//! ```
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//! use mia_model::{Schedule, TaskTiming};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(4)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(3)));
//! g.add_edge(a, b, 1)?;
//! let m = Mapping::from_assignment(&g, &[0, 1])?;
//! let p = Problem::new(g, m, Platform::new(2, 2))?;
//! let s = Schedule::from_timings(vec![
//!     TaskTiming { release: Cycles(0), wcet: Cycles(4), interference: Cycles(0) },
//!     TaskTiming { release: Cycles(4), wcet: Cycles(3), interference: Cycles(1) },
//! ]);
//! let chart = mia_trace::gantt(&p, &s);
//! assert!(chart.contains("PE0"));
//! assert!(chart.contains("a"));
//! # Ok(())
//! # }
//! ```

mod chrome;

pub use chrome::{spans_to_chrome_trace, to_chrome_trace, to_chrome_trace_with_runtime};

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mia_core::Observer;
use mia_model::{BankId, CoreId, Cycles, Problem, Schedule, TaskGraph, TaskId};
use serde::Serialize;

/// Renders an ASCII Gantt chart of a schedule: one row per core, one
/// column per time unit (scaled down for long schedules). Task bodies are
/// drawn with their name's first letters; interference cycles extend the
/// box with `#` marks, like the grey `I:` boxes of the paper's Figure 1.
pub fn gantt(problem: &Problem, schedule: &Schedule) -> String {
    const MAX_WIDTH: usize = 100;
    let makespan = schedule.makespan().as_u64().max(1);
    // Cycles per character column.
    let scale = makespan.div_ceil(MAX_WIDTH as u64).max(1);
    let columns = (makespan / scale) as usize + 1;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "time: 0 .. {} ({} cycle(s) per column)",
        schedule.makespan(),
        scale
    );
    for (core, order) in problem.mapping().iter() {
        let mut row = vec![b' '; columns];
        for &task in order {
            let t = schedule.timing(task);
            let name = problem.graph().task(task).name();
            let start = (t.release.as_u64() / scale) as usize;
            let wcet_end = ((t.release + t.wcet).as_u64() / scale) as usize;
            let finish = (t.finish().as_u64() / scale) as usize;
            for (i, slot) in row
                .iter_mut()
                .enumerate()
                .take(finish.min(columns - 1) + 1)
                .skip(start)
            {
                *slot = if i <= wcet_end { b'=' } else { b'#' };
            }
            // Stamp the task name at the start of its box.
            for (k, ch) in name.bytes().enumerate() {
                let pos = start + k;
                if pos < columns && pos <= finish {
                    row[pos] = ch;
                }
            }
        }
        let _ = writeln!(out, "{core:>4} |{}|", String::from_utf8_lossy(&row));
    }
    out
}

/// The Figure 2 partition of tasks around a cursor position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The cursor position the snapshot refers to.
    pub at: Cycles,
    /// Tasks whose finish date is ≤ cursor ("dead"/dotted on the left).
    pub closed: Vec<TaskId>,
    /// Tasks open at the cursor (solid boxes).
    pub alive: Vec<TaskId>,
    /// Tasks not yet released (dotted on the right).
    pub future: Vec<TaskId>,
}

/// An [`Observer`] recording every event of an incremental-analysis run;
/// supports replaying the cursor mechanism afterwards.
#[derive(Debug, Clone, Default)]
pub struct CursorTrace {
    /// Cursor positions in visit order.
    pub cursors: Vec<Cycles>,
    /// (task, core, time) for every opening.
    pub opens: Vec<(TaskId, CoreId, Cycles)>,
    /// (task, core, time) for every closing.
    pub closes: Vec<(TaskId, CoreId, Cycles)>,
    /// (task, bank, running total) for every interference update.
    pub interference_updates: Vec<(TaskId, BankId, Cycles)>,
    n_tasks: usize,
}

impl CursorTrace {
    /// Creates an empty trace for a problem of `n_tasks` tasks.
    pub fn new(n_tasks: usize) -> Self {
        CursorTrace {
            n_tasks,
            ..CursorTrace::default()
        }
    }

    /// Reconstructs the closed/alive/future partition right after the
    /// cursor step at `at` (Figure 2 of the paper).
    pub fn snapshot(&self, at: Cycles) -> Snapshot {
        let mut opened: BTreeMap<TaskId, Cycles> = BTreeMap::new();
        let mut closed_set: BTreeMap<TaskId, Cycles> = BTreeMap::new();
        for &(task, _, t) in &self.opens {
            if t <= at {
                opened.insert(task, t);
            }
        }
        for &(task, _, t) in &self.closes {
            if t <= at {
                closed_set.insert(task, t);
            }
        }
        let closed: Vec<TaskId> = closed_set.keys().copied().collect();
        let alive: Vec<TaskId> = opened
            .keys()
            .filter(|t| !closed_set.contains_key(t))
            .copied()
            .collect();
        let future: Vec<TaskId> = (0..self.n_tasks)
            .map(TaskId::from_index)
            .filter(|t| !opened.contains_key(t))
            .collect();
        Snapshot {
            at,
            closed,
            alive,
            future,
        }
    }

    /// Renders the sequence of snapshots (one per cursor position) in a
    /// compact textual form.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for &t in &self.cursors {
            let s = self.snapshot(t);
            let fmt = |v: &[TaskId]| {
                v.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                out,
                "t={:<8} closed=[{}] alive=[{}] future=[{}]",
                t.to_string(),
                fmt(&s.closed),
                fmt(&s.alive),
                fmt(&s.future)
            );
        }
        out
    }
}

impl Observer for CursorTrace {
    fn on_cursor(&mut self, t: Cycles) {
        self.cursors.push(t);
    }

    fn on_open(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.opens.push((task, core, t));
    }

    fn on_close(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        self.closes.push((task, core, t));
    }

    fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
        self.interference_updates.push((task, bank, total));
    }
}

/// Exports a task graph in Graphviz DOT format; edges carry their word
/// counts, nodes their WCET and minimal release date.
pub fn to_dot(graph: &TaskGraph) -> String {
    let mut out = String::from("digraph tasks {\n  rankdir=TB;\n  node [shape=circle];\n");
    for (id, task) in graph.iter() {
        let mut label = format!("{}\\nC={}", task.name(), task.wcet());
        if task.min_release() > Cycles::ZERO {
            let _ = write!(label, "\\nrel≥{}", task.min_release());
        }
        let _ = writeln!(out, "  {} [label=\"{}\"];", id.index(), label);
    }
    for e in graph.edges() {
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{}\"];",
            e.src.index(),
            e.dst.index(),
            e.words
        );
    }
    out.push_str("}\n");
    out
}

#[derive(Serialize)]
struct TimingRow {
    task: u32,
    name: String,
    core: u32,
    release: u64,
    wcet: u64,
    interference: u64,
    finish: u64,
}

/// Serializes a schedule (with task names and cores) to pretty JSON.
///
/// # Panics
///
/// Panics if the schedule does not cover the problem (callers should pass
/// the schedule computed for that problem).
pub fn schedule_json(problem: &Problem, schedule: &Schedule) -> String {
    assert_eq!(schedule.len(), problem.len(), "schedule must cover problem");
    let rows: Vec<TimingRow> = problem
        .graph()
        .iter()
        .map(|(id, task)| {
            let t = schedule.timing(id);
            TimingRow {
                task: id.0,
                name: task.name().to_owned(),
                core: problem.mapping().core_of(id).0,
                release: t.release.as_u64(),
                wcet: t.wcet.as_u64(),
                interference: t.interference.as_u64(),
                finish: t.finish().as_u64(),
            }
        })
        .collect();
    serde_json::to_string_pretty(&rows).expect("rows serialize")
}

/// Serializes an arbitrary serde-serializable report to pretty JSON.
pub fn report_json<T: Serialize>(report: &T) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// A one-line-per-task textual table of a schedule (markdown).
pub fn schedule_table(problem: &Problem, schedule: &Schedule) -> String {
    let mut out = String::from("| task | core | release | wcet | interference | finish |\n");
    out.push_str("|------|------|---------|------|--------------|--------|\n");
    for (id, task) in problem.graph().iter() {
        let t = schedule.timing(id);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            task.name(),
            problem.mapping().core_of(id),
            t.release.as_u64(),
            t.wcet.as_u64(),
            t.interference.as_u64(),
            t.finish().as_u64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{Mapping, Platform, Task, TaskTiming};

    fn figure1_like() -> (Problem, Schedule) {
        let mut g = TaskGraph::new();
        let _a = g.add_task(Task::builder("a").wcet(Cycles(2)));
        let _b = g.add_task(Task::builder("b").wcet(Cycles(3)).min_release(Cycles(1)));
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let s = Schedule::from_timings(vec![
            TaskTiming {
                release: Cycles(0),
                wcet: Cycles(2),
                interference: Cycles(1),
            },
            TaskTiming {
                release: Cycles(1),
                wcet: Cycles(3),
                interference: Cycles(0),
            },
        ]);
        (p, s)
    }

    #[test]
    fn gantt_contains_cores_and_names() {
        let (p, s) = figure1_like();
        let chart = gantt(&p, &s);
        assert!(chart.contains("PE0"));
        assert!(chart.contains("PE1"));
        assert!(chart.contains('a'));
        assert!(chart.contains('b'));
        assert!(chart.contains('#'), "interference must be marked: {chart}");
    }

    #[test]
    fn gantt_scales_long_schedules() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(Task::builder("long").wcet(Cycles(100_000)));
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = Schedule::from_timings(vec![TaskTiming {
            release: Cycles(0),
            wcet: Cycles(100_000),
            interference: Cycles(0),
        }]);
        let chart = gantt(&p, &s);
        // No line longer than ~120 characters.
        assert!(chart.lines().all(|l| l.len() < 130), "{chart}");
    }

    #[test]
    fn dot_export_mentions_every_task_and_edge() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("src").wcet(Cycles(1)));
        let b = g.add_task(Task::builder("dst").wcet(Cycles(1)).min_release(Cycles(4)));
        g.add_edge(a, b, 7).unwrap();
        let dot = to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("src"));
        assert!(dot.contains("rel≥4cy"));
        assert!(dot.contains("0 -> 1 [label=\"7\"]"));
    }

    #[test]
    fn cursor_trace_snapshot_partitions() {
        let mut trace = CursorTrace::new(3);
        trace.on_cursor(Cycles(0));
        trace.on_open(TaskId(0), CoreId(0), Cycles(0));
        trace.on_cursor(Cycles(5));
        trace.on_close(TaskId(0), CoreId(0), Cycles(5));
        trace.on_open(TaskId(1), CoreId(0), Cycles(5));
        let snap = trace.snapshot(Cycles(5));
        assert_eq!(snap.closed, vec![TaskId(0)]);
        assert_eq!(snap.alive, vec![TaskId(1)]);
        assert_eq!(snap.future, vec![TaskId(2)]);
        // Before anything happened, everything is future.
        let early = trace.snapshot(Cycles(0)).closed;
        assert!(early.is_empty());
    }

    #[test]
    fn timeline_renders_every_cursor() {
        let mut trace = CursorTrace::new(1);
        trace.on_cursor(Cycles(0));
        trace.on_open(TaskId(0), CoreId(0), Cycles(0));
        trace.on_cursor(Cycles(9));
        trace.on_close(TaskId(0), CoreId(0), Cycles(9));
        let text = trace.render_timeline();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("alive=[n0]"));
        assert!(text.contains("closed=[n0]"));
    }

    #[test]
    fn schedule_json_round_trips() {
        let (p, s) = figure1_like();
        let json = schedule_json(&p, &s);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 2);
        assert_eq!(parsed[0]["name"], "a");
        assert_eq!(parsed[0]["interference"], 1);
    }

    #[test]
    fn schedule_table_has_a_row_per_task() {
        let (p, s) = figure1_like();
        let table = schedule_table(&p, &s);
        assert_eq!(table.lines().count(), 4); // header + separator + 2 rows
    }
}
