//! Chrome-tracing (`about:tracing` / Perfetto) export.
//!
//! The Trace Event Format is the lingua franca of timeline viewers: a JSON
//! array of complete (`"ph": "X"`) events with microsecond timestamps.
//! We map one simulated/analysed cycle to one microsecond, cores to
//! Chrome *threads* and the schedule to one *process*, so a schedule drops
//! straight into `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Two timelines share the format: the *schedule* (cycles, pid 0) and
//! the analyzer's own *runtime* ([`mia_obs`] spans, wall-clock
//! nanoseconds rendered as fractional microseconds, pid 1) — so a
//! profiled run opens with the produced schedule and the time spent
//! producing it side by side.

use mia_model::{Problem, Schedule};
use mia_obs::SpanRecord;
use serde::Serialize;

#[derive(Serialize)]
struct TraceEvent<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    ts: u64,
    dur: u64,
    pid: u32,
    tid: u32,
    args: TraceArgs,
}

#[derive(Serialize)]
struct TraceArgs {
    wcet: u64,
    interference: u64,
    release: u64,
}

/// Renders an analysed schedule as Chrome Trace Event JSON.
///
/// Each task becomes a complete event on its core's row, spanning its
/// analysed window `[release, release + WCET + interference]`; the
/// interference split is attached as event arguments so the viewer's
/// detail pane shows the decomposition.
///
/// # Example
///
/// ```
/// use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
/// use mia_trace::to_chrome_trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut g = TaskGraph::new();
/// # let _ = g.add_task(Task::builder("a").wcet(Cycles(10)));
/// # let m = Mapping::from_assignment(&g, &[0])?;
/// # let p = Problem::new(g, m, Platform::new(1, 1))?;
/// # let s = mia_model::Schedule::from_timings(vec![mia_model::TaskTiming {
/// #     release: Cycles::ZERO, wcet: Cycles(10), interference: Cycles::ZERO }]);
/// let json = to_chrome_trace(&p, &s);
/// assert!(json.contains("\"ph\":\"X\""));
/// # Ok(())
/// # }
/// ```
pub fn to_chrome_trace(problem: &Problem, schedule: &Schedule) -> String {
    let mut parts = Vec::new();
    push_schedule_events(&mut parts, problem, schedule);
    join_events(parts)
}

/// The Chrome process id the schedule timeline renders under.
const SCHEDULE_PID: u32 = 0;
/// The Chrome process id the analyzer-runtime timeline renders under.
const RUNTIME_PID: u32 = 1;

#[derive(Serialize)]
struct MetaArgs<'a> {
    name: &'a str,
}

#[derive(Serialize)]
struct MetaEvent<'a> {
    name: &'a str,
    ph: &'a str,
    pid: u32,
    tid: u64,
    args: MetaArgs<'a>,
}

#[derive(Serialize)]
struct DroppedArgs {
    spans_dropped: u64,
    max_spans_per_thread: usize,
}

/// Metadata event saying the runtime timeline is incomplete.
#[derive(Serialize)]
struct DroppedEvent<'a> {
    name: &'a str,
    ph: &'a str,
    pid: u32,
    tid: u64,
    args: DroppedArgs,
}

#[derive(Serialize)]
struct SpanEvent<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    /// Fractional microseconds: span clocks are nanosecond-resolution
    /// and phases can be far shorter than 1 µs.
    ts: f64,
    dur: f64,
    pid: u32,
    tid: u64,
}

fn join_events(parts: Vec<String>) -> String {
    let mut out = String::from("[");
    out.push_str(&parts.join(","));
    out.push(']');
    out
}

fn push_schedule_events(parts: &mut Vec<String>, problem: &Problem, schedule: &Schedule) {
    let mapping = problem.mapping();
    for (id, task) in problem.graph().iter() {
        let t = schedule.timing(id);
        let event = TraceEvent {
            name: task.name(),
            cat: "task",
            ph: "X",
            ts: t.release.as_u64(),
            dur: t.response_time().as_u64(),
            pid: SCHEDULE_PID,
            tid: mapping.core_of(id).0,
            args: TraceArgs {
                wcet: t.wcet.as_u64(),
                interference: t.interference.as_u64(),
                release: t.release.as_u64(),
            },
        };
        parts.push(serde_json::to_string(&event).expect("trace event serializes"));
    }
}

#[allow(clippy::cast_precision_loss)]
fn push_span_events(parts: &mut Vec<String>, spans: &[SpanRecord], dropped: u64) {
    parts.push(
        serde_json::to_string(&MetaEvent {
            name: "process_name",
            ph: "M",
            pid: RUNTIME_PID,
            tid: 0,
            args: MetaArgs {
                name: "mia runtime",
            },
        })
        .expect("meta event serializes"),
    );
    if dropped > 0 {
        parts.push(
            serde_json::to_string(&DroppedEvent {
                name: "spans_dropped",
                ph: "M",
                pid: RUNTIME_PID,
                tid: 0,
                args: DroppedArgs {
                    spans_dropped: dropped,
                    max_spans_per_thread: mia_obs::MAX_SPANS_PER_THREAD,
                },
            })
            .expect("meta event serializes"),
        );
    }
    for span in spans {
        let event = SpanEvent {
            name: &span.name,
            cat: "runtime",
            ph: "X",
            ts: span.start_ns as f64 / 1e3,
            dur: span.dur_ns as f64 / 1e3,
            pid: RUNTIME_PID,
            tid: span.tid,
        };
        parts.push(serde_json::to_string(&event).expect("span event serializes"));
    }
}

/// Renders analyzer-runtime spans (from [`mia_obs::take_spans`]) as
/// Chrome Trace Event JSON: one complete event per span on its
/// recording thread's row, timestamps in fractional microseconds.
///
/// `dropped` is the number of spans the recording run lost to the
/// per-thread cap ([`mia_obs::MAX_SPANS_PER_THREAD`]); when non-zero, a
/// `spans_dropped` metadata event carries it and the cap, so the trace
/// says it is incomplete.
pub fn spans_to_chrome_trace(spans: &[SpanRecord], dropped: u64) -> String {
    let mut parts = Vec::new();
    push_span_events(&mut parts, spans, dropped);
    join_events(parts)
}

/// Renders a schedule and the runtime spans that produced it in one
/// trace: the schedule under process 0 (cycles as microseconds), the
/// analyzer runtime under process 1 (wall-clock microseconds), so
/// `chrome://tracing` / Perfetto shows both timelines stacked.
/// `dropped` is as in [`spans_to_chrome_trace`].
pub fn to_chrome_trace_with_runtime(
    problem: &Problem,
    schedule: &Schedule,
    spans: &[SpanRecord],
    dropped: u64,
) -> String {
    let mut parts = Vec::new();
    parts.push(
        serde_json::to_string(&MetaEvent {
            name: "process_name",
            ph: "M",
            pid: SCHEDULE_PID,
            tid: 0,
            args: MetaArgs {
                name: "schedule (cycles as \u{b5}s)",
            },
        })
        .expect("meta event serializes"),
    );
    push_schedule_events(&mut parts, problem, schedule);
    push_span_events(&mut parts, spans, dropped);
    join_events(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{Cycles, Mapping, Platform, Task, TaskGraph, TaskTiming};

    #[test]
    fn events_cover_every_task_with_core_rows() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("alpha").wcet(Cycles(5)));
        let b = g.add_task(Task::builder("beta").wcet(Cycles(7)));
        g.add_edge(a, b, 1).unwrap();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        let s = Schedule::from_timings(vec![
            TaskTiming {
                release: Cycles(0),
                wcet: Cycles(5),
                interference: Cycles(2),
            },
            TaskTiming {
                release: Cycles(7),
                wcet: Cycles(7),
                interference: Cycles(0),
            },
        ]);
        let json = to_chrome_trace(&p, &s);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["name"], "alpha");
        assert_eq!(events[0]["dur"], 7);
        assert_eq!(events[0]["tid"], 0);
        assert_eq!(events[1]["tid"], 1);
        assert_eq!(events[1]["ts"], 7);
        assert_eq!(events[0]["args"]["interference"], 2);
    }

    #[test]
    fn runtime_spans_render_under_their_own_process() {
        let spans = vec![
            SpanRecord {
                name: "analysis.run".to_owned(),
                tid: 0,
                start_ns: 1500,
                dur_ns: 2_000_000,
            },
            SpanRecord {
                name: "parallel.worker_wait".to_owned(),
                tid: 3,
                start_ns: 2000,
                dur_ns: 250,
            },
        ];
        let json = spans_to_chrome_trace(&spans, 0);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        // Metadata event first, then one complete event per span.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[1]["name"], "analysis.run");
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["pid"], 1);
        assert_eq!(events[1]["ts"], 1.5);
        assert_eq!(events[1]["dur"], 2000.0);
        assert_eq!(events[2]["tid"], 3);
        assert_eq!(events[2]["dur"], 0.25);
    }

    #[test]
    fn dropped_spans_are_named_in_the_metadata() {
        let parsed: serde_json::Value =
            serde_json::from_str(&spans_to_chrome_trace(&[], 7)).unwrap();
        let events = parsed.as_array().unwrap();
        let dropped = events
            .iter()
            .find(|e| e["name"] == "spans_dropped")
            .expect("spans_dropped metadata event");
        assert_eq!(dropped["ph"], "M");
        assert_eq!(dropped["args"]["spans_dropped"], 7);
        assert_eq!(
            dropped["args"]["max_spans_per_thread"],
            mia_obs::MAX_SPANS_PER_THREAD
        );
    }

    #[test]
    fn combined_export_stacks_schedule_and_runtime() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(Task::builder("alpha").wcet(Cycles(5)));
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = Schedule::from_timings(vec![TaskTiming {
            release: Cycles(0),
            wcet: Cycles(5),
            interference: Cycles(0),
        }]);
        let spans = vec![SpanRecord {
            name: "analysis.advance".to_owned(),
            tid: 0,
            start_ns: 0,
            dur_ns: 10,
        }];
        let json = to_chrome_trace_with_runtime(&p, &s, &spans, 0);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        let pids: Vec<_> = events
            .iter()
            .filter(|e| e["ph"] == "X")
            .map(|e| e["pid"].clone())
            .collect();
        assert!(pids.iter().any(|p| *p == 0), "{json}");
        assert!(pids.iter().any(|p| *p == 1), "{json}");
        // Both process rows are named for the viewer.
        let metas = events.iter().filter(|e| e["ph"] == "M").count();
        assert_eq!(metas, 2);
    }

    #[test]
    fn empty_schedule_is_an_empty_array() {
        let g = TaskGraph::new();
        let m = Mapping::from_assignment(&g, &[]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = Schedule::from_timings(vec![]);
        assert_eq!(to_chrome_trace(&p, &s), "[]");
    }
}
