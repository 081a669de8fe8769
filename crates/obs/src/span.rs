//! Span timing: RAII phase guards buffered per thread.
//!
//! A [`span!`] guard stamps its start on construction and records a
//! [`SpanRecord`] on drop — but only when the global gate is on, so an
//! un-profiled run pays one relaxed load + branch per site. Records go
//! into a per-thread buffer (one uncontended mutex per thread, shared
//! only with the drain) registered in a process-wide list; pool worker
//! threads never have to cooperate in a flush, [`take_spans`] drains
//! every live buffer. Timestamps are nanoseconds on a single monotonic
//! clock (the first use pins the epoch), thread ids are small integers
//! assigned in first-use order — exactly what the Chrome trace-event
//! exporter in `mia_trace` wants for `ts`/`tid`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Per-thread span cap: a runaway profiled run drops spans (counted in
/// [`spans_dropped`]) instead of growing without bound.
pub const MAX_SPANS_PER_THREAD: usize = 1 << 18;

/// Records kept free of per-step spans in every thread's buffer:
/// [`record_step_span`] stops at `MAX_SPANS_PER_THREAD − STEP_SPAN_RESERVE`,
/// so the few run-level spans that close after a long run (the run
/// itself, the render) still fit.
pub const STEP_SPAN_RESERVE: usize = 4096;

/// One completed timed phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Phase name (`analysis.close_open`, `serve.queue_wait`, …).
    pub name: String,
    /// Small-integer id of the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the process-wide monotonic epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Nanoseconds since the process-wide monotonic epoch (pinned on first
/// use, so all spans share one timeline).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// This thread's small-integer id (assigned in first-use order).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: Cell<Option<u64>> = const { Cell::new(None) };
    }
    TID.with(|tid| {
        if let Some(id) = tid.get() {
            return id;
        }
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        tid.set(Some(id));
        id
    })
}

/// One thread's span buffer, shared between that thread and the drain.
type SharedBuffer = Arc<Mutex<Vec<SpanRecord>>>;

/// All per-thread buffers, so the drain can reach threads that are
/// still alive (pool workers park between phases and never exit).
fn buffers() -> &'static Mutex<Vec<SharedBuffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<SharedBuffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Pushes `record` into this thread's buffer unless it already holds
/// `limit` records, in which case the drop is counted.
fn push_record(record: SpanRecord, limit: usize) {
    thread_local! {
        static BUF: OnceLock<SharedBuffer> = const { OnceLock::new() };
    }
    BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            buffers()
                .lock()
                .expect("span buffers")
                .push(Arc::clone(&buf));
            buf
        });
        let mut records = buf.lock().expect("span buffer");
        if records.len() >= limit {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            records.push(record);
        }
    });
}

/// Records a completed span retroactively (for phases whose duration is
/// only known after the fact, like a queue wait measured at dequeue).
/// No-op while the global gate is off.
pub fn record_span(name: &str, start_ns: u64, dur_ns: u64) {
    record_limited(name, start_ns, dur_ns, MAX_SPANS_PER_THREAD);
}

/// [`record_span`] for a phase that repeats once per analysis step (the
/// cursor's close/open, account and advance, a pool handoff): recorded
/// only while the buffer has more than [`STEP_SPAN_RESERVE`] records
/// free, so a long run cannot crowd out its own run-level spans. Drops
/// are counted in [`spans_dropped`] like any other.
pub fn record_step_span(name: &str, start_ns: u64, dur_ns: u64) {
    record_limited(
        name,
        start_ns,
        dur_ns,
        MAX_SPANS_PER_THREAD - STEP_SPAN_RESERVE,
    );
}

fn record_limited(name: &str, start_ns: u64, dur_ns: u64, limit: usize) {
    if !crate::enabled() {
        return;
    }
    let record = SpanRecord {
        name: name.to_owned(),
        tid: thread_id(),
        start_ns,
        dur_ns,
    };
    push_record(record, limit);
}

/// Drains every thread's buffered spans, sorted by start time. Spans
/// recorded concurrently with the drain land in the next drain.
pub fn take_spans() -> Vec<SpanRecord> {
    let buffers = buffers().lock().expect("span buffers");
    let mut all = Vec::new();
    for buf in buffers.iter() {
        all.append(&mut buf.lock().expect("span buffer"));
    }
    all.sort_by_key(|s| (s.start_ns, s.tid));
    all
}

/// Spans dropped since the process started because a thread hit its
/// buffer cap ([`MAX_SPANS_PER_THREAD`]). Never reset: subtract an earlier
/// reading to count the drops of one run.
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// An in-flight timed phase; records its [`SpanRecord`] on drop.
///
/// Construct through [`span()`] or the [`span!`] macro. When the global
/// gate is off the guard is inert (no clock reads, nothing recorded).
#[must_use = "a span guard times until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    /// Start timestamp; `None` when the gate was off at construction.
    start_ns: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            let dur_ns = now_ns().saturating_sub(start_ns);
            let record = SpanRecord {
                name: self.name.to_owned(),
                tid: thread_id(),
                start_ns,
                dur_ns,
            };
            push_record(record, MAX_SPANS_PER_THREAD);
        }
    }
}

/// Starts timing a phase; the returned guard records on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start_ns: crate::enabled().then(now_ns),
    }
}

/// `span!("phase_name")` — starts an RAII phase timer; the span is
/// recorded when the guard leaves scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_while_enabled() {
        let _serial = crate::test_gate_lock();
        crate::set_enabled(false);
        {
            let _off = span("test.off");
        }
        crate::set_enabled(true);
        {
            let _on = span("test.on");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        record_span("test.retro", now_ns(), 5);
        crate::set_enabled(false);
        let spans = take_spans();
        assert!(spans.iter().all(|s| s.name != "test.off"), "{spans:?}");
        let on = spans.iter().find(|s| s.name == "test.on").expect("on span");
        assert!(on.dur_ns >= 1_000_000, "{on:?}");
        assert!(spans.iter().any(|s| s.name == "test.retro"));
        // Drained means gone.
        assert!(take_spans().iter().all(|s| !s.name.starts_with("test.")));
    }

    #[test]
    fn spans_from_other_threads_are_drained_without_cooperation() {
        let _serial = crate::test_gate_lock();
        crate::set_enabled(true);
        let main_tid = thread_id();
        std::thread::spawn(|| {
            let _s = span!("test.worker");
        })
        .join()
        .expect("worker");
        // A second thread that records and then *stays alive* briefly —
        // its buffer must still be drainable.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let alive = std::thread::spawn(move || {
            record_span("test.alive", now_ns(), 1);
            rx.recv().ok();
        });
        // Wait until the live thread's span is visible to the drain.
        let mut spans = Vec::new();
        for _ in 0..1000 {
            spans.extend(take_spans());
            if spans.iter().any(|s| s.name == "test.alive") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::set_enabled(false);
        tx.send(()).ok();
        alive.join().expect("alive thread");
        let worker = spans
            .iter()
            .find(|s| s.name == "test.worker")
            .expect("worker span");
        assert_ne!(worker.tid, main_tid);
        assert!(spans.iter().any(|s| s.name == "test.alive"));
    }

    #[test]
    fn step_spans_leave_room_for_run_level_spans() {
        let _serial = crate::test_gate_lock();
        crate::set_enabled(true);
        // A fresh thread has a fresh buffer, so the fill does not depend
        // on what other tests left behind.
        let spans = std::thread::spawn(|| {
            let tid = thread_id();
            let dropped_before = spans_dropped();
            let started = now_ns();
            {
                let _run = span("test.run_level");
                for _ in 0..MAX_SPANS_PER_THREAD {
                    record_step_span("test.step", now_ns(), 1);
                }
            }
            record_span("test.retro_run_level", started, 1);
            let dropped = spans_dropped() - dropped_before;
            // The drain also empties other threads' buffers; keep only ours.
            let mine: Vec<SpanRecord> = take_spans().into_iter().filter(|s| s.tid == tid).collect();
            (mine, dropped)
        })
        .join()
        .expect("filler thread");
        crate::set_enabled(false);
        let (spans, dropped) = spans;
        let steps = spans.iter().filter(|s| s.name == "test.step").count();
        assert_eq!(steps, MAX_SPANS_PER_THREAD - STEP_SPAN_RESERVE);
        assert!(dropped >= STEP_SPAN_RESERVE as u64, "dropped {dropped}");
        assert!(spans.iter().any(|s| s.name == "test.run_level"));
        assert!(spans.iter().any(|s| s.name == "test.retro_run_level"));
    }

    #[test]
    fn timestamps_are_monotonic_and_tids_stable() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert_eq!(thread_id(), thread_id());
    }
}
