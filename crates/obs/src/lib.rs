//! Runtime telemetry for the analyzer itself: metric registry + spans.
//!
//! The paper's pitch is scale, and every perf PR needs to see where the
//! cycles go. This crate is the stdlib-only instrumentation layer the
//! rest of the workspace records into:
//!
//! * [`Registry`] — named atomic [`Counter`]s, [`Gauge`]s and fixed
//!   log2-bucket latency [`Histogram`]s (p50/p90/p99/max derivable from
//!   the buckets). Snapshots serialize to JSON for the `mia serve`
//!   `metrics` method and the bench artefacts.
//! * [`span!`] — RAII phase timing with explicit thread ids and a
//!   monotonic clock, buffered per thread and drained with
//!   [`take_spans`] into Chrome trace-event JSON (`mia_trace`).
//!
//! # The enable-gate contract
//!
//! All *global* telemetry (the process registry, spans) sits behind a
//! single relaxed [`AtomicBool`]: the disabled path of every
//! instrumentation site is one load + one branch, so the analysis hot
//! loops stay unperturbed when nobody is profiling. Telemetry is
//! execution-side data in the sense of `mia_core`'s `ParallelInfo`: it
//! lives OFF `AnalysisStats` and off every compared report, so
//! conformance bit-identity holds with the gate on or off.
//!
//! Instantiated [`Registry`] values (the serve daemon owns one per
//! server) are *not* gated — a daemon's request histograms are part of
//! its service surface and always collected.

mod metrics;
mod span;

pub use metrics::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, NamedCounter, NamedHistogram,
    Registry, RegistrySnapshot,
};
pub use span::{
    now_ns, record_span, record_step_span, span, spans_dropped, take_spans, thread_id, SpanRecord,
    MAX_SPANS_PER_THREAD, STEP_SPAN_RESERVE,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide enable gate. Relaxed ordering is deliberate: the
/// gate only decides whether telemetry is *recorded*, never what the
/// analysis computes, so no site needs ordering guarantees from it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when global telemetry collection is on.
///
/// Instrumentation sites call this first and skip all recording work
/// when it is off — one relaxed load + one branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global telemetry collection on or off (the `--profile` flag).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry global instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Serializes tests that touch the process-global gate or drain the
/// global span buffers (they would race inside one test binary).
#[cfg(test)]
pub(crate) fn test_gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles_and_global_registry_is_one_instance() {
        let _serial = test_gate_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
