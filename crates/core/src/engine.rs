//! The shared cursor driver behind every incremental analysis engine.
//!
//! Algorithm 1's control flow — close tasks finishing at the cursor, open
//! eligible heads, account interference, advance the cursor — used to be
//! triplicated across the scanning, event-driven and layer-parallel
//! drivers, so any cursor-semantics fix had to land three times (and a
//! missed one would silently diverge). [`run_cursor`] is now the **only**
//! copy of that loop; the three engines implement [`StepEngine`] and
//! differ solely in
//!
//! * their **alive-slot view** — the scanning and event-driven engines
//!   own the full [`AliveSlot`](crate::alive) bookkeeping, the parallel
//!   engine shares one slot table between the driver and its persistent
//!   worker pool under a phase-ownership protocol — and
//! * their **interference phase** ([`StepEngine::account`]) plus how the
//!   next cursor position is found ([`StepEngine::next_finish`]: a slot
//!   scan or a lazily invalidated heap).
//!
//! The driver compacts the graph into a [`TaskTable`] (dense WCET and
//! release columns, CSR successor lists) once per run, so the per-step
//! loops below never chase `Task` or edge-list pointers.
//!
//! The driver is additionally **resumable**: a run may record
//! [`Checkpoint`]s of its own state into a [`CheckpointLog`], and
//! [`resume_cursor`] re-enters the loop from such a checkpoint instead of
//! from `t = 0`, replaying only the suffix of the run. This is the core
//! of the delta re-analysis used by the DSE inner loop (see
//! [`crate::checkpoint`] for the invalidation rule).
//!
//! The cross-engine conformance harness (`tests/conformance.rs`, built on
//! [`crate::testkit`]) pins all implementors to bit-identical schedules,
//! work counters and observer event streams — for full *and* resumed
//! runs — with `mia-baseline` as the independent fixed-point oracle.

use mia_model::{CoreId, Cycles, Problem, TaskId, TaskTable, TaskTiming};

use crate::checkpoint::{Checkpoint, CheckpointLog, SlotSnapshot};
use crate::{AnalysisError, AnalysisOptions, AnalysisStats, Observer};

/// Telemetry handles for one profiled drive: per-phase latency
/// histograms in the global [`mia_obs`] registry, resolved once per run
/// so the loop never touches the registry's name map. Only constructed
/// when the global gate is on — the disabled path of the whole driver
/// is a single relaxed load + branch at entry. Everything recorded here
/// stays off [`AnalysisStats`] (same contract as
/// [`ParallelInfo`](crate::ParallelInfo)), so conformance bit-identity
/// holds with telemetry on or off.
struct DriveProfile {
    close_open: std::sync::Arc<mia_obs::Histogram>,
    account: std::sync::Arc<mia_obs::Histogram>,
    advance: std::sync::Arc<mia_obs::Histogram>,
    checkpoint_write: std::sync::Arc<mia_obs::Histogram>,
}

impl DriveProfile {
    fn new() -> DriveProfile {
        let registry = mia_obs::global();
        DriveProfile {
            close_open: registry.histogram("analysis.close_open_ns"),
            account: registry.histogram("analysis.account_ns"),
            advance: registry.histogram("analysis.advance_ns"),
            checkpoint_write: registry.histogram("analysis.checkpoint_write_ns"),
        }
    }

    /// Stamps a phase start (`None` when not profiling, so call sites
    /// stay one-liners).
    fn begin(prof: Option<&DriveProfile>) -> Option<u64> {
        prof.map(|_| mia_obs::now_ns())
    }

    /// Records a finished phase into its histogram and as a step span
    /// (kept out of the buffer reserve for run-level spans).
    fn end(&self, name: &'static str, hist: &mia_obs::Histogram, start: Option<u64>) {
        if let Some(start_ns) = start {
            let dur_ns = mia_obs::now_ns().saturating_sub(start_ns);
            hist.observe(dur_ns);
            mia_obs::record_step_span(name, start_ns, dur_ns);
        }
    }
}

/// One engine's view of the task alive on a core: exactly the state the
/// shared driver needs to close tasks, enforce deadlines and compute
/// finish dates. Copied out per query, so engines stay free to store the
/// underlying slot however they like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotView {
    /// The occupying task.
    pub(crate) task: TaskId,
    /// Its fixed release date.
    pub(crate) release: Cycles,
    /// Total interference accumulated so far.
    pub(crate) total_inter: Cycles,
}

impl SlotView {
    /// The finish date of the occupying task given its WCET.
    pub(crate) fn finish(&self, wcet: Cycles) -> Cycles {
        self.release + wcet + self.total_inter
    }
}

/// The customization points of the incremental analysis: an alive-slot
/// view plus an interference phase. Everything else — the close/open
/// fixed point, deadline enforcement, cursor advancement, deadlock
/// detection, observer eventing and work counters — lives once in
/// [`run_cursor`].
///
/// Contract (what the conformance harness enforces observationally):
///
/// * [`StepEngine::slot`] reflects exactly the opens/closes the driver
///   performed plus the interference accumulated by
///   [`StepEngine::account`];
/// * [`StepEngine::account`] performs the per-destination accounting in
///   the canonical sequential order (see `alive.rs`) and reports per-bank
///   updates to the observer in that order;
/// * [`StepEngine::next_finish`] returns the earliest finish date among
///   busy slots that is strictly after `t` ([`Cycles::MAX`] when idle).
pub(crate) trait StepEngine {
    /// Number of per-core slots (the platform's core count).
    fn cores(&self) -> usize;

    /// The alive task on `core`, or `None` while the core is idle.
    fn slot(&self, core: usize) -> Option<SlotView>;

    /// Releases `core`'s slot (its task closed at the current cursor).
    fn close_slot(&mut self, core: usize);

    /// Occupies `core`'s slot with `task` released at `release`.
    fn open_slot(&mut self, core: usize, task: TaskId, release: Cycles);

    /// Runs the interference phase for the cores newly opened at this
    /// instant (`newly` is ascending). Implementations must account every
    /// (destination, source) pair involving a newly opened task exactly
    /// once, in the canonical per-destination order, update `stats`
    /// (directly or merged later, as the parallel engine does) and emit
    /// `Observer::on_interference` events when the observer wants them.
    ///
    /// # Errors
    ///
    /// Engine-specific abortion of the run; the parallel engine uses this
    /// to abandon the cursor after a worker panic (the payload is
    /// re-raised by its caller, so the error value itself is never
    /// surfaced).
    fn account<O>(
        &mut self,
        newly: &[usize],
        observer: &mut O,
        stats: &mut AnalysisStats,
    ) -> Result<(), AnalysisError>
    where
        O: Observer + ?Sized;

    /// The earliest finish date of a busy slot strictly after `t`, or
    /// [`Cycles::MAX`] when every core is idle. `&mut` so heap-backed
    /// implementations can drop stale entries while searching; `table` is
    /// the driver's per-run [`TaskTable`] (for WCET lookups).
    fn next_finish(&mut self, table: &TaskTable, t: Cycles) -> Cycles;

    /// Freezes the interference state of every busy slot for a
    /// [`Checkpoint`], or `None` when this engine cannot snapshot its
    /// slots cheaply. Every shipped engine can: the parallel engine's
    /// slot table is driver-owned between phases, so it snapshots (and
    /// records checkpoints) exactly like the sequential engines.
    fn snapshot_slots(&self) -> Option<Vec<Option<SlotSnapshot>>> {
        None
    }

    /// Re-occupies the slots from a checkpoint taken on any engine, as if
    /// the recorded prefix had just been executed. Called once, before the
    /// driver loop, on an otherwise fresh engine.
    fn restore_slots(&mut self, slots: &[Option<SlotSnapshot>]);
}

/// Scans every busy slot for the earliest finish date strictly after `t`
/// — the default [`StepEngine::next_finish`] strategy (Algorithm 1,
/// lines 24–28), shared by the scanning and layer-parallel engines.
///
/// After the close/open fixed point no busy slot can still finish at or
/// before the cursor, so the `fin > t` filter is structural rather than
/// load-bearing — but it makes the "strictly after `t`" contract hold by
/// construction (and keeps the `t_next > t` cursor-advance invariant
/// enforced in release builds, where the `debug_assert!` is compiled
/// out), instead of relying on every engine's fixed point being exact.
pub(crate) fn scan_next_finish<E>(engine: &E, table: &TaskTable, t: Cycles) -> Cycles
where
    E: StepEngine + ?Sized,
{
    let mut t_next = Cycles::MAX;
    for core in 0..engine.cores() {
        if let Some(view) = engine.slot(core) {
            let fin = view.finish(table.wcet(view.task));
            if fin > t {
                t_next = t_next.min(fin);
            }
        }
    }
    t_next
}

/// Where [`resume_cursor`] re-enters the loop: a checkpoint plus the
/// timings of the run that recorded it (the prefix's closed tasks keep
/// their prior timings verbatim — the prefix is bit-identical by the
/// checkpoint admission rule).
pub(crate) struct Resume<'a> {
    /// The driver state to re-enter at.
    pub(crate) checkpoint: &'a Checkpoint,
    /// Per-task timings of the recorded run (indexed by task id).
    pub(crate) prior: &'a [TaskTiming],
}

/// Drives one incremental analysis to completion over `engine` — the
/// single authoritative copy of Algorithm 1's close/open/advance loop.
///
/// Returns the per-task timings (indexed by task) and the driver-side
/// work counters (`cursor_steps` and `max_alive` are always exact here;
/// `ibus_calls`/`pairs_considered` are whatever `engine.account`
/// accumulated into `stats` — the parallel engine merges its workers'
/// counters afterwards instead).
///
/// # Errors
///
/// * [`AnalysisError::Cancelled`] when `options.cancel` fires,
/// * [`AnalysisError::DeadlineExceeded`] /
///   [`AnalysisError::TaskDeadlineMissed`] on deadline violations,
/// * [`AnalysisError::Deadlock`] on inconsistent hand-built inputs,
/// * whatever `engine.account` returns.
pub(crate) fn run_cursor<E, O>(
    problem: &Problem,
    options: &AnalysisOptions,
    engine: &mut E,
    observer: &mut O,
) -> Result<(Vec<TaskTiming>, AnalysisStats), AnalysisError>
where
    E: StepEngine,
    O: Observer + ?Sized,
{
    drive(problem, options, engine, observer, None, None)
}

/// [`run_cursor`] that additionally records [`Checkpoint`]s into `log`
/// (no-op on engines that cannot snapshot their slots).
pub(crate) fn run_cursor_recorded<E, O>(
    problem: &Problem,
    options: &AnalysisOptions,
    engine: &mut E,
    observer: &mut O,
    log: &mut CheckpointLog,
) -> Result<(Vec<TaskTiming>, AnalysisStats), AnalysisError>
where
    E: StepEngine,
    O: Observer + ?Sized,
{
    drive(problem, options, engine, observer, None, Some(log))
}

/// Re-enters the cursor loop at `resume.checkpoint` on a fresh `engine`,
/// replaying only the suffix of the run. The observer sees only the
/// suffix's events (the stream is a suffix of the full run's stream);
/// timings and stats come back complete — prefix timings are taken from
/// `resume.prior`, prefix counters from the checkpoint — and are
/// bit-identical to a from-scratch run's.
///
/// The caller is responsible for the admission rule: `problem` must agree
/// with the recorded run on everything the checkpoint's prefix observed
/// (see [`Checkpoint::admits`](crate::checkpoint::Checkpoint::admits)).
///
/// # Errors
///
/// As [`run_cursor`].
pub(crate) fn resume_cursor<E, O>(
    problem: &Problem,
    options: &AnalysisOptions,
    engine: &mut E,
    observer: &mut O,
    resume: Resume<'_>,
    log: Option<&mut CheckpointLog>,
) -> Result<(Vec<TaskTiming>, AnalysisStats), AnalysisError>
where
    E: StepEngine,
    O: Observer + ?Sized,
{
    drive(problem, options, engine, observer, Some(resume), log)
}

fn drive<E, O>(
    problem: &Problem,
    options: &AnalysisOptions,
    engine: &mut E,
    observer: &mut O,
    resume: Option<Resume<'_>>,
    mut recorder: Option<&mut CheckpointLog>,
) -> Result<(Vec<TaskTiming>, AnalysisStats), AnalysisError>
where
    E: StepEngine,
    O: Observer + ?Sized,
{
    let graph = problem.graph();
    let mapping = problem.mapping();
    let n = graph.len();
    let cores = engine.cores();
    debug_assert_eq!(cores, mapping.cores());

    // One gate load for the whole run; the per-phase sites below are
    // plain `Option` checks.
    let prof = mia_obs::enabled().then(DriveProfile::new);
    let _run_span = mia_obs::span("analysis.run");

    // Compact the graph into dense columns once: the loops below touch
    // only WCETs, release dates and successor lists, and at 10⁶ tasks the
    // `Task`/edge-list indirection of the full graph dominates them.
    let table = {
        let _span = mia_obs::span("core.task_table");
        TaskTable::new(graph)
    };

    let mut stats = AnalysisStats::default();
    let mut timings: Vec<Option<TaskTiming>> = vec![None; n];

    // Remaining unfinished dependencies per task (`τ.deps`), compacted to
    // u32 (an in-degree cannot exceed the u32 edge capacity asserted by
    // the table).
    let mut pending: Vec<u32> = graph
        .task_ids()
        .map(|t| graph.in_degree(t) as u32)
        .collect();
    // Next position in each core's execution order (`S_k`, as an index
    // rather than a stack so the mapping stays borrowed immutably).
    let mut next_idx: Vec<usize> = vec![0; cores];
    let mut alive_count = 0usize;
    let mut closed_count = 0usize;

    // Future minimal release dates, ascending (cursor jump targets).
    // Tasks releasable at t = 0 can never be a *future* jump target — the
    // cursor starts there — so only positive dates are kept (typically a
    // tiny minority, which keeps this sort out of the 10⁶-task profile).
    let mut min_rels: Vec<(Cycles, TaskId)> = graph
        .iter()
        .filter(|(_, t)| t.min_release() > Cycles::ZERO)
        .map(|(id, t)| (t.min_release(), id))
        .collect();
    min_rels.sort();
    let mut mr_ptr = 0usize;
    let mut is_open = vec![false; n];

    // Reusable per-step buffer (no allocation inside the loop).
    let mut newly: Vec<usize> = Vec::with_capacity(cores);

    let mut t = Cycles::ZERO;
    match resume {
        None => observer.on_cursor(t),
        Some(Resume { checkpoint, prior }) => {
            // Re-enter at the checkpoint: the recorded prefix is
            // bit-identical under the admission rule, so its outcome can
            // be installed wholesale instead of replayed. The prefix's
            // events were emitted by the recorded run — including the
            // `on_cursor` for this instant — so none are re-emitted here.
            debug_assert_eq!(prior.len(), n, "prior timings must cover the graph");
            debug_assert_eq!(checkpoint.next_idx.len(), cores);
            t = checkpoint.t;
            stats = checkpoint.stats;
            next_idx.copy_from_slice(&checkpoint.next_idx);
            mr_ptr = checkpoint.mr_ptr;
            engine.restore_slots(&checkpoint.slots);
            // Tasks alive at the checkpoint: opened but not yet closed.
            let mut alive = vec![false; n];
            for snap in checkpoint.slots.iter().flatten() {
                alive[snap.task.index()] = true;
                alive_count += 1;
            }
            // Everything before `next_idx` on each core was opened in the
            // prefix; whatever is not still alive closed there, keeps its
            // prior timing and releases its successors.
            #[allow(clippy::needless_range_loop)] // index drives several arrays
            for core_idx in 0..cores {
                let order = mapping.order(CoreId::from_index(core_idx));
                for &task in &order[..next_idx[core_idx]] {
                    is_open[task.index()] = true;
                    if !alive[task.index()] {
                        timings[task.index()] = Some(prior[task.index()]);
                        closed_count += 1;
                        for &succ in table.successors(task) {
                            pending[succ.index()] -= 1;
                        }
                    }
                }
            }
        }
    }

    while closed_count < n {
        if options.is_cancelled() {
            return Err(AnalysisError::Cancelled);
        }
        // Snapshot the loop state *before* this iteration runs: a
        // checkpoint re-enters exactly here.
        if let Some(log) = recorder.as_deref_mut() {
            if log.wants(stats.cursor_steps) {
                let started = DriveProfile::begin(prof.as_ref());
                if let Some(slots) = engine.snapshot_slots() {
                    log.record(Checkpoint {
                        step: stats.cursor_steps,
                        t,
                        next_idx: next_idx.clone(),
                        mr_ptr,
                        stats,
                        slots,
                    });
                }
                if let Some(p) = prof.as_ref() {
                    p.end("analysis.checkpoint_write", &p.checkpoint_write, started);
                }
            }
        }
        stats.cursor_steps += 1;

        // Fixed point at cursor position t: close every task ending at t,
        // then open every eligible task. Repeats only for zero-length
        // chains (a task that opens and finishes at the same instant).
        let fixed_point_started = DriveProfile::begin(prof.as_ref());
        loop {
            let mut changed = false;

            // C ← {τ ∈ A | rel + WCET + inter = t} (Algorithm 1, line 3).
            for core_idx in 0..cores {
                let Some(view) = engine.slot(core_idx) else {
                    continue;
                };
                let wcet = table.wcet(view.task);
                if view.finish(wcet) != t {
                    continue;
                }
                let timing = TaskTiming {
                    release: view.release,
                    wcet,
                    interference: view.total_inter,
                };
                if options.task_deadlines {
                    if let Some(deadline) = graph.task(view.task).deadline() {
                        if timing.response_time() > deadline {
                            return Err(AnalysisError::TaskDeadlineMissed {
                                task: view.task,
                                response: timing.response_time(),
                                deadline,
                            });
                        }
                    }
                }
                engine.close_slot(core_idx);
                timings[view.task.index()] = Some(timing);
                observer.on_close(view.task, CoreId::from_index(core_idx), t);
                for &succ in table.successors(view.task) {
                    pending[succ.index()] -= 1; // lines 5–6
                }
                alive_count -= 1;
                closed_count += 1;
                changed = true;
            }

            // O ← eligible heads of the per-core orders (lines 9–15).
            newly.clear();
            #[allow(clippy::needless_range_loop)] // index drives several arrays
            for core_idx in 0..cores {
                if engine.slot(core_idx).is_some() {
                    continue;
                }
                let order = mapping.order(CoreId::from_index(core_idx));
                let Some(&head) = order.get(next_idx[core_idx]) else {
                    continue;
                };
                if pending[head.index()] == 0 && table.min_release(head) <= t {
                    next_idx[core_idx] += 1;
                    engine.open_slot(core_idx, head, t);
                    is_open[head.index()] = true;
                    alive_count += 1;
                    stats.max_alive = stats.max_alive.max(alive_count);
                    observer.on_open(head, CoreId::from_index(core_idx), t);
                    newly.push(core_idx);
                    changed = true;
                }
            }

            // Interference between new tasks and the rest of A, both
            // directions (lines 17–23) — the engine's customization point.
            let account_started = DriveProfile::begin(prof.as_ref());
            engine.account(&newly, observer, &mut stats)?;
            if let Some(p) = prof.as_ref() {
                if !newly.is_empty() {
                    p.end("analysis.account", &p.account, account_started);
                }
            }

            if !changed {
                break;
            }
        }
        if let Some(p) = prof.as_ref() {
            p.end("analysis.close_open", &p.close_open, fixed_point_started);
        }

        // Unschedulability check against the optional global deadline.
        if let Some(deadline) = options.deadline {
            for core_idx in 0..cores {
                let Some(view) = engine.slot(core_idx) else {
                    continue;
                };
                let fin = view.finish(table.wcet(view.task));
                if fin > deadline {
                    return Err(AnalysisError::DeadlineExceeded {
                        makespan: fin,
                        deadline,
                    });
                }
            }
        }

        if closed_count == n {
            break;
        }

        // t ← min(next alive finish, next future minimal release)
        // (lines 24–29).
        let advance_started = DriveProfile::begin(prof.as_ref());
        let mut t_next = engine.next_finish(&table, t);
        while let Some(&(mr, task)) = min_rels.get(mr_ptr) {
            if is_open[task.index()] || mr <= t {
                mr_ptr += 1;
                continue;
            }
            t_next = t_next.min(mr);
            break;
        }
        if let Some(p) = prof.as_ref() {
            p.end("analysis.advance", &p.advance, advance_started);
        }
        if t_next == Cycles::MAX {
            let stuck = graph
                .task_ids()
                .find(|x| !is_open[x.index()])
                .expect("unfinished tasks remain");
            return Err(AnalysisError::Deadlock { stuck });
        }
        debug_assert!(t_next > t, "cursor must advance");
        t = t_next;
        observer.on_cursor(t);
    }

    let timings: Vec<TaskTiming> = timings
        .into_iter()
        .map(|t| t.expect("all tasks closed"))
        .collect();
    Ok((timings, stats))
}
