//! The cursor driver of the incremental analysis: Algorithm 1's
//! close/open/advance loop ([`drive`]) over the scanning cursor's alive
//! set ([`ScanEngine`]).
//!
//! At each cursor position the driver closes the tasks finishing there,
//! opens the eligible heads of the per-core orders, accounts the
//! interference between the newly opened tasks and the rest of the alive
//! set, and advances the cursor to the next finish date or future minimal
//! release date, found by scanning the alive set (lines 24–28).
//!
//! The driver compacts the graph into a [`TaskTable`] (dense WCET and
//! release columns, CSR successor lists) once per run, so the per-step
//! loops below never chase `Task` or edge-list pointers.
//!
//! The driver is additionally **resumable**: a run may record
//! [`Checkpoint`]s of its own state into a [`CheckpointLog`], and a
//! later run re-enters the loop from such a checkpoint instead of from
//! `t = 0`, replaying only the suffix of the run. This is the core of the
//! delta re-analysis used by the DSE inner loop (see
//! [`crate::checkpoint`] for the invalidation rule).
//!
//! The conformance harness (`tests/conformance.rs`, built on
//! [`crate::testkit`]) pins full and resumed runs to bit-identical
//! schedules, work counters and observer event streams, with
//! `mia-baseline` as the independent fixed-point oracle.

use mia_model::arbiter::Arbiter;
use mia_model::{CoreId, Cycles, Problem, TaskId, TaskTable, TaskTiming};

use crate::alive::{Accounting, AliveSlot};
use crate::checkpoint::{Checkpoint, CheckpointLog, SlotSnapshot};
use crate::{AnalysisError, AnalysisOptions, AnalysisStats, Observer};

/// Telemetry handles for one profiled drive: per-phase latency
/// histograms in the global [`mia_obs`] registry, resolved once per run
/// so the loop never touches the registry's name map. Only constructed
/// when the global gate is on — the disabled path of the whole driver
/// is a single relaxed load + branch at entry. Everything recorded here
/// stays off [`AnalysisStats`], so conformance bit-identity holds with
/// telemetry on or off.
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

/// The paper's scanning cursor state: one [`AliveSlot`] per core (the
/// alive set `A`), the accounting rule resolved for the run, and the
/// buffers of the interference phase. [`drive`] owns the control flow;
/// this holds what it steps.
struct ScanEngine<'p, A: ?Sized> {
    problem: &'p Problem,
    arbiter: &'p A,
    acct: Accounting,
    /// The alive set `A`: one reusable slot per core (see `alive.rs`).
    slots: Vec<AliveSlot>,
    /// The task alive on each core at the start of an interference phase
    /// (reused per step, so the loop does not allocate).
    occupants: Vec<Option<TaskId>>,
}

impl<'p, A> ScanEngine<'p, A>
where
    A: Arbiter + ?Sized,
{
    fn new(problem: &'p Problem, arbiter: &'p A, options: &AnalysisOptions) -> Self {
        let acct = Accounting::new(problem, arbiter, options.interference_mode);
        ScanEngine {
            problem,
            arbiter,
            slots: AliveSlot::for_problem(problem, &acct),
            acct,
            occupants: Vec::with_capacity(problem.mapping().cores()),
        }
    }

    /// Runs the interference phase of one cursor step (Algorithm 1, lines
    /// 17–23): accounts every pair involving a task in `newly` (the cores
    /// opened at this instant, ascending) exactly once, destination by
    /// destination, and reports each per-bank update to the observer.
    ///
    /// Each destination takes its sources in one fixed order: first the
    /// newly opened tasks on lower-numbered cores, then — only when the
    /// destination itself just opened — every other alive core in
    /// ascending order, skipping the ones the first loop took. No
    /// per-task "already accounted" set is kept.
    fn account<O>(&mut self, newly: &[usize], observer: &mut O, stats: &mut AnalysisStats)
    where
        O: Observer + ?Sized,
    {
        if newly.is_empty() {
            return;
        }
        debug_assert!(newly.windows(2).all(|w| w[0] < w[1]), "newly not ascending");
        let (problem, arbiter, acct) = (self.problem, self.arbiter, &self.acct);
        let occupants = &mut self.occupants;
        occupants.clear();
        occupants.extend(self.slots.iter().map(|s| s.busy.then_some(s.task)));
        let occupants = &*occupants;

        let mut account = |dest: &mut AliveSlot, core: usize, observer: &mut O| {
            let src = occupants[core].expect("source core is occupied");
            let src_core = CoreId::from_index(core);
            dest.account(problem, arbiter, acct, src, src_core, observer, stats);
        };
        for (dest_idx, dest) in self.slots.iter_mut().enumerate() {
            if !dest.busy {
                continue;
            }
            if newly.binary_search(&dest_idx).is_err() {
                for &n in newly {
                    account(dest, n, observer);
                }
                continue;
            }
            let earlier = &newly[..newly.partition_point(|&n| n < dest_idx)];
            for &n in earlier {
                account(dest, n, observer);
            }
            // `earlier` is ascending, so one cursor over it finds the
            // cores to skip.
            let mut taken = earlier.iter().peekable();
            for (other, occ) in occupants.iter().enumerate() {
                if taken.next_if_eq(&&other).is_some() || occ.is_none() || other == dest_idx {
                    continue;
                }
                account(dest, other, observer);
            }
        }
    }

    /// The earliest finish date of a busy slot strictly after `t`, or
    /// [`Cycles::MAX`] when every core is idle (Algorithm 1, lines 24–28).
    ///
    /// After the close/open fixed point no busy slot can still finish at
    /// or before the cursor, so the `fin > t` filter is structural — but
    /// it keeps the `t_next > t` cursor-advance invariant enforced in
    /// release builds, where the `debug_assert!` is compiled out.
    fn next_finish(&self, table: &TaskTable, t: Cycles) -> Cycles {
        self.slots
            .iter()
            .filter(|s| s.busy)
            .map(|s| s.finish(table.wcet(s.task)))
            .filter(|&fin| fin > t)
            .min()
            .unwrap_or(Cycles::MAX)
    }

    /// Freezes the interference state of every busy slot for a
    /// [`Checkpoint`].
    fn snapshot_slots(&self) -> Vec<Option<SlotSnapshot>> {
        self.slots
            .iter()
            .map(|s| s.busy.then(|| s.snapshot()))
            .collect()
    }

    /// Re-occupies the slots from a checkpoint, as if the recorded prefix
    /// had just been executed. Called once, before the loop, on a fresh
    /// engine.
    fn restore_slots(&mut self, slots: &[Option<SlotSnapshot>]) {
        debug_assert_eq!(slots.len(), self.slots.len());
        for (slot, snap) in self.slots.iter_mut().zip(slots) {
            if let Some(snap) = snap {
                slot.restore(snap, &self.acct);
            }
        }
    }
}

/// Where [`drive`] re-enters the loop: a checkpoint plus the timings of
/// the run that recorded it (the prefix's closed tasks keep their prior
/// timings verbatim — the prefix is bit-identical by the checkpoint
/// admission rule).
pub(crate) struct Resume<'a> {
    /// The driver state to re-enter at.
    pub(crate) checkpoint: &'a Checkpoint,
    /// Per-task timings of the recorded run (indexed by task id).
    pub(crate) prior: &'a [TaskTiming],
}

/// Drives one incremental analysis of `problem` under `arbiter` to
/// completion — the single copy of Algorithm 1's close/open/advance loop.
///
/// Returns the per-task timings (indexed by task) and the work counters.
///
/// With `resume`, the loop re-enters at the checkpoint instead of at
/// `t = 0` and replays only the suffix of the run. The observer sees only
/// the suffix's events (the stream is a suffix of the full run's stream);
/// timings and stats come back complete — prefix timings are taken from
/// `resume.prior`, prefix counters from the checkpoint — and are
/// bit-identical to a from-scratch run's. The caller is responsible for
/// the admission rule: `problem` must agree with the recorded run on
/// everything the checkpoint's prefix observed (see
/// [`Checkpoint::admits`](crate::checkpoint::Checkpoint::admits)).
///
/// With `recorder`, the run records [`Checkpoint`]s of its own state as
/// it goes.
///
/// # Errors
///
/// * [`AnalysisError::Cancelled`] when `options.cancel` fires,
/// * [`AnalysisError::DeadlineExceeded`] /
///   [`AnalysisError::TaskDeadlineMissed`] on deadline violations,
/// * [`AnalysisError::Deadlock`] on inconsistent hand-built inputs.
pub(crate) fn drive<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    observer: &mut O,
    resume: Option<Resume<'_>>,
    mut recorder: Option<&mut CheckpointLog>,
) -> Result<(Vec<TaskTiming>, AnalysisStats), AnalysisError>
where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    let graph = problem.graph();
    let mapping = problem.mapping();
    let n = graph.len();
    let cores = mapping.cores();
    let mut engine = ScanEngine::new(problem, arbiter, options);

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
                log.record(Checkpoint {
                    step: stats.cursor_steps,
                    t,
                    next_idx: next_idx.clone(),
                    mr_ptr,
                    stats,
                    slots: engine.snapshot_slots(),
                });
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
            for (core_idx, slot) in engine.slots.iter_mut().enumerate() {
                if !slot.busy {
                    continue;
                }
                let (task, wcet) = (slot.task, table.wcet(slot.task));
                if slot.finish(wcet) != t {
                    continue;
                }
                let timing = TaskTiming {
                    release: slot.release,
                    wcet,
                    interference: slot.total_inter,
                };
                if options.task_deadlines {
                    if let Some(deadline) = graph.task(task).deadline() {
                        if timing.response_time() > deadline {
                            return Err(AnalysisError::TaskDeadlineMissed {
                                task,
                                response: timing.response_time(),
                                deadline,
                            });
                        }
                    }
                }
                slot.close();
                timings[task.index()] = Some(timing);
                observer.on_close(task, CoreId::from_index(core_idx), t);
                for &succ in table.successors(task) {
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
                if engine.slots[core_idx].busy {
                    continue;
                }
                let order = mapping.order(CoreId::from_index(core_idx));
                let Some(&head) = order.get(next_idx[core_idx]) else {
                    continue;
                };
                if pending[head.index()] == 0 && table.min_release(head) <= t {
                    next_idx[core_idx] += 1;
                    engine.slots[core_idx].open(head, t);
                    is_open[head.index()] = true;
                    alive_count += 1;
                    stats.max_alive = stats.max_alive.max(alive_count);
                    observer.on_open(head, CoreId::from_index(core_idx), t);
                    newly.push(core_idx);
                    changed = true;
                }
            }

            // Interference between new tasks and the rest of A, both
            // directions (lines 17–23).
            let account_started = DriveProfile::begin(prof.as_ref());
            engine.account(&newly, observer, &mut stats);
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
            for slot in engine.slots.iter().filter(|s| s.busy) {
                let fin = slot.finish(table.wcet(slot.task));
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
