//! Layer-parallel execution of Algorithm 1 on a persistent worker pool.
//!
//! # The layer decomposition
//!
//! At every cursor instant the alive set is an **anti-chain of the DAG**
//! — a "layer" of tasks with no dependencies among them (per-core
//! execution is serial and every dependency crosses a close/open pair).
//! The interference phase of a cursor step touches exactly that layer,
//! and, accounted destination-by-destination (see `alive.rs`), each
//! member of the layer depends only on its **own** slot plus immutable
//! problem data. The analysis therefore proceeds level by level over
//! those temporal layers: the shared cursor driver
//! ([`run_cursor`](crate::engine)) walks the levels, and the members of
//! each wide-enough level are updated by a persistent pool of worker
//! threads.
//!
//! # Persistent workers, epoch handoff
//!
//! The cursor control flow itself is **not** duplicated here: this module
//! only implements the [`StepEngine`] customization points. The
//! [`AliveSlot`] table is a single shared array; **partition `p` of `W`
//! owns the slots of all cores `c` with `c % W == p`** (round-robin,
//! matching the generator's cyclic mapping so layer work spreads evenly),
//! and the driver itself works partition `W − 1` so `--threads N` spawns
//! only `N − 1` extra threads. Ownership is phase-scoped: between phases
//! the driver has exclusive access to every slot (it opens, closes,
//! snapshots and restores them directly, which also makes this engine
//! checkpoint-capable), and during a fan-out phase each partition has
//! exclusive access to its own slots. There are no locks or barriers on
//! the hot path — the driver publishes a phase by bumping an epoch
//! counter (release store + unpark), each worker acknowledges by storing
//! the epoch it completed (release store the driver acquires), and
//! workers created once per analysis spin briefly, then yield, then park
//! between phases.
//!
//! # The engagement threshold
//!
//! Fanning a phase out costs two handoffs; it pays off only when the
//! layer is wide enough that the offloaded accounting outweighs them. The
//! engine therefore keeps an **engagement threshold**: phases narrower
//! than it run inline on the driver, exactly like the sequential engine.
//! By default the threshold is auto-tuned from measurements — the pool
//! handoff cost is calibrated once at start-up, the per-destination
//! accounting cost is an EWMA over the inline phases, and the threshold
//! is where fan-out breaks even (with a ×2 safety margin). On hosts
//! without usable parallelism the pool is not spawned at all and the call
//! falls through to the sequential path, so `--threads 16` is never
//! slower than `--threads 1` by more than the gate check itself.
//! [`AnalysisOptions::parallel_engage`] pins the threshold instead (and
//! forces the pool up), and either way the threshold in effect is
//! reported via [`ParallelInfo`] on the [`AnalysisReport`] so a sweep can
//! be reproduced exactly.
//!
//! # Bit-exact by construction
//!
//! Every destination processes its interferers in **exactly the
//! sequential order** (`account_destination`), and destinations are
//! mutually independent, so [`analyze_parallel`] returns release dates,
//! response times *and work counters* identical to [`crate::analyze`] —
//! the cross-engine conformance harness (`tests/conformance.rs`) and the
//! property tests in `tests/parallel_equivalence.rs` enforce this for
//! every arbiter, interference mode, thread count and threshold.
//!
//! Observers are fully supported: cursor, open and close events are
//! emitted by the shared driver on the calling thread, and per-bank
//! interference events of fanned-out phases are recorded into per-worker
//! buffers and relayed in the canonical sequential order (grouped by
//! destination core, ascending) once the phase completes — so even the
//! observer event stream is bit-identical to the sequential engines'. The
//! relay only runs when [`Observer::wants_interference`] says so; the
//! default [`NoopObserver`] keeps the hot path relay-free.
//!
//! Panics — e.g. from a faulty user arbiter — are confined per phase and
//! re-raised on the calling thread after the pool shuts down, exactly as
//! the sequential analysis would have propagated them (a panicked worker
//! still acknowledges its epoch, so the protocol never wedges).
//!
//! # When it pays off
//!
//! The pool wins when per-step interference work is substantial — many
//! cores, many banks, expensive arbiters, exact (aggregate)
//! recomputation — and stays out of the way (inline path) when it is
//! not. For grid-level parallelism (many independent analyses), prefer
//! the sweep driver in `mia-bench`, which runs whole analyses
//! concurrently.

// The one place in the workspace that needs `unsafe`: the shared slot
// table is handed between the driver and the pool by an epoch counter
// (release/acquire), not by locks, so its cells are `UnsafeCell`s whose
// exclusivity is a protocol invariant instead of a type-system one. Every
// `unsafe` block below carries a SAFETY comment tying it to that
// invariant; everything else in the workspace stays `deny(unsafe_code)`.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use mia_model::arbiter::Arbiter;
use mia_model::{BankId, Cycles, Problem, Schedule, TaskId, TaskTable};

use crate::alive::{account_destination, Accounting, AliveSlot};
use crate::checkpoint::{Checkpoint, CheckpointLog, SlotSnapshot};
use crate::engine::{resume_cursor, run_cursor, scan_next_finish, Resume, SlotView, StepEngine};
use crate::{
    AnalysisError, AnalysisOptions, AnalysisReport, AnalysisStats, NoopObserver, Observer,
    ParallelInfo,
};

/// A shared alive slot. Mutable access is disciplined by the epoch
/// protocol — driver-exclusive between phases, partition-exclusive during
/// a fan-out phase — never by a lock.
#[repr(transparent)]
struct SlotCell(UnsafeCell<AliveSlot>);

// SAFETY: see the struct doc — every `&mut` derived from the cell is
// phase-scoped to exactly one thread, and handoffs are ordered by the
// release/acquire epoch and done counters.
unsafe impl Sync for SlotCell {}

/// What kind of work a published phase carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// No-op round used to measure the handoff cost at start-up.
    Calibrate,
    /// An interference phase: account the published layer.
    Account,
}

/// The phase instructions, written by the driver between phases and read
/// by every worker during one.
struct Cmd {
    kind: PhaseKind,
    /// Newly opened cores, ascending.
    newly: Vec<usize>,
    /// Task alive on each core after this step's opens (`None` = idle).
    occupants: Vec<Option<TaskId>>,
}

/// Shared cell around [`Cmd`]; same phase-scoped discipline as
/// [`SlotCell`] (driver writes strictly between phases).
struct CmdCell(UnsafeCell<Cmd>);

// SAFETY: as for `SlotCell` — exclusive writer between phases, shared
// readers during one, ordered by the epoch handoff.
unsafe impl Sync for CmdCell {}

/// A worker-recorded interference event: destination core, task, bank
/// and the task's new total interference (the `on_interference`
/// payload plus the core used to restore the sequential order).
type InterEvent = (usize, TaskId, BankId, Cycles);

/// Per-worker event buffer, written by its owning worker during a phase
/// and drained by the driver after it.
struct OutCell(UnsafeCell<Vec<InterEvent>>);

// SAFETY: as for `SlotCell` — one exclusive owner per phase side.
unsafe impl Sync for OutCell {}

/// State shared between the driver and the pool.
struct Shared {
    /// The phase counter: bumped (release) by the driver to publish a
    /// phase, acquired by workers on wake-up.
    epoch: AtomicU64,
    /// Set (before the final epoch bump) once the driver is done: workers
    /// exit their loop.
    quit: AtomicBool,
    /// Set by the first worker whose phase panicked; later phases become
    /// no-ops and the driver abandons the run.
    panicked: AtomicBool,
    /// The current phase's instructions.
    cmd: CmdCell,
    /// Per-worker acknowledgement: the last epoch each worker completed.
    done: Vec<AtomicU64>,
    /// Per-worker interference event buffers (only filled when
    /// `relay_events`).
    outs: Vec<OutCell>,
    /// Whether workers should record interference events at all
    /// (`Observer::wants_interference` of the caller's observer).
    relay_events: bool,
    /// First panic payload caught in a worker's phase; the driver
    /// re-raises it after shutting the pool down — matching the
    /// sequential analysis, where the same panic would propagate
    /// directly.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Work counters merged by workers on shutdown.
    worker_stats: Mutex<AnalysisStats>,
}

impl Shared {
    /// Locks `m` even when a panicking thread poisoned it — every use
    /// below tolerates whatever state the panicking thread left behind
    /// (the run is abandoned and the payload re-raised).
    fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The driver's handle on the pool: publish a phase, wait for every
/// worker to acknowledge it.
struct Pool<'a> {
    shared: &'a Shared,
    /// Thread handles of the spawned workers, for unparking.
    threads: &'a [Thread],
    /// The driver's mirror of the published epoch.
    epoch: u64,
}

impl Pool<'_> {
    /// Publishes the current [`Cmd`] as a new phase and wakes the pool.
    fn publish(&mut self) {
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Release);
        for t in self.threads {
            t.unpark();
        }
    }

    /// Waits until every worker has acknowledged the published epoch.
    /// Spin-then-yield: phases are short and the driver immediately needs
    /// the results, so parking the driver is not worth the wake-up.
    fn wait(&self) {
        for done in &self.shared.done {
            let mut spins = 0u32;
            while done.load(Ordering::Acquire) != self.epoch {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The driver's own partition index (the last one — workers take
    /// the indices below it).
    fn driver_partition(&self) -> usize {
        self.shared.done.len()
    }
}

/// Driver-side telemetry handles, resolved from the global registry once
/// per run and only when [`mia_obs::enabled`] — the disabled path costs
/// one relaxed load per engagement decision.
struct PoolProfile {
    fan_out: Arc<mia_obs::Histogram>,
    driver_wait: Arc<mia_obs::Histogram>,
    fanout_steps: Arc<mia_obs::Counter>,
    inline_steps: Arc<mia_obs::Counter>,
}

impl PoolProfile {
    fn new() -> Self {
        let reg = mia_obs::global();
        Self {
            fan_out: reg.histogram("parallel.fan_out_ns"),
            driver_wait: reg.histogram("parallel.driver_wait_ns"),
            fanout_steps: reg.counter("parallel.fanout_steps"),
            inline_steps: reg.counter("parallel.inline_steps"),
        }
    }
}

/// Worker-side telemetry handles: handoff wait vs. accounting work, per
/// phase. Resolved once per worker at spawn.
struct WorkerProfile {
    wait: Arc<mia_obs::Histogram>,
    work: Arc<mia_obs::Histogram>,
}

impl WorkerProfile {
    fn new() -> Self {
        let reg = mia_obs::global();
        Self {
            wait: reg.histogram("parallel.worker_wait_ns"),
            work: reg.histogram("parallel.worker_work_ns"),
        }
    }
}

/// Starts a timed section when profiling is on (shared by both profile
/// structs; mirrors the engine's `DriveProfile`).
fn prof_begin(on: bool) -> Option<u64> {
    on.then(mia_obs::now_ns)
}

/// Finishes a timed section: one histogram observation plus a step span
/// for the Chrome-trace export.
fn prof_end(name: &'static str, hist: &mia_obs::Histogram, started: Option<u64>) {
    if let Some(start) = started {
        let dur = mia_obs::now_ns().saturating_sub(start);
        hist.observe(dur);
        mia_obs::record_step_span(name, start, dur);
    }
}

/// The engagement decision state: the width at which fan-out breaks even.
struct Engagement {
    /// A pinned threshold ([`AnalysisOptions::parallel_engage`]);
    /// disables the auto-tuner.
    fixed: Option<usize>,
    /// Current threshold; `usize::MAX` until tuned (every phase inline).
    threshold: usize,
    /// Calibrated cost of one publish/wait round trip, nanoseconds.
    handoff_ns: f64,
    /// EWMA of the per-destination accounting cost, nanoseconds.
    per_dest_ns: f64,
    /// Pool partitions (workers including the driver).
    partitions: usize,
}

impl Engagement {
    fn new(fixed: Option<usize>, partitions: usize) -> Self {
        Engagement {
            fixed,
            threshold: fixed.unwrap_or(usize::MAX),
            handoff_ns: 0.0,
            per_dest_ns: 0.0,
            partitions,
        }
    }

    /// Folds one timed inline phase into the cost model and re-derives
    /// the threshold: fan-out saves `(W−1)/W` of the accounting but costs
    /// two handoffs, so engage where the saving covers twice that (the ×2
    /// keeps borderline layers inline — a wrong "inline" costs a fraction
    /// of a phase, a wrong "fan out" costs two handoffs every step).
    fn observe_inline(&mut self, width: usize, ns: f64) {
        if self.fixed.is_some() || width == 0 {
            return;
        }
        let per = ns / width as f64;
        self.per_dest_ns = if self.per_dest_ns == 0.0 {
            per
        } else {
            0.8 * self.per_dest_ns + 0.2 * per
        };
        let w = self.partitions as f64;
        let gain = self.per_dest_ns * (w - 1.0) / w;
        if gain > 0.0 {
            self.threshold = ((2.0 * self.handoff_ns / gain).ceil() as usize).max(2);
        }
    }

    /// The threshold to report: `None` while the tuner has not engaged.
    fn effective(&self) -> Option<usize> {
        (self.threshold != usize::MAX).then_some(self.threshold)
    }
}

/// Runs the layer-parallel analysis with default options.
///
/// `threads == 0` uses the machine's available parallelism. The result is
/// bit-identical to [`crate::analyze`]: at every cursor instant the alive
/// set forms an independent layer of the DAG whose members are updated
/// concurrently by a persistent worker pool partitioned by destination
/// core, each destination processing its interferers in exactly the
/// sequential order (see `ARCHITECTURE.md`).
///
/// # Errors
///
/// Same as [`crate::analyze`].
///
/// # Example
///
/// ```
/// use mia_arbiter::RoundRobin;
/// use mia_core::{analyze, analyze_parallel};
/// use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = TaskGraph::new();
/// let a = g.add_task(Task::builder("a").wcet(Cycles(100)));
/// let b = g.add_task(Task::builder("b").wcet(Cycles(100)));
/// g.add_edge(a, b, 10)?;
/// let problem = Problem::new(
///     g.clone(),
///     Mapping::from_assignment(&g, &[0, 1])?,
///     Platform::new(2, 2),
/// )?;
/// let rr = RoundRobin::new();
/// assert_eq!(analyze_parallel(&problem, &rr, 2)?, analyze(&problem, &rr)?);
/// # Ok(())
/// # }
/// ```
pub fn analyze_parallel<A>(
    problem: &Problem,
    arbiter: &A,
    threads: usize,
) -> Result<Schedule, AnalysisError>
where
    A: Arbiter + Sync + ?Sized,
{
    analyze_parallel_with(
        problem,
        arbiter,
        &AnalysisOptions::default(),
        threads,
        &mut NoopObserver,
    )
    .map(|r| r.schedule)
}

/// Runs the layer-parallel analysis with explicit options and an
/// observer.
///
/// `threads == 0` uses the machine's available parallelism; with one
/// worker, a single-core problem, or — unless
/// [`AnalysisOptions::parallel_engage`] pins a threshold — a host without
/// usable parallelism, the call falls through to the sequential
/// [`crate::analyze_with`] (so the parallel entry point is never slower
/// than the sequential one where a pool cannot help). Either way the
/// schedule, the work counters **and the observer event stream** are
/// bit-identical to the sequential analysis, and
/// [`AnalysisReport::parallel`] records how the run actually executed.
///
/// # Errors
///
/// Same as [`crate::analyze_with`].
pub fn analyze_parallel_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    threads: usize,
    observer: &mut O,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + Sync + ?Sized,
    O: Observer + ?Sized,
{
    let workers = resolve_workers(problem, threads);
    if !pool_worthwhile(workers, options) {
        let mut report = crate::analyze_with(problem, arbiter, options, observer)?;
        report.parallel = Some(fallback_info(options));
        return Ok(report);
    }
    run_pool(problem, arbiter, options, workers, observer, None, None)
}

/// Resumes a recorded analysis from `checkpoint` on the layer-parallel
/// engine: the driver restores the shared slot table directly (it owns it
/// between phases) and only the suffix of the run is re-executed. Prefix
/// work counters come from the checkpoint, the workers count the suffix,
/// and the merge yields totals bit-identical to a from-scratch run — for
/// every thread count.
///
/// See [`crate::resume_analyze_with`] for the contract on `checkpoint`
/// and `prior`. The sequential fallback conditions are those of
/// [`analyze_parallel_with`].
///
/// # Errors
///
/// Same as [`crate::analyze_with`].
#[allow(clippy::too_many_arguments)] // mirrors resume_analyze_with + threads
pub fn resume_analyze_parallel_with<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    threads: usize,
    observer: &mut O,
    checkpoint: &Checkpoint,
    prior: &Schedule,
    log: Option<&mut CheckpointLog>,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + Sync + ?Sized,
    O: Observer + ?Sized,
{
    let workers = resolve_workers(problem, threads);
    if !pool_worthwhile(workers, options) {
        let mut report = crate::analysis::resume_analyze_with(
            problem, arbiter, options, observer, checkpoint, prior, log,
        )?;
        report.parallel = Some(fallback_info(options));
        return Ok(report);
    }
    run_pool(
        problem,
        arbiter,
        options,
        workers,
        observer,
        Some((checkpoint, prior)),
        log,
    )
}

/// The effective pool size: `threads` (or the machine's available
/// parallelism when 0), never more than one worker per core.
fn resolve_workers(problem: &Problem, threads: usize) -> usize {
    let cores = problem.mapping().cores();
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .min(cores.max(1))
}

/// Whether to spawn the pool at all: more than one partition, and either
/// a pinned threshold (tests and reproduction runs force the pool) or a
/// host that can actually run the partitions concurrently.
fn pool_worthwhile(workers: usize, options: &AnalysisOptions) -> bool {
    workers > 1
        && (options.parallel_engage.is_some()
            || std::thread::available_parallelism().map_or(1, |p| p.get()) > 1)
}

/// The [`ParallelInfo`] attached when the call fell through to the
/// sequential path.
fn fallback_info(options: &AnalysisOptions) -> ParallelInfo {
    ParallelInfo {
        workers: 1,
        engage_width: None,
        auto_tuned: options.parallel_engage.is_none(),
        fanout_steps: 0,
        inline_steps: 0,
    }
}

/// The shared pool driver behind [`analyze_parallel_with`] and
/// [`resume_analyze_parallel_with`] (callers have already resolved
/// `workers > 1`).
fn run_pool<A, O>(
    problem: &Problem,
    arbiter: &A,
    options: &AnalysisOptions,
    workers: usize,
    observer: &mut O,
    resume: Option<(&Checkpoint, &Schedule)>,
    log: Option<&mut CheckpointLog>,
) -> Result<AnalysisReport, AnalysisError>
where
    A: Arbiter + Sync + ?Sized,
    O: Observer + ?Sized,
{
    let cores = problem.mapping().cores();
    let acct = Accounting::new(problem, arbiter, options.interference_mode);
    // The driver works partition `workers − 1` itself.
    let spawned = workers - 1;

    let slots: Vec<SlotCell> = AliveSlot::for_problem(problem)
        .into_iter()
        .map(|s| SlotCell(UnsafeCell::new(s)))
        .collect();
    let shared = Shared {
        epoch: AtomicU64::new(0),
        quit: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        cmd: CmdCell(UnsafeCell::new(Cmd {
            kind: PhaseKind::Calibrate,
            newly: Vec::with_capacity(cores),
            occupants: Vec::with_capacity(cores),
        })),
        done: (0..spawned).map(|_| AtomicU64::new(0)).collect(),
        outs: (0..spawned)
            .map(|_| OutCell(UnsafeCell::new(Vec::new())))
            .collect(),
        relay_events: observer.wants_interference(),
        panic_payload: Mutex::new(None),
        worker_stats: Mutex::new(AnalysisStats::default()),
    };

    let driver_result = std::thread::scope(|scope| {
        // Handles live outside the catch_unwind closure so the shutdown
        // sequence below can always unpark the pool, even when the driver
        // itself panicked.
        let mut threads: Vec<Thread> = Vec::with_capacity(spawned);
        for worker_id in 0..spawned {
            let shared = &shared;
            let slots = slots.as_slice();
            let handle = scope.spawn(move || {
                worker_loop(problem, arbiter, acct, shared, slots, worker_id, workers);
            });
            threads.push(handle.thread().clone());
        }

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pool = Pool {
                shared: &shared,
                threads: &threads,
                epoch: 0,
            };
            let mut engage = Engagement::new(options.parallel_engage, workers);
            if engage.fixed.is_none() {
                // Calibrate the handoff cost with no-op rounds: the first
                // few warm the pool up (thread start-up, first parks),
                // the rest are averaged.
                let mut total_ns = 0.0;
                for round in 0..12 {
                    let t0 = Instant::now();
                    pool.publish();
                    pool.wait();
                    if round >= 4 {
                        total_ns += t0.elapsed().as_nanos() as f64;
                    }
                }
                engage.handoff_ns = total_ns / 8.0;
            }
            let mut engine = ParallelEngine {
                problem,
                arbiter,
                acct,
                slots: &slots,
                pool,
                engage,
                relay: shared.relay_events,
                fanout_steps: 0,
                inline_steps: 0,
                prof: mia_obs::enabled().then(PoolProfile::new),
                occupants: Vec::with_capacity(cores),
                driver_events: Vec::new(),
                merge_events: Vec::new(),
            };
            let run = match resume {
                None => run_cursor(problem, options, &mut engine, observer),
                Some((checkpoint, prior)) => resume_cursor(
                    problem,
                    options,
                    &mut engine,
                    observer,
                    Resume {
                        checkpoint,
                        prior: prior.timings(),
                    },
                    log,
                ),
            };
            run.map(|(timings, stats)| {
                (
                    timings,
                    stats,
                    engine.engage.effective(),
                    engine.fanout_steps,
                    engine.inline_steps,
                )
            })
        }));

        // Shut the pool down whether the run succeeded, failed or
        // panicked. `quit` is ordered before the epoch bump, so a worker
        // acquiring the new epoch always sees it.
        shared.quit.store(true, Ordering::Release);
        shared.epoch.fetch_add(1, Ordering::Release);
        for t in &threads {
            t.unpark();
        }
        result
    });

    // A worker panic outranks whatever the driver returned: re-raise it
    // here, exactly as the sequential analysis would have propagated it.
    if let Some(payload) = Shared::lock_ignoring_poison(&shared.panic_payload).take() {
        std::panic::resume_unwind(payload);
    }
    let (timings, mut stats, engage_width, fanout_steps, inline_steps) = match driver_result {
        Ok(result) => result?,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    // Added, not assigned: a from-scratch driver contributes zero here,
    // while a resumed one starts from the checkpoint's prefix counters
    // and the workers count only the suffix.
    let worker_stats = Shared::lock_ignoring_poison(&shared.worker_stats);
    stats.pairs_considered += worker_stats.pairs_considered;
    stats.ibus_calls += worker_stats.ibus_calls;
    drop(worker_stats);
    Ok(AnalysisReport {
        schedule: Schedule::from_timings(timings),
        stats,
        parallel: Some(ParallelInfo {
            workers,
            engage_width,
            auto_tuned: options.parallel_engage.is_none(),
            fanout_steps,
            inline_steps,
        }),
    })
}

/// The layer-parallel [`StepEngine`]: direct access to the shared slot
/// table between phases, interference phases either inline or fanned out
/// to the pool depending on the layer width.
struct ParallelEngine<'a, A: ?Sized> {
    problem: &'a Problem,
    arbiter: &'a A,
    acct: Accounting,
    slots: &'a [SlotCell],
    pool: Pool<'a>,
    engage: Engagement,
    relay: bool,
    fanout_steps: usize,
    inline_steps: usize,
    /// Driver-side telemetry, present only when profiling is enabled.
    prof: Option<PoolProfile>,
    // Reusable per-step buffers (no allocation inside the loop).
    occupants: Vec<Option<TaskId>>,
    /// Events of the driver's own partition during a fan-out phase.
    driver_events: Vec<InterEvent>,
    /// Merge buffer for relaying all partitions' events in order.
    merge_events: Vec<InterEvent>,
}

impl<A> ParallelEngine<'_, A>
where
    A: Arbiter + Sync + ?Sized,
{
    /// Exclusive slot access between phases (the driver owns the table
    /// whenever no phase is in flight).
    fn slot_mut(&mut self, core: usize) -> &mut AliveSlot {
        // SAFETY: `&mut self` + phase-scoped ownership — `account` never
        // leaves a phase in flight.
        unsafe { &mut *self.slots[core].0.get() }
    }

    /// Runs one interference phase inline on the driver, exactly like the
    /// sequential engine (same order, same observer, same stats).
    fn account_inline<O>(&mut self, newly: &[usize], observer: &mut O, stats: &mut AnalysisStats)
    where
        O: Observer + ?Sized,
    {
        for core in 0..self.slots.len() {
            if self.occupants[core].is_none() {
                continue;
            }
            // SAFETY: no phase in flight; the driver owns every slot.
            let dest = unsafe { &mut *self.slots[core].0.get() };
            let dest_is_new = newly.binary_search(&core).is_ok();
            account_destination(
                self.problem,
                self.arbiter,
                self.acct,
                dest,
                core,
                dest_is_new,
                newly,
                &self.occupants,
                observer,
                stats,
            );
        }
    }

    /// Publishes one interference phase to the pool, accounts the
    /// driver's own partition, waits, and relays events in order.
    fn fan_out<O>(
        &mut self,
        newly: &[usize],
        observer: &mut O,
        stats: &mut AnalysisStats,
    ) -> Result<(), AnalysisError>
    where
        O: Observer + ?Sized,
    {
        let phase_started = prof_begin(self.prof.is_some());
        {
            // SAFETY: no phase in flight; the driver owns the command.
            let cmd = unsafe { &mut *self.pool.shared.cmd.0.get() };
            cmd.kind = PhaseKind::Account;
            cmd.newly.clear();
            cmd.newly.extend_from_slice(newly);
            cmd.occupants.clear();
            cmd.occupants.extend_from_slice(&self.occupants);
        }
        self.pool.publish();
        // SAFETY: during the phase the command is read-only everywhere.
        let cmd = unsafe { &*self.pool.shared.cmd.0.get() };
        self.driver_events.clear();
        let events = self.relay.then_some(&mut self.driver_events);
        account_partition(
            self.problem,
            self.arbiter,
            self.acct,
            self.slots,
            cmd,
            self.pool.driver_partition(),
            self.engage.partitions,
            events,
            stats,
        );
        let wait_started = prof_begin(self.prof.is_some());
        self.pool.wait();
        if let Some(p) = &self.prof {
            prof_end("parallel.driver_wait", &p.driver_wait, wait_started);
        }
        if self.pool.shared.panicked.load(Ordering::Acquire) {
            // Abandon the run; the caller re-raises the worker's
            // payload, so this placeholder error is never seen.
            return Err(AnalysisError::Cancelled);
        }
        if self.relay {
            // Restore the canonical sequential event order: destinations
            // ascending by core, each destination's events in the order
            // its partition produced them (stable sort; every partition
            // records its cores' chunks contiguously and ascending).
            self.merge_events.clear();
            self.merge_events.append(&mut self.driver_events);
            for out in &self.pool.shared.outs {
                // SAFETY: all workers acknowledged the epoch; the driver
                // owns the buffers again.
                let buf = unsafe { &mut *out.0.get() };
                self.merge_events.append(buf);
            }
            self.merge_events.sort_by_key(|&(core, _, _, _)| core);
            for &(_, task, bank, total) in &self.merge_events {
                observer.on_interference(task, bank, total);
            }
        }
        if let Some(p) = &self.prof {
            prof_end("parallel.fan_out", &p.fan_out, phase_started);
        }
        Ok(())
    }
}

impl<A> StepEngine for ParallelEngine<'_, A>
where
    A: Arbiter + Sync + ?Sized,
{
    fn cores(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, core: usize) -> Option<SlotView> {
        // SAFETY: called by the driver between phases (shared read).
        let s = unsafe { &*self.slots[core].0.get() };
        s.busy.then_some(SlotView {
            task: s.task,
            release: s.release,
            total_inter: s.total_inter,
        })
    }

    fn close_slot(&mut self, core: usize) {
        self.slot_mut(core).close();
    }

    fn open_slot(&mut self, core: usize, task: TaskId, release: Cycles) {
        self.slot_mut(core).open(task, release);
    }

    fn account<O>(
        &mut self,
        newly: &[usize],
        observer: &mut O,
        stats: &mut AnalysisStats,
    ) -> Result<(), AnalysisError>
    where
        O: Observer + ?Sized,
    {
        // Nothing opened at this instant: nothing to account (matching
        // `account_newly`'s early return).
        if newly.is_empty() {
            return Ok(());
        }
        self.occupants.clear();
        for core in 0..self.slots.len() {
            // SAFETY: no phase in flight; shared read by the driver.
            let s = unsafe { &*self.slots[core].0.get() };
            self.occupants.push(s.busy.then_some(s.task));
        }
        let width = self.occupants.iter().flatten().count();
        if width >= self.engage.threshold {
            self.fanout_steps += 1;
            if let Some(p) = &self.prof {
                p.fanout_steps.inc();
            }
            return self.fan_out(newly, observer, stats);
        }
        self.inline_steps += 1;
        if let Some(p) = &self.prof {
            p.inline_steps.inc();
        }
        let timed = self.engage.fixed.is_none();
        let t0 = timed.then(Instant::now);
        self.account_inline(newly, observer, stats);
        if let Some(t0) = t0 {
            self.engage
                .observe_inline(width, t0.elapsed().as_nanos() as f64);
        }
        Ok(())
    }

    fn next_finish(&mut self, table: &TaskTable, t: Cycles) -> Cycles {
        scan_next_finish(self, table, t)
    }

    fn snapshot_slots(&self) -> Option<Vec<Option<SlotSnapshot>>> {
        Some(
            self.slots
                .iter()
                .map(|cell| {
                    // SAFETY: driver-exclusive between phases.
                    let s = unsafe { &*cell.0.get() };
                    s.busy.then(|| s.snapshot())
                })
                .collect(),
        )
    }

    fn restore_slots(&mut self, slots: &[Option<SlotSnapshot>]) {
        // The driver owns the shared table between phases, so a resumed
        // run restores it directly — no pool round needed; workers see
        // the restored state through the next phase's epoch handoff.
        debug_assert_eq!(slots.len(), self.slots.len());
        for (core, snap) in slots.iter().enumerate() {
            if let Some(snap) = snap {
                self.slot_mut(core).restore(snap);
            }
        }
    }
}

/// Worker-side observer recording `(core, task, bank, total)` events so
/// the driver can relay them to the caller's observer in order.
struct EventRecorder<'a> {
    core: usize,
    events: &'a mut Vec<InterEvent>,
}

impl Observer for EventRecorder<'_> {
    fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
        self.events.push((self.core, task, bank, total));
    }
}

/// Accounts one partition of a published phase: every occupied
/// destination core with `core % partitions == partition`, ascending, in
/// the canonical per-destination order. Shared by the workers and the
/// driver's own partition.
#[allow(clippy::too_many_arguments)]
fn account_partition<A>(
    problem: &Problem,
    arbiter: &A,
    acct: Accounting,
    slots: &[SlotCell],
    cmd: &Cmd,
    partition: usize,
    partitions: usize,
    mut events: Option<&mut Vec<InterEvent>>,
    stats: &mut AnalysisStats,
) where
    A: Arbiter + Sync + ?Sized,
{
    for core in (partition..slots.len()).step_by(partitions) {
        if cmd.occupants[core].is_none() {
            continue;
        }
        // SAFETY: during a fan-out phase partition `partition` has
        // exclusive access to the slots of its cores.
        let dest = unsafe { &mut *slots[core].0.get() };
        let dest_is_new = cmd.newly.binary_search(&core).is_ok();
        match events.as_deref_mut() {
            Some(buf) => {
                let mut recorder = EventRecorder { core, events: buf };
                account_destination(
                    problem,
                    arbiter,
                    acct,
                    dest,
                    core,
                    dest_is_new,
                    &cmd.newly,
                    &cmd.occupants,
                    &mut recorder,
                    stats,
                );
            }
            None => account_destination(
                problem,
                arbiter,
                acct,
                dest,
                core,
                dest_is_new,
                &cmd.newly,
                &cmd.occupants,
                &mut NoopObserver,
                stats,
            ),
        }
    }
}

/// Blocks until the epoch moves past `last`: spin briefly (the driver
/// usually publishes back-to-back phases), then yield, then park with a
/// timeout (parking is cheap for the long gaps between wide layers; the
/// timeout guards against a lost unpark race).
fn wait_for_phase(shared: &Shared, last: u64) -> u64 {
    let mut spins = 0u32;
    loop {
        let e = shared.epoch.load(Ordering::Acquire);
        if e != last {
            return e;
        }
        spins += 1;
        if spins < 128 {
            std::hint::spin_loop();
        } else if spins < 192 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(200));
        }
    }
}

/// One pool worker: persistently owns partition `worker_id` (cores `c`
/// with `c % partitions == worker_id`) and services phases until the
/// driver publishes `quit`.
#[allow(clippy::too_many_arguments)]
fn worker_loop<A>(
    problem: &Problem,
    arbiter: &A,
    acct: Accounting,
    shared: &Shared,
    slots: &[SlotCell],
    worker_id: usize,
    partitions: usize,
) where
    A: Arbiter + Sync + ?Sized,
{
    let mut stats = AnalysisStats::default();
    let mut last = 0u64;
    let prof = mia_obs::enabled().then(WorkerProfile::new);
    loop {
        let wait_started = prof_begin(prof.is_some());
        let e = wait_for_phase(shared, last);
        if let Some(p) = &prof {
            prof_end("parallel.worker_wait", &p.wait, wait_started);
        }
        // `quit` is published before the final epoch bump (release), so
        // acquiring the bumped epoch makes it visible here.
        if shared.quit.load(Ordering::Acquire) {
            break;
        }
        last = e;
        // A phase is panic-confined: a panicking arbiter must not strand
        // the driver waiting for this worker's acknowledgement. The first
        // payload is stashed for the driver to re-raise; after that every
        // worker just acknowledges phases until the driver quits.
        if !shared.panicked.load(Ordering::Acquire) {
            let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: command is read-only during a phase.
                let cmd = unsafe { &*shared.cmd.0.get() };
                if cmd.kind == PhaseKind::Account {
                    let work_started = prof_begin(prof.is_some());
                    let events = shared.relay_events.then(|| {
                        // SAFETY: this worker exclusively owns its out
                        // buffer during the phase; the driver drained it
                        // after the previous one.
                        unsafe { &mut *shared.outs[worker_id].0.get() }
                    });
                    account_partition(
                        problem, arbiter, acct, slots, cmd, worker_id, partitions, events,
                        &mut stats,
                    );
                    if let Some(p) = &prof {
                        prof_end("parallel.worker_work", &p.work, work_started);
                    }
                }
            }));
            if let Err(payload) = phase {
                Shared::lock_ignoring_poison(&shared.panic_payload).get_or_insert(payload);
                shared.panicked.store(true, Ordering::Release);
            }
        }
        shared.done[worker_id].store(e, Ordering::Release);
    }

    let mut merged = Shared::lock_ignoring_poison(&shared.worker_stats);
    merged.pairs_considered += stats.pairs_considered;
    merged.ibus_calls += stats.ibus_calls;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::arbiter::InterfererDemand;
    use mia_model::{CoreId, Mapping, Platform, Task, TaskGraph};

    struct Rr;

    impl Arbiter for Rr {
        fn name(&self) -> &str {
            "rr-test"
        }

        fn bank_interference(
            &self,
            _victim: CoreId,
            demand: u64,
            interferers: &[InterfererDemand],
            access_cycles: Cycles,
        ) -> Cycles {
            access_cycles
                * interferers
                    .iter()
                    .map(|i| demand.min(i.accesses))
                    .sum::<u64>()
        }

        fn is_additive(&self) -> bool {
            true
        }
    }

    fn figure1() -> Problem {
        let mut g = TaskGraph::new();
        let n0 = g.add_task(Task::builder("n0").wcet(Cycles(2)));
        let n1 = g.add_task(Task::builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
        let n2 = g.add_task(Task::builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
        let n3 = g.add_task(Task::builder("n3").wcet(Cycles(3)));
        let n4 = g.add_task(Task::builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
        for (s, d) in [(n0, n1), (n0, n2), (n1, n2), (n3, n2), (n3, n4)] {
            g.add_edge(s, d, 1).unwrap();
        }
        let m = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3]).unwrap();
        Problem::new(g, m, Platform::new(4, 4)).unwrap()
    }

    /// Options that pin the threshold to 1: every non-empty phase fans
    /// out, and the pool is spawned even on single-CPU hosts.
    fn pinned() -> AnalysisOptions {
        AnalysisOptions::new().parallel_engage(1)
    }

    #[test]
    fn figure1_matches_sequential_for_every_pool_size() {
        let p = figure1();
        let seq = crate::analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut NoopObserver).unwrap();
        for threads in [0usize, 1, 2, 3, 4, 8] {
            let par =
                analyze_parallel_with(&p, &Rr, &AnalysisOptions::new(), threads, &mut NoopObserver)
                    .unwrap();
            assert_eq!(seq.schedule, par.schedule, "threads = {threads}");
            assert_eq!(seq.stats, par.stats, "threads = {threads}");
            assert!(par.parallel.is_some(), "threads = {threads}");
        }
    }

    #[test]
    fn pinned_engagement_fans_out_and_matches_sequential() {
        let p = figure1();
        let seq = crate::analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut NoopObserver).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let par =
                analyze_parallel_with(&p, &Rr, &pinned(), threads, &mut NoopObserver).unwrap();
            assert_eq!(seq.schedule, par.schedule, "threads = {threads}");
            assert_eq!(seq.stats, par.stats, "threads = {threads}");
            let info = par.parallel.expect("pool engaged");
            assert_eq!(info.workers, threads.min(4), "threads = {threads}");
            assert_eq!(info.engage_width, Some(1));
            assert!(!info.auto_tuned);
            assert!(info.fanout_steps > 0, "threads = {threads}");
            assert_eq!(info.inline_steps, 0, "threads = {threads}");
        }
    }

    #[test]
    fn auto_tuned_pool_matches_sequential_and_reports_itself() {
        // The public gate skips the pool on hosts without parallelism, so
        // exercise the auto-tuner through the pool driver directly.
        let p = figure1();
        let seq = crate::analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut NoopObserver).unwrap();
        let par = run_pool(
            &p,
            &Rr,
            &AnalysisOptions::new(),
            2,
            &mut NoopObserver,
            None,
            None,
        )
        .unwrap();
        assert_eq!(seq.schedule, par.schedule);
        assert_eq!(seq.stats, par.stats);
        let info = par.parallel.expect("pool ran");
        assert_eq!(info.workers, 2);
        assert!(info.auto_tuned);
        // Every phase went somewhere, and the split is exhaustive.
        assert!(info.fanout_steps + info.inline_steps > 0);
    }

    #[test]
    fn fallback_still_reports_parallel_info() {
        let p = figure1();
        let par =
            analyze_parallel_with(&p, &Rr, &AnalysisOptions::new(), 1, &mut NoopObserver).unwrap();
        let info = par.parallel.expect("fallback info attached");
        assert_eq!(info.workers, 1);
        assert_eq!(info.engage_width, None);
        assert_eq!(info.fanout_steps, 0);
        assert_eq!(info.inline_steps, 0);
    }

    #[test]
    fn empty_problem() {
        let g = TaskGraph::new();
        let m = Mapping::from_assignment(&g, &[]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = analyze_parallel(&p, &Rr, 4).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn deadline_and_cancellation_behave_like_analyze() {
        let p = figure1();
        let opts = AnalysisOptions::new()
            .deadline(Cycles(6))
            .parallel_engage(1);
        let err = analyze_parallel_with(&p, &Rr, &opts, 2, &mut NoopObserver).unwrap_err();
        assert!(matches!(err, AnalysisError::DeadlineExceeded { .. }));

        let token = crate::CancelToken::new();
        token.cancel();
        let opts = AnalysisOptions::new()
            .cancel_token(token)
            .parallel_engage(1);
        let err = analyze_parallel_with(&p, &Rr, &opts, 2, &mut NoopObserver).unwrap_err();
        assert_eq!(err, AnalysisError::Cancelled);
    }

    #[test]
    fn observer_stream_matches_sequential_with_pool_engaged() {
        #[derive(Default, PartialEq, Debug)]
        struct Log {
            lines: Vec<String>,
        }
        impl Observer for Log {
            fn on_cursor(&mut self, t: Cycles) {
                self.lines.push(format!("cursor {t}"));
            }
            fn on_open(&mut self, task: TaskId, core: CoreId, t: Cycles) {
                self.lines.push(format!("open {task} {core} {t}"));
            }
            fn on_close(&mut self, task: TaskId, core: CoreId, t: Cycles) {
                self.lines.push(format!("close {task} {core} {t}"));
            }
            fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
                self.lines.push(format!("inter {task} {bank} {total}"));
            }
        }
        let p = figure1();
        let mut seq_log = Log::default();
        let mut par_log = Log::default();
        let seq = crate::analyze_with(&p, &Rr, &AnalysisOptions::new(), &mut seq_log).unwrap();
        let par = analyze_parallel_with(&p, &Rr, &pinned(), 2, &mut par_log).unwrap();
        assert_eq!(seq.schedule, par.schedule);
        assert!(par.parallel.expect("pool engaged").fanout_steps > 0);
        assert!(seq_log.lines.iter().any(|l| l.starts_with("inter")));
        assert_eq!(seq_log, par_log);
    }

    #[test]
    fn panicking_arbiter_propagates_instead_of_deadlocking() {
        // A faulty user arbiter must behave like in the sequential
        // analysis: the panic reaches the caller — with the pool spawned
        // and every phase fanned out, so the worker-side confinement is
        // what is under test.
        struct Bomb;
        impl Arbiter for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn bank_interference(
                &self,
                _victim: CoreId,
                _demand: u64,
                _interferers: &[InterfererDemand],
                _access: Cycles,
            ) -> Cycles {
                panic!("defective arbiter");
            }
        }
        let p = figure1();
        // Silence the default hook so the expected panic does not spam
        // the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| {
            analyze_parallel_with(&p, &Bomb, &pinned(), 2, &mut NoopObserver)
        });
        std::panic::set_hook(prev);
        let payload = caught.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("defective arbiter"), "{message}");
    }

    #[test]
    fn task_deadline_miss_is_reported() {
        let p = figure1();
        let mut g2 = p.graph().clone();
        g2.task_mut(TaskId(3)).set_deadline(Some(Cycles(4)));
        let p2 = Problem::new(g2, p.mapping().clone(), p.platform().clone()).unwrap();
        let opts = AnalysisOptions::new()
            .task_deadlines(true)
            .parallel_engage(1);
        let err = analyze_parallel_with(&p2, &Rr, &opts, 2, &mut NoopObserver).unwrap_err();
        assert!(matches!(err, AnalysisError::TaskDeadlineMissed { .. }));
    }
}
