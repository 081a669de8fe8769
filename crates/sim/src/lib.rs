//! A cycle-stepped many-core memory-contention simulator.
//!
//! The paper's analyses bound what the Kalray MPPA-256 hardware may do;
//! this crate stands in for that hardware: it
//! *executes* a computed [`Schedule`] on a platform model with per-bank
//! round-robin arbitration at single-access granularity, and reports the
//! response time every task actually exhibited.
//!
//! The simulation is **time-triggered** exactly as §II.B prescribes: a
//! task starts at its analysed release date — never earlier, even when its
//! inputs are ready — so the execution windows the analysis reasoned about
//! are preserved.
//!
//! The central property (checked by `tests/soundness.rs` and the
//! workspace-level property tests) is:
//!
//! > for every task and every access pattern, the simulated response time
//! > never exceeds the analysed worst-case response time.
//!
//! This holds for analyses run with the flat [`RoundRobin`] arbiter and
//! any arbiter that dominates it (FIFO, TDM); the hierarchical
//! [`MppaTree`] bound models tree hardware, which the simulator mirrors
//! with [`BusPolicy::Tree`].
//!
//! [`RoundRobin`]: https://docs.rs/mia-arbiter
//! [`MppaTree`]: https://docs.rs/mia-arbiter
//!
//! # Example
//!
//! ```
//! use mia_model::{Cycles, Mapping, Platform, Problem, Task, TaskGraph};
//! use mia_model::arbiter::{Arbiter, InterfererDemand};
//! use mia_model::{BankDemand, BankId, CoreId};
//! use mia_sim::{simulate, AccessPattern, SimConfig};
//!
//! # struct Rr;
//! # impl Arbiter for Rr {
//! #     fn name(&self) -> &str { "rr" }
//! #     fn bank_interference(&self, _v: CoreId, d: u64, s: &[InterfererDemand], a: Cycles) -> Cycles {
//! #         a * s.iter().map(|i| d.min(i.accesses)).sum::<u64>()
//! #     }
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(50))
//!     .private_demand(BankDemand::single(BankId(0), 10)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(50))
//!     .private_demand(BankDemand::single(BankId(0), 10)));
//! let m = Mapping::from_assignment(&g, &[0, 1])?;
//! let p = Problem::with_policy(g, m, Platform::new(2, 2),
//!     mia_model::BankPolicy::SingleBank)?;
//! let schedule = mia_core::analyze(&p, &Rr)?;
//!
//! let result = simulate(&p, &schedule, &SimConfig::new(AccessPattern::BurstStart))?;
//! for (id, _) in p.graph().iter() {
//!     assert!(result.finish(id) <= schedule.timing(id).finish());
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use mia_model::{BankId, CoreId, Cycles, Problem, Schedule, TaskId};

mod fault;
mod trace;

pub use fault::{apply_faults, Fault, FaultPlan};
pub use trace::{BankStats, NoopRecorder, Recorder, SimEvent, SimTrace};

/// When, within a task's execution, its memory accesses are issued.
///
/// The analysis is pattern-agnostic (it bounds the worst case); the
/// simulator lets tests exercise several concrete patterns to probe the
/// bound from below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AccessPattern {
    /// All accesses are issued back-to-back at the start of the task —
    /// the most contention-prone pattern (every overlapping task competes
    /// immediately).
    BurstStart,
    /// All accesses are issued at the end of the task.
    BurstEnd,
    /// Accesses are spread evenly across the execution.
    Uniform,
    /// Accesses are placed at uniformly random offsets (deterministic for
    /// a given [`SimConfig::seed`]).
    Random,
}

/// Bank arbitration implemented by the simulated bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BusPolicy {
    /// One flat round-robin pointer per bank (the model behind
    /// `mia-arbiter`'s `RoundRobin`).
    #[default]
    FlatRoundRobin,
    /// Two-level round robin over groups of the given size (the MPPA-256
    /// pair hierarchy behind `mia-arbiter`'s `MppaTree`).
    Tree {
        /// Cores per first-level group (2 on the MPPA-256).
        group: usize,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Where accesses land inside each task's execution.
    pub pattern: AccessPattern,
    /// Bus arbitration of the simulated hardware.
    pub bus: BusPolicy,
    /// PRNG seed for [`AccessPattern::Random`].
    pub seed: u64,
}

impl SimConfig {
    /// Configuration with the given pattern, flat round-robin bus, seed 0.
    pub fn new(pattern: AccessPattern) -> Self {
        SimConfig {
            pattern,
            bus: BusPolicy::FlatRoundRobin,
            seed: 0,
        }
    }

    /// Sets the bus policy.
    pub fn bus(mut self, bus: BusPolicy) -> Self {
        self.bus = bus;
        self
    }

    /// Sets the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(AccessPattern::BurstStart)
    }
}

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A task's memory demand cannot fit inside its WCET: the model
    /// assumes the isolation WCET includes the task's own (uncontended)
    /// access time, so `demand · access_cycles ≤ wcet` must hold.
    DemandExceedsWcet {
        /// The offending task.
        task: TaskId,
        /// Its total demand in cycles.
        demand_cycles: Cycles,
        /// Its WCET in isolation.
        wcet: Cycles,
    },
    /// The schedule does not cover the problem's task set.
    WrongScheduleLength { expected: usize, found: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DemandExceedsWcet {
                task,
                demand_cycles,
                wcet,
            } => write!(
                f,
                "task {task}: demand of {demand_cycles} does not fit in wcet {wcet}"
            ),
            SimError::WrongScheduleLength { expected, found } => {
                write!(f, "schedule covers {found} tasks, problem has {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-task and global outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    start: Vec<Cycles>,
    finish: Vec<Cycles>,
    stall: Vec<Cycles>,
}

impl SimResult {
    /// The instant the task started (its analysed release date).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn start(&self, task: TaskId) -> Cycles {
        self.start[task.index()]
    }

    /// The instant the task completed in this run.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn finish(&self, task: TaskId) -> Cycles {
        self.finish[task.index()]
    }

    /// Cycles the task spent stalled on bank contention (its *observed*
    /// interference).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn stall(&self, task: TaskId) -> Cycles {
        self.stall[task.index()]
    }

    /// The observed response time (`finish - start`).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn response(&self, task: TaskId) -> Cycles {
        self.finish(task) - self.start(task)
    }

    /// Latest finish over all tasks.
    pub fn makespan(&self) -> Cycles {
        self.finish.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// Total stall cycles over all tasks.
    pub fn total_stall(&self) -> Cycles {
        self.stall.iter().sum()
    }

    /// Checks the soundness property against an analysed schedule: every
    /// simulated finish is within the analysed worst case. Returns the
    /// first violating task, if any.
    pub fn first_violation(&self, schedule: &Schedule) -> Option<TaskId> {
        (0..self.finish.len())
            .map(TaskId::from_index)
            .find(|&t| self.finish(t) > schedule.timing(t).finish())
    }
}

/// One task's remaining execution, as a sequence of operations.
struct ExecState {
    task: TaskId,
    /// Compute cycles before the next access (or the tail compute).
    ops: VecDeque<Op>,
    stall: Cycles,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Run for the given number of cycles without touching the bus.
    Compute(u64),
    /// Issue one access to the bank; stalls until granted.
    Access(BankId),
}

/// Builds the op sequence of a task under the configured pattern.
fn build_ops(
    wcet: Cycles,
    demand: impl Iterator<Item = (BankId, u64)>,
    pattern: AccessPattern,
    access_cycles: Cycles,
    rng: &mut StdRng,
) -> Result<VecDeque<Op>, (Cycles, Cycles)> {
    // Flatten the demand into a list of single accesses, round-robin over
    // banks so multi-bank tasks interleave their targets.
    let per_bank: Vec<(BankId, u64)> = demand.collect();
    let total: u64 = per_bank.iter().map(|&(_, n)| n).sum();
    let demand_cycles = access_cycles * total;
    if demand_cycles > wcet {
        return Err((demand_cycles, wcet));
    }
    let mut accesses: Vec<BankId> = Vec::with_capacity(total as usize);
    {
        let mut remaining: Vec<(BankId, u64)> = per_bank;
        while accesses.len() < total as usize {
            for entry in remaining.iter_mut() {
                if entry.1 > 0 {
                    entry.1 -= 1;
                    accesses.push(entry.0);
                }
            }
        }
    }
    let compute_budget = (wcet - demand_cycles).as_u64();
    let mut ops = VecDeque::with_capacity(accesses.len() + 2);
    match pattern {
        AccessPattern::BurstStart => {
            ops.extend(accesses.iter().map(|&b| Op::Access(b)));
            if compute_budget > 0 {
                ops.push_back(Op::Compute(compute_budget));
            }
        }
        AccessPattern::BurstEnd => {
            if compute_budget > 0 {
                ops.push_back(Op::Compute(compute_budget));
            }
            ops.extend(accesses.iter().map(|&b| Op::Access(b)));
        }
        AccessPattern::Uniform => {
            let n = accesses.len() as u64;
            match compute_budget.checked_div(n) {
                // No accesses: the whole budget is one compute segment.
                None => {
                    if compute_budget > 0 {
                        ops.push_back(Op::Compute(compute_budget));
                    }
                }
                Some(chunk) => {
                    let mut leftover = compute_budget - chunk * n;
                    for &b in &accesses {
                        let mut c = chunk;
                        if leftover > 0 {
                            c += 1;
                            leftover -= 1;
                        }
                        if c > 0 {
                            ops.push_back(Op::Compute(c));
                        }
                        ops.push_back(Op::Access(b));
                    }
                }
            }
        }
        AccessPattern::Random => {
            let n = accesses.len();
            if n == 0 {
                if compute_budget > 0 {
                    ops.push_back(Op::Compute(compute_budget));
                }
            } else {
                // Draw gap sizes before each access plus a tail gap.
                let mut gaps = vec![0u64; n + 1];
                for _ in 0..compute_budget {
                    gaps[rng.random_range(0..n + 1)] += 1;
                }
                for (i, &b) in accesses.iter().enumerate() {
                    if gaps[i] > 0 {
                        ops.push_back(Op::Compute(gaps[i]));
                    }
                    ops.push_back(Op::Access(b));
                }
                if gaps[n] > 0 {
                    ops.push_back(Op::Compute(gaps[n]));
                }
            }
        }
    }
    Ok(ops)
}

/// Grant arbitration state of the simulated bus.
struct Bus {
    policy: BusPolicy,
    /// Flat mode: next core index to favour, per bank.
    rr_next: Vec<usize>,
    /// Tree mode: per bank, (next group, next member within each group).
    tree_next: Vec<(usize, Vec<usize>)>,
    groups: usize,
    group_size: usize,
}

impl Bus {
    fn new(policy: BusPolicy, banks: usize, cores: usize) -> Self {
        let group_size = match policy {
            BusPolicy::FlatRoundRobin => 1,
            BusPolicy::Tree { group } => group.max(1),
        };
        let groups = cores.div_ceil(group_size);
        Bus {
            policy,
            rr_next: vec![0; banks],
            tree_next: vec![(0, vec![0; groups]); banks],
            groups,
            group_size,
        }
    }

    /// Picks the granted core among `requesters` (bool per core) for
    /// `bank`, advancing the rotation state.
    fn grant(&mut self, bank: BankId, requesters: &[bool]) -> Option<usize> {
        let cores = requesters.len();
        if cores == 0 {
            return None;
        }
        match self.policy {
            BusPolicy::FlatRoundRobin => {
                let start = self.rr_next[bank.index()];
                for off in 0..cores {
                    let c = (start + off) % cores;
                    if requesters[c] {
                        self.rr_next[bank.index()] = (c + 1) % cores;
                        return Some(c);
                    }
                }
                None
            }
            BusPolicy::Tree { .. } => {
                let (ref mut next_group, ref mut next_member) = self.tree_next[bank.index()];
                // Find the first group (in rotation order) with a
                // requester, then rotate inside that group.
                for goff in 0..self.groups {
                    let g = (*next_group + goff) % self.groups;
                    let base = g * self.group_size;
                    let size = self.group_size.min(cores.saturating_sub(base));
                    if size == 0 {
                        continue;
                    }
                    let start = next_member[g];
                    for moff in 0..size {
                        let m = (start + moff) % size;
                        let c = base + m;
                        if requesters[c] {
                            next_member[g] = (m + 1) % size;
                            *next_group = (g + 1) % self.groups;
                            return Some(c);
                        }
                    }
                }
                None
            }
        }
    }
}

/// Executes `schedule` for `problem` under `config`.
///
/// # Errors
///
/// * [`SimError::WrongScheduleLength`] if the schedule does not cover the
///   task set,
/// * [`SimError::DemandExceedsWcet`] if a task's uncontended access time
///   exceeds its WCET (the model requires the isolation WCET to contain
///   the task's own accesses).
pub fn simulate(
    problem: &Problem,
    schedule: &Schedule,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    run_simulation(problem, schedule, config, &mut NoopRecorder)
}

/// Executes `schedule` like [`simulate`] while recording a full
/// [`SimTrace`]: every start/finish/grant/stall event plus per-bank
/// aggregates.
///
/// # Errors
///
/// Same as [`simulate`].
///
/// # Example
///
/// ```
/// # use mia_model::{BankDemand, BankId, BankPolicy, Cycles, Mapping, Platform, Problem, Task,
/// #                 TaskGraph, Schedule, TaskTiming};
/// # use mia_sim::{simulate_traced, AccessPattern, SimConfig};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut g = TaskGraph::new();
/// # let _ = g.add_task(Task::builder("a").wcet(Cycles(10))
/// #     .private_demand(BankDemand::single(BankId(0), 4)));
/// # let m = Mapping::from_assignment(&g, &[0])?;
/// # let p = Problem::with_policy(g, m, Platform::new(1, 1), BankPolicy::SingleBank)?;
/// # let s = Schedule::from_timings(vec![TaskTiming {
/// #     release: Cycles::ZERO, wcet: Cycles(10), interference: Cycles::ZERO }]);
/// let (result, trace) = simulate_traced(&p, &s, &SimConfig::new(AccessPattern::BurstStart))?;
/// assert_eq!(trace.bank_stats().grants(BankId(0)), 4);
/// assert_eq!(result.total_stall(), Cycles::ZERO);
/// # Ok(())
/// # }
/// ```
pub fn simulate_traced(
    problem: &Problem,
    schedule: &Schedule,
    config: &SimConfig,
) -> Result<(SimResult, SimTrace), SimError> {
    let mut trace = SimTrace::new(problem.platform().banks(), problem.platform().cores());
    let result = run_simulation(problem, schedule, config, &mut trace)?;
    Ok((result, trace))
}

/// Executes `schedule` with a caller-supplied [`Recorder`].
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_with<R>(
    problem: &Problem,
    schedule: &Schedule,
    config: &SimConfig,
    recorder: &mut R,
) -> Result<SimResult, SimError>
where
    R: Recorder + ?Sized,
{
    run_simulation(problem, schedule, config, recorder)
}

fn run_simulation<R>(
    problem: &Problem,
    schedule: &Schedule,
    config: &SimConfig,
    recorder: &mut R,
) -> Result<SimResult, SimError>
where
    R: Recorder + ?Sized,
{
    let graph = problem.graph();
    let mapping = problem.mapping();
    let n = graph.len();
    if schedule.len() != n {
        return Err(SimError::WrongScheduleLength {
            expected: n,
            found: schedule.len(),
        });
    }
    let cores = mapping.cores();
    let banks = problem.platform().banks();
    let access_cycles = problem.platform().access_cycles();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut start = vec![Cycles::ZERO; n];
    let mut finish = vec![Cycles::ZERO; n];
    let mut stall = vec![Cycles::ZERO; n];

    // Per-core cursor into its execution order.
    let mut next_task: Vec<usize> = vec![0; cores];
    // Per-core current execution, if a task is running.
    let mut running: Vec<Option<ExecState>> = (0..cores).map(|_| None).collect();
    // Remaining cycles the bank is busy serving a granted access, and for
    // which core.
    let mut bank_busy: Vec<Option<(usize, u64)>> = vec![None; banks];
    let mut bus = Bus::new(config.bus, banks, cores);

    let mut done = 0usize;
    let mut t = Cycles::ZERO;
    // Upper bound on simulated time to guarantee termination even on a
    // violated schedule: the analysed makespan plus slack.
    let horizon = schedule.makespan() + Cycles(1) + graph.total_wcet();

    while done < n && t <= horizon {
        // Start tasks whose release date is reached (time-triggered).
        for core in 0..cores {
            if running[core].is_some() {
                continue;
            }
            let order = mapping.order(mia_model::CoreId::from_index(core));
            let Some(&task) = order.get(next_task[core]) else {
                continue;
            };
            let release = schedule.timing(task).release;
            if release != t {
                if release < t {
                    // The previous task on this core overran its analysed
                    // window past this release: start immediately (this
                    // only happens when validating an unsound schedule).
                    next_task[core] += 1;
                    start[task.index()] = t;
                    recorder.on_start(t, task, CoreId::from_index(core));
                    let ops = build_ops(
                        graph.task(task).wcet(),
                        problem.demand(task).iter(),
                        config.pattern,
                        access_cycles,
                        &mut rng,
                    )
                    .map_err(|(demand_cycles, wcet)| {
                        SimError::DemandExceedsWcet {
                            task,
                            demand_cycles,
                            wcet,
                        }
                    })?;
                    running[core] = Some(ExecState {
                        task,
                        ops,
                        stall: Cycles::ZERO,
                    });
                }
                continue;
            }
            next_task[core] += 1;
            start[task.index()] = t;
            recorder.on_start(t, task, CoreId::from_index(core));
            let ops = build_ops(
                graph.task(task).wcet(),
                problem.demand(task).iter(),
                config.pattern,
                access_cycles,
                &mut rng,
            )
            .map_err(|(demand_cycles, wcet)| SimError::DemandExceedsWcet {
                task,
                demand_cycles,
                wcet,
            })?;
            running[core] = Some(ExecState {
                task,
                ops,
                stall: Cycles::ZERO,
            });
        }

        // Collect bank requests.
        let mut requests: Vec<Vec<bool>> = vec![vec![false; cores]; banks];
        for core in 0..cores {
            if let Some(exec) = &running[core] {
                if let Some(Op::Access(bank)) = exec.ops.front() {
                    if bank_busy[bank.index()].is_none() {
                        requests[bank.index()][core] = true;
                    }
                }
            }
        }
        // Grant one requester per free bank.
        let mut granted: Vec<Option<usize>> = vec![None; cores];
        for bank in 0..banks {
            if bank_busy[bank].is_some() {
                continue;
            }
            if let Some(core) = bus.grant(BankId::from_index(bank), &requests[bank]) {
                bank_busy[bank] = Some((core, access_cycles.as_u64()));
                granted[core] = Some(bank);
                recorder.on_grant(t, BankId::from_index(bank), CoreId::from_index(core));
            }
        }

        // Advance every core by one cycle.
        for core in 0..cores {
            let Some(exec) = running[core].as_mut() else {
                continue;
            };
            match exec.ops.front_mut() {
                None => {}
                Some(Op::Compute(c)) => {
                    *c -= 1;
                    if *c == 0 {
                        exec.ops.pop_front();
                    }
                }
                Some(Op::Access(bank)) if granted[core].is_none() => {
                    // Waiting for the bank: stalled unless our access is
                    // the one currently in service.
                    let bank = *bank;
                    let in_service = bank_busy.iter().any(|b| {
                        b.map(|(c, remaining)| c == core && remaining > 0)
                            .unwrap_or(false)
                    });
                    if !in_service {
                        exec.stall += Cycles(1);
                        recorder.on_stall(t, bank, CoreId::from_index(core));
                    }
                }
                Some(Op::Access(_)) => {}
            }
        }
        // Progress bank service; completing an access retires the op.
        #[allow(clippy::needless_range_loop)]
        for bank in 0..banks {
            if let Some((core, remaining)) = bank_busy[bank].as_mut() {
                *remaining -= 1;
                if *remaining == 0 {
                    let core = *core;
                    bank_busy[bank] = None;
                    if let Some(exec) = running[core].as_mut() {
                        debug_assert!(matches!(exec.ops.front(), Some(Op::Access(_))));
                        exec.ops.pop_front();
                    }
                }
            }
        }

        t += Cycles(1);

        // Retire finished tasks.
        #[allow(clippy::needless_range_loop)]
        for core in 0..cores {
            let finished = running[core]
                .as_ref()
                .map(|e| e.ops.is_empty())
                .unwrap_or(false);
            if finished {
                let exec = running[core].take().expect("checked above");
                finish[exec.task.index()] = t;
                stall[exec.task.index()] = exec.stall;
                recorder.on_finish(t, exec.task, CoreId::from_index(core));
                done += 1;
            }
        }
    }

    Ok(SimResult {
        start,
        finish,
        stall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{
        BankDemand, BankPolicy, Mapping, Platform, Schedule, Task, TaskGraph, TaskTiming,
    };

    /// Two tasks, distinct cores, both hammering bank 0.
    fn contention_problem(accesses: u64) -> Problem {
        let mut g = TaskGraph::new();
        let _ = g.add_task(
            Task::builder("a")
                .wcet(Cycles(100))
                .private_demand(BankDemand::single(BankId(0), accesses)),
        );
        let _ = g.add_task(
            Task::builder("b")
                .wcet(Cycles(100))
                .private_demand(BankDemand::single(BankId(0), accesses)),
        );
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        Problem::with_policy(g, m, Platform::new(2, 2), BankPolicy::SingleBank).unwrap()
    }

    fn schedule_both_at_zero(p: &Problem, response: u64) -> Schedule {
        Schedule::from_timings(
            p.graph()
                .iter()
                .map(|(_, t)| TaskTiming {
                    release: Cycles::ZERO,
                    wcet: t.wcet(),
                    interference: Cycles(response) - t.wcet(),
                })
                .collect(),
        )
    }

    #[test]
    fn isolated_task_takes_exactly_its_wcet() {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            Task::builder("a")
                .wcet(Cycles(40))
                .private_demand(BankDemand::single(BankId(0), 8)),
        );
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::with_policy(g, m, Platform::new(1, 1), BankPolicy::SingleBank).unwrap();
        let s = Schedule::from_timings(vec![TaskTiming {
            release: Cycles(3),
            wcet: Cycles(40),
            interference: Cycles::ZERO,
        }]);
        for pattern in [
            AccessPattern::BurstStart,
            AccessPattern::BurstEnd,
            AccessPattern::Uniform,
            AccessPattern::Random,
        ] {
            let r = simulate(&p, &s, &SimConfig::new(pattern)).unwrap();
            assert_eq!(r.start(a), Cycles(3), "{pattern:?}");
            assert_eq!(r.finish(a), Cycles(43), "{pattern:?}");
            assert_eq!(r.stall(a), Cycles::ZERO, "{pattern:?}");
        }
    }

    #[test]
    fn burst_contention_matches_round_robin_intuition() {
        // Both tasks burst 10 accesses at t=0 on one bank: perfect
        // round-robin interleaving stalls each task at most 10 cycles.
        let p = contention_problem(10);
        let s = schedule_both_at_zero(&p, 120);
        let r = simulate(&p, &s, &SimConfig::new(AccessPattern::BurstStart)).unwrap();
        let total: u64 = (0..2).map(|i| r.stall(TaskId(i)).as_u64()).sum();
        assert!(total > 0, "contention must stall someone");
        for i in 0..2 {
            assert!(r.stall(TaskId(i)) <= Cycles(10));
            assert!(r.response(TaskId(i)) <= Cycles(110));
        }
        assert!(r.first_violation(&s).is_none());
    }

    #[test]
    fn staggered_tasks_do_not_contend() {
        let p = contention_problem(10);
        let timings = vec![
            TaskTiming {
                release: Cycles::ZERO,
                wcet: Cycles(100),
                interference: Cycles(10),
            },
            TaskTiming {
                release: Cycles(110),
                wcet: Cycles(100),
                interference: Cycles(10),
            },
        ];
        let s = Schedule::from_timings(timings);
        let r = simulate(&p, &s, &SimConfig::new(AccessPattern::BurstStart)).unwrap();
        assert_eq!(r.total_stall(), Cycles::ZERO);
        assert_eq!(r.finish(TaskId(1)), Cycles(210));
    }

    #[test]
    fn demand_exceeding_wcet_is_rejected() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(
            Task::builder("fat")
                .wcet(Cycles(5))
                .private_demand(BankDemand::single(BankId(0), 50)),
        );
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::with_policy(g, m, Platform::new(1, 1), BankPolicy::SingleBank).unwrap();
        let s = Schedule::from_timings(vec![TaskTiming {
            release: Cycles::ZERO,
            wcet: Cycles(5),
            interference: Cycles::ZERO,
        }]);
        let err = simulate(&p, &s, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::DemandExceedsWcet { .. }));
    }

    #[test]
    fn wrong_schedule_length_is_rejected() {
        let p = contention_problem(1);
        let s = Schedule::from_timings(vec![]);
        assert!(matches!(
            simulate(&p, &s, &SimConfig::default()),
            Err(SimError::WrongScheduleLength { .. })
        ));
    }

    #[test]
    fn random_pattern_is_deterministic_per_seed() {
        let p = contention_problem(20);
        let s = schedule_both_at_zero(&p, 140);
        let c1 = SimConfig::new(AccessPattern::Random).seed(7);
        let r1 = simulate(&p, &s, &c1).unwrap();
        let r2 = simulate(&p, &s, &c1).unwrap();
        assert_eq!(r1, r2);
        let r3 = simulate(&p, &s, &SimConfig::new(AccessPattern::Random).seed(8)).unwrap();
        // Different seed usually differs; at minimum it must stay sound.
        let _ = r3;
    }

    #[test]
    fn tree_bus_grants_fairly_across_groups() {
        // 4 cores in pairs; cores 0, 2 request the same bank forever-ish:
        // they are in different groups, so they alternate like flat RR.
        let mut g = TaskGraph::new();
        for i in 0..4 {
            g.add_task(
                Task::builder(format!("t{i}"))
                    .wcet(Cycles(64))
                    .private_demand(BankDemand::single(BankId(0), 16)),
            );
        }
        let m = Mapping::from_assignment(&g, &[0, 1, 2, 3]).unwrap();
        let p = Problem::with_policy(g, m, Platform::new(4, 4), BankPolicy::SingleBank).unwrap();
        let timings: Vec<TaskTiming> = (0..4)
            .map(|_| TaskTiming {
                release: Cycles::ZERO,
                wcet: Cycles(64),
                interference: Cycles(48),
            })
            .collect();
        let s = Schedule::from_timings(timings);
        let cfg = SimConfig::new(AccessPattern::BurstStart).bus(BusPolicy::Tree { group: 2 });
        let r = simulate(&p, &s, &cfg).unwrap();
        // Four equal burst competitors: each waits at most 3 slots per
        // access → stall ≤ 48.
        for i in 0..4 {
            assert!(
                r.stall(TaskId(i)) <= Cycles(48),
                "task {i}: {:?}",
                r.stall(TaskId(i))
            );
        }
        assert!(r.first_violation(&s).is_none());
    }

    #[test]
    fn zero_demand_zero_wcet_task() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("nop").wcet(Cycles(0)));
        let m = Mapping::from_assignment(&g, &[0]).unwrap();
        let p = Problem::new(g, m, Platform::new(1, 1)).unwrap();
        let s = Schedule::from_timings(vec![TaskTiming {
            release: Cycles(4),
            wcet: Cycles(0),
            interference: Cycles::ZERO,
        }]);
        let r = simulate(&p, &s, &SimConfig::default()).unwrap();
        assert_eq!(r.start(a), Cycles(4));
        // A zero-length task retires on the cycle after its release tick.
        assert!(r.finish(a) <= Cycles(5));
    }
}
