//! Shared bookkeeping for the alive set `A` of Algorithm 1, used by the
//! scanning cursor of [`crate::analyze`], the event-driven cursor of
//! [`crate::analyze_event_driven`] and the parallel layer engine of
//! [`crate::analyze_parallel`].
//!
//! # Slots, not tasks
//!
//! The alive set holds at most one task per core, so the bookkeeping
//! lives in **per-core slots** ([`AliveSlot`]) that are allocated once at
//! the start of an analysis and reused for every task the core executes.
//! All per-task state — per-bank interference and the merged interferer
//! demands ([`DemandMerge`]) — is stored in dense generation-stamped
//! buffers of O(banks × cores): opening a task on a slot is O(1) and the
//! analysis hot path performs **no heap allocation at all** after the
//! slots are built. (The previous design rebuilt a `BTreeMap` +
//! `Vec<InterfererDemand>` per task pair, which dominated the allocator
//! beyond ~10k tasks.)
//!
//! # Destination-major accounting
//!
//! When the cursor opens tasks at an instant, every (destination,
//! source) pair of alive tasks must be accounted exactly once
//! (Algorithm 1, lines 17–23). [`account_newly`] performs that phase
//! **grouped by destination slot**: each destination's updates depend
//! only on its own slot plus the immutable problem, so destinations are
//! independent of each other. That grouping is what makes the parallel
//! engine possible — the alive set at an instant is an anti-chain (a
//! "layer") of the DAG, and each of its members can be updated by a
//! different worker — while keeping the per-destination source order
//! *identical* to the sequential pair order, so results are bit-exact in
//! every mode.
//!
//! Every pair is offered exactly once by construction: a destination that
//! just opened takes the lower newly opened cores first, then every other
//! alive core *except* those, and an older destination takes only the
//! newly opened cores. No per-task "already accounted" set is kept.
//!
//! # The accounting rule
//!
//! [`Accounting`] resolves once per run how a source's demand on a bank
//! becomes interference (see [`InterferenceMode`]):
//!
//! * non-additive arbiter (`mppa`, `fp`): the source is merged into the
//!   per-core "single big task" and `IBUS` is re-evaluated on the whole
//!   merged set of the bank, O(cores) per update;
//! * additive arbiter ([`Arbiter::is_additive`]): the bank's bound is a
//!   sum of one term per interfering core, so only the source core's term
//!   changes — `old − IBUS({c: prev}) + IBUS({c: prev + d})`, O(1) per
//!   update and exact in integer arithmetic;
//! * [`InterferenceMode::PairwiseAdditive`]: each source task adds its own
//!   term, without merging.

use mia_model::arbiter::{additive_update, Arbiter, InterfererDemand};
use mia_model::scratch::DemandMerge;
use mia_model::{BankId, CoreId, Cycles, Problem, TaskId};

use crate::checkpoint::SlotSnapshot;
use crate::{AnalysisStats, InterferenceMode, Observer};

/// Per-core bookkeeping slot for the alive task currently executing on
/// that core (if any). See the [module documentation](self).
pub(crate) struct AliveSlot {
    core: CoreId,
    /// True while a task occupies the slot.
    pub(crate) busy: bool,
    /// The occupying task (meaningless while `!busy`).
    pub(crate) task: TaskId,
    /// Its fixed release date.
    pub(crate) release: Cycles,
    /// Total interference across banks accumulated so far.
    pub(crate) total_inter: Cycles,
    /// Bumped on every open; stamps below recognise stale entries.
    generation: u32,
    /// Interference per bank (`τ.interferences[b]`), generation-stamped.
    bank_inter: Vec<Cycles>,
    bank_stamp: Vec<u32>,
    /// Aggregated interferer demand per bank and core
    /// (`τ.interfers_with[b]`, merged per core following §II.C).
    merge: DemandMerge,
}

/// How a run turns one source's bank demand into interference: the
/// [`InterferenceMode`] combined with [`Arbiter::is_additive`], resolved
/// once per run so the per-bank hot path makes no virtual call to decide.
/// See the [module documentation](self).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Accounting {
    rule: Rule,
    /// The platform's cycles per access (`IBUS`'s `access_cycles`).
    access: Cycles,
}

#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Merge per core, re-evaluate `IBUS` on the bank's merged set.
    Merged,
    /// Merge per core, swap the source core's additive term.
    MergedAdditive,
    /// One additive term per source task, no merging.
    Pairwise,
}

impl Accounting {
    /// The rule for analysing `problem` under `arbiter` in `mode`.
    pub(crate) fn new<A: Arbiter + ?Sized>(
        problem: &Problem,
        arbiter: &A,
        mode: InterferenceMode,
    ) -> Self {
        let rule = match mode {
            InterferenceMode::AggregateByCore if arbiter.is_additive() => Rule::MergedAdditive,
            InterferenceMode::AggregateByCore => Rule::Merged,
            InterferenceMode::PairwiseAdditive => Rule::Pairwise,
        };
        Accounting {
            rule,
            access: problem.platform().access_cycles(),
        }
    }
}

impl AliveSlot {
    /// Creates an empty slot for `core` on a `banks × cores` platform.
    /// All buffers are sized here, once.
    pub(crate) fn new(core: CoreId, banks: usize, cores: usize) -> Self {
        AliveSlot {
            core,
            busy: false,
            task: TaskId(0),
            release: Cycles::ZERO,
            total_inter: Cycles::ZERO,
            generation: 1,
            bank_inter: vec![Cycles::ZERO; banks],
            bank_stamp: vec![0; banks],
            merge: DemandMerge::new(banks, cores),
        }
    }

    /// Builds one slot per core for `problem`.
    pub(crate) fn for_problem(problem: &Problem) -> Vec<AliveSlot> {
        let cores = problem.mapping().cores();
        let banks = problem.platform().banks();
        (0..cores)
            .map(|c| AliveSlot::new(CoreId::from_index(c), banks, cores))
            .collect()
    }

    /// Occupies the slot with `task` released at `release`; O(1).
    pub(crate) fn open(&mut self, task: TaskId, release: Cycles) {
        debug_assert!(!self.busy, "core {} already busy", self.core);
        if self.generation == u32::MAX {
            self.generation = 0;
            self.bank_stamp.iter_mut().for_each(|s| *s = 0);
        }
        self.generation += 1;
        self.busy = true;
        self.task = task;
        self.release = release;
        self.total_inter = Cycles::ZERO;
        self.merge.reset();
    }

    /// Releases the slot; its buffers are reused by the next open.
    pub(crate) fn close(&mut self) {
        self.busy = false;
    }

    /// The finish date of the occupying task given its WCET.
    pub(crate) fn finish(&self, wcet: Cycles) -> Cycles {
        self.release + wcet + self.total_inter
    }

    /// Freezes the busy slot's interference state for a checkpoint. Only
    /// current-generation entries are captured. No record of which
    /// sources were accounted is needed: every source task enters the
    /// alive set exactly once per run, and [`account_destination`] offers
    /// each pair exactly once, so a source accounted in the prefix is never
    /// offered to this destination again in the resumed suffix.
    pub(crate) fn snapshot(&self) -> SlotSnapshot {
        debug_assert!(self.busy, "snapshotting an empty slot");
        SlotSnapshot {
            task: self.task,
            release: self.release,
            total_inter: self.total_inter,
            bank_inter: self
                .bank_stamp
                .iter()
                .enumerate()
                .filter(|&(_, &stamp)| stamp == self.generation)
                .map(|(bank, _)| (BankId::from_index(bank), self.bank_inter[bank]))
                .collect(),
            merge: self.merge.export(),
        }
    }

    /// Re-occupies a fresh slot from a checkpoint snapshot, as if the
    /// recorded prefix had opened the task and accounted its interferers
    /// here.
    pub(crate) fn restore(&mut self, snap: &SlotSnapshot) {
        self.open(snap.task, snap.release);
        self.total_inter = snap.total_inter;
        for &(bank, inter) in &snap.bank_inter {
            self.bank_inter_set(bank, inter);
        }
        self.merge.restore(&snap.merge);
    }

    /// Accounts `src_task` (alive on `src_core`) as an interferer of this
    /// slot's task — one direction of Algorithm 1's lines 17–23. Callers
    /// offer each pair once (see [`account_destination`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn account<A, O>(
        &mut self,
        problem: &Problem,
        arbiter: &A,
        acct: Accounting,
        src_task: TaskId,
        src_core: CoreId,
        observer: &mut O,
        stats: &mut AnalysisStats,
    ) where
        A: Arbiter + ?Sized,
        O: Observer + ?Sized,
    {
        debug_assert!(self.busy, "accounting on an empty slot");
        stats.pairs_considered += 1;

        // One merge pass over the two bank-sorted demand vectors: only
        // shared banks interfere (line 20).
        let mut dest_demand = problem.demand(self.task).iter().peekable();
        for (bank, d_src) in problem.demand(src_task).iter() {
            while dest_demand.next_if(|&(b, _)| b < bank).is_some() {}
            let Some(&(dest_bank, d_dest)) = dest_demand.peek() else {
                break;
            };
            if dest_bank != bank || d_dest == 0 {
                continue;
            }
            let old = self.bank_inter_get(bank);
            let new_inter = match acct.rule {
                Rule::Merged => {
                    // Merge into the per-core "single big task" and
                    // re-evaluate IBUS on the whole set.
                    self.merge.add(bank, src_core, d_src);
                    arbiter.bank_interference(
                        self.core,
                        d_dest,
                        self.merge.bank_set(bank),
                        acct.access,
                    )
                }
                Rule::MergedAdditive => {
                    // Additive: only the source core's term changes.
                    let prev = self.merge.get(bank, src_core);
                    self.merge.add(bank, src_core, d_src);
                    let from = InterfererDemand {
                        core: src_core,
                        accesses: prev,
                    };
                    additive_update(arbiter, self.core, d_dest, old, from, d_src, acct.access)
                }
                Rule::Pairwise => {
                    // Every source task adds a term of its own.
                    let from = InterfererDemand {
                        core: src_core,
                        accesses: 0,
                    };
                    additive_update(arbiter, self.core, d_dest, old, from, d_src, acct.access)
                }
            };
            stats.ibus_calls += 1;
            self.bank_inter_set(bank, new_inter);
            // Monotonicity is an arbiter contract; clamp defensively so a
            // faulty arbiter cannot make the accounting underflow.
            let new_inter = new_inter.max(old);
            self.total_inter = self.total_inter + new_inter - old;
            observer.on_interference(self.task, bank, self.total_inter);
        }
    }

    #[inline]
    fn bank_inter_get(&self, bank: BankId) -> Cycles {
        if self.bank_stamp[bank.index()] == self.generation {
            self.bank_inter[bank.index()]
        } else {
            Cycles::ZERO
        }
    }

    #[inline]
    fn bank_inter_set(&mut self, bank: BankId, value: Cycles) {
        self.bank_stamp[bank.index()] = self.generation;
        self.bank_inter[bank.index()] = value;
    }
}

/// The source order [`account_newly`] uses for one destination: first the
/// newly opened tasks on lower-numbered cores, then — only when the
/// destination itself just opened — every other alive core in ascending
/// order, skipping the ones the first loop took. This is exactly the
/// per-destination subsequence of the sequential pair order of
/// Algorithm 1's lines 17–23, each pair once, so accounting destinations
/// in any order (or in parallel) yields bit-identical slots.
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_destination<A, O>(
    problem: &Problem,
    arbiter: &A,
    acct: Accounting,
    dest: &mut AliveSlot,
    dest_idx: usize,
    dest_is_new: bool,
    newly: &[usize],
    occupants: &[Option<TaskId>],
    observer: &mut O,
    stats: &mut AnalysisStats,
) where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    let mut account = |dest: &mut AliveSlot, core: usize, observer: &mut O| {
        let src = occupants[core].expect("source core is occupied");
        dest.account(
            problem,
            arbiter,
            acct,
            src,
            CoreId::from_index(core),
            observer,
            stats,
        );
    };
    if dest_is_new {
        let earlier = &newly[..newly.partition_point(|&n| n < dest_idx)];
        for &n in earlier {
            account(dest, n, observer);
        }
        // `earlier` is ascending, so one cursor over it finds the cores
        // to skip.
        let mut taken = earlier.iter().peekable();
        for (other, occ) in occupants.iter().enumerate() {
            if taken.next_if_eq(&&other).is_some() || occ.is_none() || other == dest_idx {
                continue;
            }
            account(dest, other, observer);
        }
    } else {
        for &n in newly {
            if n != dest_idx {
                account(dest, n, observer);
            }
        }
    }
}

/// Runs the interference phase of one cursor step: accounts every pair
/// involving a newly opened task, destination by destination.
///
/// `newly` must be ascending (the open loop produces it that way).
/// `occupants` is refreshed in place from the slots. Destinations whose
/// total interference changed are appended to `dirty` (cleared first) —
/// the event-driven cursor uses them to refresh its heap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_newly<A, O>(
    problem: &Problem,
    arbiter: &A,
    acct: Accounting,
    slots: &mut [AliveSlot],
    newly: &[usize],
    occupants: &mut Vec<Option<TaskId>>,
    observer: &mut O,
    stats: &mut AnalysisStats,
    dirty: &mut Vec<usize>,
) where
    A: Arbiter + ?Sized,
    O: Observer + ?Sized,
{
    dirty.clear();
    if newly.is_empty() {
        return;
    }
    debug_assert!(newly.windows(2).all(|w| w[0] < w[1]), "newly not ascending");
    occupants.clear();
    occupants.extend(slots.iter().map(|s| s.busy.then_some(s.task)));

    for (dest_idx, dest) in slots.iter_mut().enumerate() {
        if !dest.busy {
            continue;
        }
        let dest_is_new = newly.binary_search(&dest_idx).is_ok();
        let before = dest.total_inter;
        account_destination(
            problem,
            arbiter,
            acct,
            dest,
            dest_idx,
            dest_is_new,
            newly,
            occupants,
            observer,
            stats,
        );
        if dest.total_inter != before {
            dirty.push(dest_idx);
        }
    }
}
