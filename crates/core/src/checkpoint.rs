//! Checkpointed delta re-analysis: snapshot the cursor driver at layer
//! boundaries, resume it after a local mapping change.
//!
//! The DSE inner loop evaluates thousands of candidates that each differ
//! from the last accepted mapping by **one local move** (a migrate, swap
//! or reorder). A full re-analysis repeats all the cursor work that the
//! move provably cannot have changed: every open/close/account decision
//! taken before the first touched order position is read is bit-identical
//! between the two mappings. [`CheckpointLog`] captures the driver state
//! ([`Checkpoint`]) at cursor steps during a recorded run; the cursor
//! driver (`drive` in `engine.rs`) restarts the loop from the latest
//! checkpoint that provably precedes the change and re-analyzes only the
//! suffix.
//!
//! # Invalidation rule
//!
//! A checkpoint stores `next_idx[core]`: how far each per-core execution
//! order had been consumed when it was taken. Positions `< next_idx` were
//! opened (their content shaped the prefix); position `next_idx` may have
//! been *read* while the core idled (its head was examined and found
//! blocked or absent). A checkpoint therefore admits a move only when
//! every first-changed `(core, position)` satisfies
//! `position > next_idx[core]` — strictly beyond everything the prefix
//! could have observed. When no recorded checkpoint qualifies, the caller
//! falls back to a full (re-recorded) analysis.
//!
//! # Granularity
//!
//! Recording every cursor step would keep O(steps) snapshots; instead the
//! log keeps a bounded number of evenly strided checkpoints: it records
//! every `stride` steps and, when the capacity is reached, doubles the
//! stride and drops the now-off-stride half — before building the
//! snapshot of a step the doubling would drop. Each snapshot is
//! O(cores × banks) — independent of the task count — and lays its busy
//! slots' per-bank interference and merge entries out in one flat
//! buffer, so a log for a 16-core platform is a few kilobytes regardless
//! of `n`.
//!
//! # Sharing
//!
//! A resumed run re-records only its suffix: [`CheckpointLog::branch_at`]
//! shares the checkpoints of the prefix with the log it branches from
//! (each is an [`Arc`]) instead of copying them.

use std::sync::Arc;

use mia_model::{BankId, CoreId, Cycles, TaskId};

use crate::AnalysisStats;

/// Frozen interference state of one busy alive slot: everything the
/// driver needs to rebuild the slot mid-run (see `AliveSlot::restore`).
/// Its entries live in the owning [`Checkpoint`]'s flat buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotSnapshot {
    /// The occupying task.
    pub(crate) task: TaskId,
    /// Its fixed release date.
    pub(crate) release: Cycles,
    /// Total interference accumulated so far.
    pub(crate) total_inter: Cycles,
    /// `entries[lo..mid]`: per-bank interference already charged
    /// (current-generation entries), as `(bank, slot core, cycles)`.
    /// `entries[mid..hi]`: aggregated interferer demand per
    /// `(bank, core)`, in the merge's first-touch order (see
    /// `DemandMerge::export_into`).
    pub(crate) lo: u32,
    pub(crate) mid: u32,
    pub(crate) hi: u32,
}

/// Driver state at the top of one cursor iteration: enough to re-enter
/// the cursor loop (`crate::engine`, private) as if the prefix had
/// just been executed.
///
/// Opaque outside `mia-core`; obtained from a [`CheckpointLog`] filled by
/// a recorded analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Completed cursor steps before this iteration (`stats.cursor_steps`
    /// at capture time).
    pub(crate) step: usize,
    /// The cursor position about to be processed.
    pub(crate) t: Cycles,
    /// Consumed prefix length of each per-core execution order.
    pub(crate) next_idx: Vec<usize>,
    /// Cursor position into the sorted future-minimal-release list.
    pub(crate) mr_ptr: usize,
    /// Work counters accumulated over the prefix.
    pub(crate) stats: AnalysisStats,
    /// Busy slots at capture time, indexed by core.
    pub(crate) slots: Vec<Option<SlotSnapshot>>,
    /// The slots' interference and merge entries, back to back (see
    /// [`SlotSnapshot`]).
    pub(crate) entries: Vec<(BankId, CoreId, u64)>,
}

impl Checkpoint {
    /// Completed cursor steps before this checkpoint's iteration.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The cursor instant this checkpoint re-enters the loop at.
    pub fn cursor(&self) -> Cycles {
        self.t
    }

    /// True when resuming here is cheaper than a full run (a step-0
    /// checkpoint *is* a full run).
    pub fn skips_work(&self) -> bool {
        self.step > 0
    }

    /// True when this checkpoint's prefix provably cannot observe any of
    /// the `(core, order position)` pairs in `changed` — the delta
    /// invalidation rule (see the module docs).
    pub fn admits(&self, changed: &[(usize, usize)]) -> bool {
        changed
            .iter()
            .all(|&(core, pos)| self.next_idx.get(core).is_some_and(|&idx| pos > idx))
    }

    /// The per-bank interference entries of `slot`.
    pub(crate) fn bank_inter(&self, slot: &SlotSnapshot) -> &[(BankId, CoreId, u64)] {
        &self.entries[slot.lo as usize..slot.mid as usize]
    }

    /// The merge entries of `slot`.
    pub(crate) fn merge(&self, slot: &SlotSnapshot) -> &[(BankId, CoreId, u64)] {
        &self.entries[slot.mid as usize..slot.hi as usize]
    }
}

/// Default number of checkpoints a log retains before doubling its
/// stride. 48 snapshots of O(cores × banks) state keep resume granularity
/// within ~2 % of the run for typical step counts while staying a few
/// kilobytes in total.
const DEFAULT_CAPACITY: usize = 48;

/// A bounded, evenly strided collection of [`Checkpoint`]s recorded
/// during one analysis, ascending by step.
#[derive(Debug, Clone)]
pub struct CheckpointLog {
    capacity: usize,
    stride: usize,
    entries: Vec<Arc<Checkpoint>>,
}

impl Default for CheckpointLog {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointLog {
    /// An empty log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty log retaining at most `capacity` checkpoints (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CheckpointLog {
            capacity: capacity.max(1),
            stride: 1,
            entries: Vec::new(),
        }
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every checkpoint but keeps the capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stride = 1;
    }

    /// The retained checkpoints, ascending by step.
    pub fn checkpoints(&self) -> &[Arc<Checkpoint>] {
        &self.entries
    }

    /// The latest checkpoint whose prefix is unaffected by a move that
    /// first touches the given `(core, order position)` pairs, or `None`
    /// when even the step-0 state is invalidated.
    pub fn best_for(&self, changed: &[(usize, usize)]) -> Option<&Checkpoint> {
        self.entries
            .iter()
            .rev()
            .find(|c| c.admits(changed))
            .map(|c| &**c)
    }

    /// The log up to (and including) `step`, ready to record the resumed
    /// suffix on top of the shared prefix. The prefix's checkpoints are
    /// shared with `self`, not copied.
    pub fn branch_at(&self, step: usize) -> CheckpointLog {
        let keep = self.entries.partition_point(|c| c.step <= step);
        CheckpointLog {
            capacity: self.capacity,
            stride: self.stride,
            entries: self.entries[..keep].to_vec(),
        }
    }

    /// True when the driver should snapshot at `step`. When the log is
    /// full this first doubles the stride, dropping the off-stride half,
    /// so a step the doubling would drop at once is never snapshotted.
    pub(crate) fn wants(&mut self, step: usize) -> bool {
        if !step.is_multiple_of(self.stride) || self.entries.last().is_some_and(|c| c.step >= step)
        {
            return false;
        }
        if self.entries.len() == self.capacity {
            self.stride *= 2;
            let stride = self.stride;
            self.entries.retain(|c| c.step.is_multiple_of(stride));
            return step.is_multiple_of(stride);
        }
        true
    }

    /// Appends `checkpoint`, whose step [`CheckpointLog::wants`] just
    /// accepted.
    pub(crate) fn push(&mut self, checkpoint: Checkpoint) {
        debug_assert!(self.entries.len() < self.capacity);
        debug_assert!(checkpoint.step.is_multiple_of(self.stride));
        self.entries.push(Arc::new(checkpoint));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the driver does at `checkpoint.step`.
    fn record(log: &mut CheckpointLog, checkpoint: Checkpoint) {
        if log.wants(checkpoint.step) {
            log.push(checkpoint);
        }
    }

    fn checkpoint(step: usize, next_idx: Vec<usize>) -> Checkpoint {
        Checkpoint {
            step,
            t: Cycles(step as u64),
            next_idx,
            mr_ptr: 0,
            stats: AnalysisStats::default(),
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    #[test]
    fn admits_only_positions_strictly_beyond_the_consumed_prefix() {
        let c = checkpoint(3, vec![2, 0]);
        // Position 2 on core 0 may have been read while idle: rejected.
        assert!(!c.admits(&[(0, 2)]));
        assert!(c.admits(&[(0, 3)]));
        // Core 1 never advanced: only positions >= 1 are safe.
        assert!(!c.admits(&[(1, 0)]));
        assert!(c.admits(&[(1, 1)]));
        // Every pair must qualify.
        assert!(!c.admits(&[(0, 3), (1, 0)]));
        // Unknown cores never qualify.
        assert!(!c.admits(&[(7, 100)]));
        // An empty change admits trivially.
        assert!(c.admits(&[]));
    }

    #[test]
    fn best_for_prefers_the_latest_admitting_checkpoint() {
        let mut log = CheckpointLog::new();
        record(&mut log, checkpoint(0, vec![0]));
        record(&mut log, checkpoint(4, vec![2]));
        record(&mut log, checkpoint(8, vec![5]));
        assert_eq!(log.best_for(&[(0, 6)]).unwrap().step, 8);
        assert_eq!(log.best_for(&[(0, 4)]).unwrap().step, 4);
        assert_eq!(log.best_for(&[(0, 1)]).unwrap().step, 0);
        assert!(log.best_for(&[(0, 0)]).is_none());
    }

    #[test]
    fn capacity_doubles_the_stride_and_drops_the_off_stride_half() {
        let mut log = CheckpointLog::with_capacity(4);
        for step in 0..4 {
            assert!(log.wants(step));
            record(&mut log, checkpoint(step, vec![step]));
        }
        assert_eq!(log.len(), 4);
        // The fifth record triggers the doubling: 1,3 are dropped and the
        // new step must itself be on-stride to be kept.
        assert!(log.wants(4));
        record(&mut log, checkpoint(4, vec![4]));
        let steps: Vec<usize> = log.entries.iter().map(|c| c.step).collect();
        assert_eq!(steps, vec![0, 2, 4]);
        assert_eq!(log.stride, 2);
        assert!(!log.wants(5), "off-stride steps are not recorded");
        assert!(!log.wants(4), "already-recorded steps are not repeated");
    }

    #[test]
    fn a_full_log_is_not_snapshotted_at_a_step_its_doubling_drops() {
        let mut log = CheckpointLog::with_capacity(4);
        for step in 0..4 {
            record(&mut log, checkpoint(step, vec![step]));
        }
        // Step 5 is off the doubled stride: the log halves but wants no
        // snapshot, exactly as recording and dropping it would leave it.
        assert!(!log.wants(5));
        let steps: Vec<usize> = log.entries.iter().map(|c| c.step).collect();
        assert_eq!(steps, vec![0, 2]);
        assert_eq!(log.stride, 2);
        assert!(log.wants(6));
    }

    #[test]
    fn branch_at_keeps_the_shared_prefix_only() {
        let mut log = CheckpointLog::new();
        for step in 0..6 {
            record(&mut log, checkpoint(step, vec![step]));
        }
        let mut branch = log.branch_at(3);
        let steps: Vec<usize> = branch.entries.iter().map(|c| c.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3]);
        // The prefix is shared, not copied.
        assert!(Arc::ptr_eq(&branch.entries[3], &log.entries[3]));
        // The original is untouched.
        assert_eq!(log.len(), 6);
        // The branch keeps recording where the prefix left off.
        assert!(branch.wants(4));
    }

    #[test]
    fn clear_resets_the_stride() {
        let mut log = CheckpointLog::with_capacity(2);
        record(&mut log, checkpoint(0, vec![0]));
        record(&mut log, checkpoint(1, vec![0]));
        record(&mut log, checkpoint(2, vec![0]));
        assert_eq!(log.stride, 2);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.stride, 1);
    }
}
