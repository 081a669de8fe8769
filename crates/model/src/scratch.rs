//! Reusable scratch buffers for the interference-accounting hot paths.
//!
//! Both analysis crates spend most of their time merging interferer
//! demands per memory bank and core before calling the arbiter's `IBUS`
//! function. Naively that merge is a fresh map plus a fresh
//! [`InterfererDemand`] vector **per task pair**, which dominates the
//! allocator at 32k–100k tasks. [`DemandMerge`] replaces those throwaway
//! structures with dense, generation-stamped buffers sized once per
//! analysis (`banks × cores` entries) and reused for every task:
//!
//! * `mia-core` keeps one `DemandMerge` per alive slot (one per core) and
//!   resets it each time the slot opens a new task,
//! * `mia-baseline` keeps one per analysis run and resets it for every
//!   interference evaluation.
//!
//! Resetting is O(1): a generation counter is bumped and stale entries are
//! recognised by their stamp, so no buffer is ever cleared element by
//! element on the hot path.
//!
//! # Example
//!
//! ```
//! use mia_model::scratch::DemandMerge;
//! use mia_model::{BankId, CoreId};
//!
//! let mut merge = DemandMerge::new(2, 4);
//! merge.add(BankId(1), CoreId(3), 100);
//! merge.add(BankId(1), CoreId(0), 25);
//! merge.add(BankId(1), CoreId(3), 10);
//! assert_eq!(merge.get(BankId(1), CoreId(3)), 110);
//!
//! // The aggregated interferer set for a bank, in ascending core order —
//! // ready to hand to `Arbiter::bank_interference`.
//! let set = merge.bank_set(BankId(1));
//! assert_eq!(set.len(), 2);
//! assert_eq!((set[0].core, set[0].accesses), (CoreId(0), 25));
//! assert_eq!((set[1].core, set[1].accesses), (CoreId(3), 110));
//!
//! // O(1) reuse for the next task.
//! merge.reset();
//! assert_eq!(merge.get(BankId(1), CoreId(3)), 0);
//! assert!(merge.touched_banks().is_empty());
//! ```

use crate::arbiter::InterfererDemand;
use crate::{BankId, CoreId};

/// A dense per-`(bank, core)` demand accumulator with O(1) reuse.
///
/// See the [module documentation](self) for the role it plays in the
/// analyses. All entries are conceptually zero after [`DemandMerge::reset`];
/// physically, stale values are skipped via generation stamps.
#[derive(Debug, Clone)]
pub struct DemandMerge {
    banks: usize,
    cores: usize,
    generation: u32,
    /// Accumulated accesses, indexed `bank * cores + core`.
    accesses: Vec<u64>,
    /// Generation stamp per `(bank, core)` entry.
    stamp: Vec<u32>,
    /// Banks touched since the last reset, in first-touch order.
    touched: Vec<BankId>,
    /// Generation stamp per bank (deduplicates `touched`).
    bank_stamp: Vec<u32>,
    /// Reusable buffer returned by [`DemandMerge::bank_set`].
    set_buf: Vec<InterfererDemand>,
}

impl DemandMerge {
    /// Creates an accumulator for a platform with `banks` banks and
    /// `cores` cores. Allocates `banks × cores` entries once; nothing on
    /// the hot path allocates after this.
    pub fn new(banks: usize, cores: usize) -> Self {
        DemandMerge {
            banks,
            cores,
            generation: 1,
            accesses: vec![0; banks * cores],
            stamp: vec![0; banks * cores],
            touched: Vec::with_capacity(banks),
            bank_stamp: vec![0; banks],
            set_buf: Vec::with_capacity(cores),
        }
    }

    /// Number of banks this accumulator covers.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of cores this accumulator covers.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Forgets all accumulated demand in O(1).
    pub fn reset(&mut self) {
        self.touched.clear();
        if self.generation == u32::MAX {
            // One full clear every 2³² resets keeps the stamps sound.
            self.generation = 0;
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.bank_stamp.iter_mut().for_each(|s| *s = 0);
        }
        self.generation += 1;
    }

    #[inline]
    fn index(&self, bank: BankId, core: CoreId) -> usize {
        debug_assert!(bank.index() < self.banks, "bank {bank} out of range");
        debug_assert!(core.index() < self.cores, "core {core} out of range");
        bank.index() * self.cores + core.index()
    }

    /// Accumulates `accesses` issued by `core` into `bank`.
    ///
    /// # Panics
    ///
    /// May panic (or silently alias, in release builds the index is still
    /// bounds-checked by the slice) if `bank`/`core` exceed the geometry
    /// given to [`DemandMerge::new`].
    #[inline]
    pub fn add(&mut self, bank: BankId, core: CoreId, accesses: u64) {
        let i = self.index(bank, core);
        if self.stamp[i] == self.generation {
            self.accesses[i] += accesses;
        } else {
            self.stamp[i] = self.generation;
            self.accesses[i] = accesses;
        }
        if self.bank_stamp[bank.index()] != self.generation {
            self.bank_stamp[bank.index()] = self.generation;
            self.touched.push(bank);
        }
    }

    /// The demand accumulated for `(bank, core)` since the last reset.
    #[inline]
    pub fn get(&self, bank: BankId, core: CoreId) -> u64 {
        let i = self.index(bank, core);
        if self.stamp[i] == self.generation {
            self.accesses[i]
        } else {
            0
        }
    }

    /// Banks with at least one contribution since the last reset, in
    /// first-touch order.
    pub fn touched_banks(&self) -> &[BankId] {
        &self.touched
    }

    /// Exports every live `(bank, core, accesses)` entry — including
    /// explicitly accumulated zeros, which still mark a core as an
    /// interferer of a bank — in first-touch bank order and ascending
    /// core order within a bank. [`DemandMerge::restore`] rebuilds an
    /// indistinguishable accumulator from the result; the analysis
    /// checkpointing in `mia-core` uses the pair to freeze and thaw
    /// per-slot merge state.
    pub fn export(&self) -> Vec<(BankId, CoreId, u64)> {
        let mut out = Vec::new();
        for &bank in &self.touched {
            let row = bank.index() * self.cores;
            for core in 0..self.cores {
                if self.stamp[row + core] == self.generation {
                    out.push((bank, CoreId::from_index(core), self.accesses[row + core]));
                }
            }
        }
        out
    }

    /// Resets the accumulator and replays `entries` (as produced by
    /// [`DemandMerge::export`]) into it.
    pub fn restore(&mut self, entries: &[(BankId, CoreId, u64)]) {
        self.reset();
        for &(bank, core, accesses) in entries {
            self.add(bank, core, accesses);
        }
    }

    /// Builds the aggregated interferer set for `bank` — one
    /// [`InterfererDemand`] per contributing core, ascending by core id —
    /// into an internal reusable buffer and returns it.
    ///
    /// This is the "single big task per core" set of the paper's §II.C,
    /// in the shape [`Arbiter::bank_interference`] expects.
    ///
    /// [`Arbiter::bank_interference`]: crate::Arbiter::bank_interference
    pub fn bank_set(&mut self, bank: BankId) -> &[InterfererDemand] {
        self.set_buf.clear();
        let row = bank.index() * self.cores;
        for core in 0..self.cores {
            if self.stamp[row + core] == self.generation {
                self.set_buf.push(InterfererDemand {
                    core: CoreId::from_index(core),
                    accesses: self.accesses[row + core],
                });
            }
        }
        &self.set_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let m = DemandMerge::new(2, 2);
        assert_eq!(m.get(BankId(0), CoreId(0)), 0);
        assert!(m.touched_banks().is_empty());
        assert_eq!(m.banks(), 2);
        assert_eq!(m.cores(), 2);
    }

    #[test]
    fn accumulates_and_resets() {
        let mut m = DemandMerge::new(4, 4);
        m.add(BankId(2), CoreId(1), 10);
        m.add(BankId(2), CoreId(1), 5);
        m.add(BankId(0), CoreId(3), 7);
        assert_eq!(m.get(BankId(2), CoreId(1)), 15);
        assert_eq!(m.get(BankId(0), CoreId(3)), 7);
        assert_eq!(m.touched_banks(), &[BankId(2), BankId(0)]);
        m.reset();
        assert_eq!(m.get(BankId(2), CoreId(1)), 0);
        assert!(m.touched_banks().is_empty());
        m.add(BankId(2), CoreId(1), 1);
        assert_eq!(m.get(BankId(2), CoreId(1)), 1);
    }

    #[test]
    fn bank_set_is_core_ascending() {
        let mut m = DemandMerge::new(1, 8);
        m.add(BankId(0), CoreId(5), 50);
        m.add(BankId(0), CoreId(2), 20);
        m.add(BankId(0), CoreId(7), 70);
        let set: Vec<(CoreId, u64)> = m
            .bank_set(BankId(0))
            .iter()
            .map(|d| (d.core, d.accesses))
            .collect();
        assert_eq!(set, vec![(CoreId(2), 20), (CoreId(5), 50), (CoreId(7), 70)]);
        assert!(m.bank_set(BankId(0)).len() == 3);
    }

    #[test]
    fn export_restore_round_trips_including_stamped_zeros() {
        let mut m = DemandMerge::new(3, 4);
        m.add(BankId(2), CoreId(3), 9);
        m.add(BankId(0), CoreId(1), 0); // a zero still marks an interferer
        m.add(BankId(2), CoreId(0), 4);
        let exported = m.export();
        assert_eq!(
            exported,
            vec![
                (BankId(2), CoreId(0), 4),
                (BankId(2), CoreId(3), 9),
                (BankId(0), CoreId(1), 0),
            ]
        );
        let mut copy = DemandMerge::new(3, 4);
        copy.restore(&exported);
        assert_eq!(copy.touched_banks(), m.touched_banks());
        for bank in 0..3 {
            let bank = BankId(bank);
            // bank_set includes stamped zeros, so interferer sets (and
            // hence arbiter inputs) must match entry for entry.
            assert_eq!(copy.bank_set(bank).to_vec(), {
                let mut orig = DemandMerge::new(3, 4);
                orig.restore(&exported);
                orig.bank_set(bank).to_vec()
            });
            for core in 0..4 {
                assert_eq!(
                    copy.get(bank, CoreId::from_index(core)),
                    m.get(bank, CoreId::from_index(core))
                );
            }
        }
        assert_eq!(copy.bank_set(BankId(0)).len(), 1);
    }

    #[test]
    fn many_resets_stay_sound() {
        let mut m = DemandMerge::new(1, 1);
        for round in 0..10_000u64 {
            m.add(BankId(0), CoreId(0), round);
            assert_eq!(m.get(BankId(0), CoreId(0)), round);
            m.reset();
            assert_eq!(m.get(BankId(0), CoreId(0)), 0);
        }
    }
}
