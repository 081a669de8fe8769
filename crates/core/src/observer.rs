//! Observation hooks into the incremental analysis.
//!
//! The cursor mechanism of the paper's Figure 2 (closed / alive / future
//! tasks around a moving time cursor) is directly observable through this
//! trait: `mia-trace` renders the event stream as the figure's timeline.

use mia_model::{BankId, CoreId, Cycles, TaskId};

/// Receives the incremental algorithm's events in chronological order.
///
/// All methods have empty default bodies, so implementors override only
/// what they need. Events arrive strictly ordered by cursor time; within
/// one cursor step the order is: closes, opens, interference updates.
pub trait Observer {
    /// The cursor jumped to `t` (called once per distinct cursor position,
    /// including the initial `t = 0`).
    fn on_cursor(&mut self, t: Cycles) {
        let _ = t;
    }

    /// `task` on `core` closed at `t`: both its release date and response
    /// time are final.
    fn on_close(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        let _ = (task, core, t);
    }

    /// `task` opened on `core`: its release date is fixed to `t` forever.
    fn on_open(&mut self, task: TaskId, core: CoreId, t: Cycles) {
        let _ = (task, core, t);
    }

    /// The interference of alive `task` on `bank` was recomputed;
    /// `total` is the task's new total interference across banks.
    fn on_interference(&mut self, task: TaskId, bank: BankId, total: Cycles) {
        let _ = (task, bank, total);
    }
}

/// An [`Observer`] that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        cursors: usize,
        opens: usize,
    }

    impl Observer for Counter {
        fn on_cursor(&mut self, _t: Cycles) {
            self.cursors += 1;
        }
        fn on_open(&mut self, _task: TaskId, _core: CoreId, _t: Cycles) {
            self.opens += 1;
        }
    }

    #[test]
    fn default_methods_are_noops() {
        let mut n = NoopObserver;
        n.on_cursor(Cycles(1));
        n.on_close(TaskId(0), CoreId(0), Cycles(1));
        n.on_open(TaskId(0), CoreId(0), Cycles(1));
        n.on_interference(TaskId(0), BankId(0), Cycles(1));
    }

    #[test]
    fn partial_implementations_compile() {
        let mut c = Counter::default();
        c.on_cursor(Cycles(0));
        c.on_open(TaskId(1), CoreId(0), Cycles(0));
        c.on_close(TaskId(1), CoreId(0), Cycles(5));
        assert_eq!(c.cursors, 1);
        assert_eq!(c.opens, 1);
    }
}
