//! Tunables for the incremental analysis.

use mia_model::Cycles;

use crate::CancelToken;

/// How interference is recomputed when an alive task gains an interferer.
///
/// This is the design choice the paper discusses in §II.C: arbitration may
/// be non-additive, but "some bus arbiters have this additivity property,
/// and exploiting this could simplify and speed up the algorithm".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum InterferenceMode {
    /// Merge all interfering tasks of a core into "a single big task"
    /// (paper's conservative hypothesis) and keep `IBUS` of the
    /// aggregated set up to date each time it grows. Exact for every
    /// arbiter, including non-additive ones, which are re-evaluated on the
    /// whole set; for an [additive](mia_model::Arbiter::is_additive) one
    /// only the grown core's term is swapped, O(1) per update. The
    /// default.
    #[default]
    AggregateByCore,
    /// Add the pairwise `IBUS` contribution of each new interferer without
    /// re-aggregating. For additive arbiters with at most one interfering
    /// task per core this matches [`InterferenceMode::AggregateByCore`];
    /// otherwise it is a sound but more pessimistic upper bound (pairwise
    /// sums dominate aggregated bounds for the monotone arbiters shipped
    /// in `mia-arbiter`). It skips the per-core merge, which only saves
    /// time against [`InterferenceMode::AggregateByCore`] under a
    /// non-additive arbiter.
    PairwiseAdditive,
}

/// Options controlling an analysis run.
///
/// # Example
///
/// ```
/// use mia_core::{AnalysisOptions, InterferenceMode};
/// use mia_model::Cycles;
///
/// let opts = AnalysisOptions::new()
///     .deadline(Cycles(10_000))
///     .interference_mode(InterferenceMode::PairwiseAdditive);
/// assert_eq!(opts.deadline, Some(Cycles(10_000)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Global deadline; exceeding it makes the task set unschedulable.
    pub deadline: Option<Cycles>,
    /// Interference recomputation strategy.
    pub interference_mode: InterferenceMode,
    /// When true, a task whose response time exceeds its relative
    /// deadline aborts the analysis with
    /// [`AnalysisError::TaskDeadlineMissed`](crate::AnalysisError::TaskDeadlineMissed).
    pub task_deadlines: bool,
    /// Cooperative cancellation flag, checked at every cursor step.
    pub cancel: Option<CancelToken>,
}

impl AnalysisOptions {
    /// Default options: no deadline, exact aggregation, no cancellation.
    pub fn new() -> Self {
        AnalysisOptions::default()
    }

    /// Sets the global deadline.
    pub fn deadline(mut self, deadline: Cycles) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the interference recomputation strategy.
    pub fn interference_mode(mut self, mode: InterferenceMode) -> Self {
        self.interference_mode = mode;
        self
    }

    /// Enables per-task deadline enforcement.
    pub fn task_deadlines(mut self, enforce: bool) -> Self {
        self.task_deadlines = enforce;
        self
    }

    /// Attaches a cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True if cancellation was requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let token = CancelToken::new();
        let o = AnalysisOptions::new()
            .deadline(Cycles(5))
            .interference_mode(InterferenceMode::PairwiseAdditive)
            .cancel_token(token.clone());
        assert_eq!(o.deadline, Some(Cycles(5)));
        assert_eq!(o.interference_mode, InterferenceMode::PairwiseAdditive);
        assert!(!o.is_cancelled());
        token.cancel();
        assert!(o.is_cancelled());
    }

    #[test]
    fn defaults() {
        let o = AnalysisOptions::default();
        assert_eq!(o.deadline, None);
        assert_eq!(o.interference_mode, InterferenceMode::AggregateByCore);
        assert!(!o.task_deadlines);
        assert!(!o.is_cancelled());
    }

    #[test]
    fn task_deadline_flag() {
        assert!(AnalysisOptions::new().task_deadlines(true).task_deadlines);
    }
}
