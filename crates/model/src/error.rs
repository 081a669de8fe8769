//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

use crate::{CoreId, TaskId};

/// Errors produced while building or validating the model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A task identifier does not belong to the graph.
    UnknownTask(TaskId),
    /// A core identifier is outside the platform's core range.
    UnknownCore(CoreId),
    /// An edge would connect a task to itself.
    SelfLoop(TaskId),
    /// The same edge was inserted twice.
    DuplicateEdge(TaskId, TaskId),
    /// The dependency graph (or the combination of dependencies and per-core
    /// execution order) contains a cycle involving the reported task.
    Cycle(TaskId),
    /// The mapping does not cover every task exactly once.
    IncompleteMapping { expected: usize, found: usize },
    /// A task appears several times in the per-core execution orders.
    DuplicatedInOrder(TaskId),
    /// The platform declares no cores or no banks.
    EmptyPlatform,
    /// A demand vector refers to a bank outside the platform.
    UnknownBank(crate::BankId),
    /// The number of per-task entries passed does not match the graph size.
    LengthMismatch { expected: usize, found: usize },
    /// A task's core in the per-core execution orders differs from its
    /// core in the per-task assignment given with them.
    OrderMismatch(TaskId),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownTask(t) => write!(f, "unknown task {t}"),
            ModelError::UnknownCore(c) => write!(f, "unknown core {c}"),
            ModelError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            ModelError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            ModelError::Cycle(t) => {
                write!(f, "dependency/order relation has a cycle through {t}")
            }
            ModelError::IncompleteMapping { expected, found } => write!(
                f,
                "mapping covers {found} tasks but the graph has {expected}"
            ),
            ModelError::DuplicatedInOrder(t) => {
                write!(f, "task {t} appears twice in the execution order")
            }
            ModelError::EmptyPlatform => write!(f, "platform has no cores or no banks"),
            ModelError::UnknownBank(b) => write!(f, "unknown bank {b}"),
            ModelError::LengthMismatch { expected, found } => {
                write!(f, "expected {expected} per-task entries, found {found}")
            }
            ModelError::OrderMismatch(t) => {
                write!(f, "task {t} sits on another core in the execution orders")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::UnknownTask(TaskId(3)), "unknown task n3"),
            (ModelError::UnknownCore(CoreId(2)), "unknown core PE2"),
            (ModelError::SelfLoop(TaskId(1)), "self-loop on task n1"),
            (
                ModelError::DuplicateEdge(TaskId(0), TaskId(1)),
                "duplicate edge n0 -> n1",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<ModelError>();
    }
}
