//! Mapping of tasks onto cores and per-core execution order.

use serde::{Deserialize, Serialize};

use crate::{CoreId, ModelError, TaskGraph, TaskId};

/// The placement of every task on a core, together with the fixed execution
/// order of the tasks of each core (the per-core "stacks" `S_k` of the
/// paper's Algorithm 1).
///
/// The analysis assumes mapping and ordering were decided beforehand (by
/// `mia-mapping` or an external tool); a `Mapping` is pure data.
///
/// # Example
///
/// ```
/// use mia_model::{Cycles, Mapping, Task, TaskGraph};
///
/// # fn main() -> Result<(), mia_model::ModelError> {
/// let mut g = TaskGraph::new();
/// let a = g.add_task(Task::builder("a").wcet(Cycles(1)));
/// let b = g.add_task(Task::builder("b").wcet(Cycles(1)));
/// let c = g.add_task(Task::builder("c").wcet(Cycles(1)));
/// g.add_edge(a, b, 1)?;
/// // a and c share core 0 (a first), b runs alone on core 1.
/// let mapping = Mapping::from_assignment(&g, &[0, 1, 0])?;
/// assert_eq!(mapping.core_of(a), mia_model::CoreId(0));
/// assert_eq!(mapping.order(mia_model::CoreId(0)), &[a, c]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    pub(crate) core_of: Vec<CoreId>,
    /// Execution order per core, indexed by core id; tasks absent from a
    /// core's vector do not run on it. `Problem::apply_move` patches it
    /// in place.
    pub(crate) order: Vec<Vec<TaskId>>,
}

impl Mapping {
    /// Builds a mapping from one core id per task (in task-id order); the
    /// execution order on each core follows task-id order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LengthMismatch`] if `cores` does not provide
    /// exactly one entry per task of `graph`.
    pub fn from_assignment(graph: &TaskGraph, cores: &[u32]) -> Result<Self, ModelError> {
        if cores.len() != graph.len() {
            return Err(ModelError::LengthMismatch {
                expected: graph.len(),
                found: cores.len(),
            });
        }
        let core_of: Vec<CoreId> = cores.iter().map(|&c| CoreId(c)).collect();
        let n_cores = cores.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut order = vec![Vec::new(); n_cores];
        for (i, &c) in core_of.iter().enumerate() {
            order[c.index()].push(TaskId::from_index(i));
        }
        Ok(Mapping { core_of, order })
    }

    /// Builds a mapping from explicit per-core execution orders.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownTask`] if an order references a task outside
    ///   the graph,
    /// * [`ModelError::DuplicatedInOrder`] if a task appears twice,
    /// * [`ModelError::IncompleteMapping`] if some task appears on no core.
    pub fn from_orders(graph: &TaskGraph, orders: Vec<Vec<TaskId>>) -> Result<Self, ModelError> {
        let mut core_of = vec![None; graph.len()];
        for (c, tasks) in orders.iter().enumerate() {
            for &t in tasks {
                if t.index() >= graph.len() {
                    return Err(ModelError::UnknownTask(t));
                }
                if core_of[t.index()].is_some() {
                    return Err(ModelError::DuplicatedInOrder(t));
                }
                core_of[t.index()] = Some(CoreId::from_index(c));
            }
        }
        let found = core_of.iter().filter(|c| c.is_some()).count();
        if found != graph.len() {
            return Err(ModelError::IncompleteMapping {
                expected: graph.len(),
                found,
            });
        }
        Ok(Mapping {
            core_of: core_of.into_iter().map(Option::unwrap).collect(),
            order: orders,
        })
    }

    /// Number of mapped tasks.
    pub fn len(&self) -> usize {
        self.core_of.len()
    }

    /// True if no task is mapped.
    pub fn is_empty(&self) -> bool {
        self.core_of.is_empty()
    }

    /// Number of cores the mapping uses (highest used core id + 1).
    pub fn cores(&self) -> usize {
        self.order.len()
    }

    /// The core a task runs on.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not covered by this mapping.
    pub fn core_of(&self, task: TaskId) -> CoreId {
        self.core_of[task.index()]
    }

    /// The execution order of the tasks mapped to `core` (may be empty).
    pub fn order(&self, core: CoreId) -> &[TaskId] {
        self.order
            .get(core.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over `(core, order)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, &[TaskId])> {
        self.order
            .iter()
            .enumerate()
            .map(|(c, v)| (CoreId::from_index(c), v.as_slice()))
    }

    /// The task that runs immediately before `task` on its core, if any.
    pub fn core_predecessor(&self, task: TaskId) -> Option<TaskId> {
        let core = self.core_of(task);
        let order = self.order(core);
        let pos = order
            .iter()
            .position(|&t| t == task)
            .expect("task must appear in its core's order");
        if pos == 0 {
            None
        } else {
            Some(order[pos - 1])
        }
    }

    /// Position of `task` within its core's execution order.
    pub fn position_on_core(&self, task: TaskId) -> usize {
        let order = self.order(self.core_of(task));
        order
            .iter()
            .position(|&t| t == task)
            .expect("task must appear in its core's order")
    }

    /// Validates internal consistency against a graph: every task mapped
    /// exactly once and all ids in range.
    ///
    /// # Errors
    ///
    /// See [`Mapping::from_orders`]; the same conditions are re-checked.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), ModelError> {
        if self.core_of.len() != graph.len() {
            return Err(ModelError::LengthMismatch {
                expected: graph.len(),
                found: self.core_of.len(),
            });
        }
        let mut seen = vec![false; graph.len()];
        for tasks in &self.order {
            for &t in tasks {
                if t.index() >= graph.len() {
                    return Err(ModelError::UnknownTask(t));
                }
                if seen[t.index()] {
                    return Err(ModelError::DuplicatedInOrder(t));
                }
                seen[t.index()] = true;
            }
        }
        let found = seen.iter().filter(|&&s| s).count();
        if found != graph.len() {
            return Err(ModelError::IncompleteMapping {
                expected: graph.len(),
                found,
            });
        }
        for (c, tasks) in self.order.iter().enumerate() {
            for &t in tasks {
                if self.core_of[t.index()].index() != c {
                    return Err(ModelError::UnknownCore(self.core_of[t.index()]));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycles, Task};

    fn three_tasks() -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..3 {
            g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(1)));
        }
        g
    }

    #[test]
    fn from_assignment_orders_by_task_id() {
        let g = three_tasks();
        let m = Mapping::from_assignment(&g, &[1, 0, 1]).unwrap();
        assert_eq!(m.cores(), 2);
        assert_eq!(m.order(CoreId(0)), &[TaskId(1)]);
        assert_eq!(m.order(CoreId(1)), &[TaskId(0), TaskId(2)]);
        assert_eq!(m.core_of(TaskId(2)), CoreId(1));
    }

    #[test]
    fn from_assignment_rejects_wrong_length() {
        let g = three_tasks();
        assert!(matches!(
            Mapping::from_assignment(&g, &[0, 1]),
            Err(ModelError::LengthMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn from_orders_round_trips() {
        let g = three_tasks();
        let m =
            Mapping::from_orders(&g, vec![vec![TaskId(2), TaskId(0)], vec![TaskId(1)]]).unwrap();
        assert_eq!(m.core_of(TaskId(2)), CoreId(0));
        assert_eq!(m.position_on_core(TaskId(0)), 1);
        assert_eq!(m.core_predecessor(TaskId(0)), Some(TaskId(2)));
        assert_eq!(m.core_predecessor(TaskId(2)), None);
        m.validate(&g).unwrap();
    }

    #[test]
    fn from_orders_rejects_duplicates_and_missing() {
        let g = three_tasks();
        assert!(matches!(
            Mapping::from_orders(&g, vec![vec![TaskId(0), TaskId(0)], vec![TaskId(1)]]),
            Err(ModelError::DuplicatedInOrder(TaskId(0)))
        ));
        assert!(matches!(
            Mapping::from_orders(&g, vec![vec![TaskId(0)], vec![TaskId(1)]]),
            Err(ModelError::IncompleteMapping {
                expected: 3,
                found: 2
            })
        ));
        assert!(matches!(
            Mapping::from_orders(&g, vec![vec![TaskId(9)]]),
            Err(ModelError::UnknownTask(TaskId(9)))
        ));
    }

    #[test]
    fn order_of_unused_core_is_empty() {
        let g = three_tasks();
        let m = Mapping::from_assignment(&g, &[0, 0, 0]).unwrap();
        assert_eq!(m.order(CoreId(7)), &[] as &[TaskId]);
    }

    #[test]
    fn iter_lists_cores_in_order() {
        let g = three_tasks();
        let m = Mapping::from_assignment(&g, &[1, 0, 1]).unwrap();
        let cores: Vec<CoreId> = m.iter().map(|(c, _)| c).collect();
        assert_eq!(cores, vec![CoreId(0), CoreId(1)]);
    }
}
