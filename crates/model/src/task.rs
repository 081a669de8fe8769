//! Tasks: the nodes of the dependency graph.

use serde::{Deserialize, Serialize};

use crate::{BankDemand, Cycles};

/// A task (a node of the [`TaskGraph`](crate::TaskGraph)).
///
/// A task carries the inputs the paper's analysis needs:
///
/// * its **WCET in isolation** (as produced by a static analyser such as
///   OTAWA; WCET estimation is outside this workspace),
/// * its **minimal release date** (`min_rel` in the paper): the task must
///   not start before this instant even if all dependencies complete
///   earlier,
/// * its **private memory demand**: accesses that are not derived from
///   graph edges (e.g. local data or code fetches), expressed per bank.
///
/// The accesses implied by dependency edges (reading inputs, writing
/// outputs) are added separately by [`derive_demands`](crate::derive_demands)
/// so that the same graph can be analysed under different bank policies.
///
/// # Example
///
/// ```
/// use mia_model::{Cycles, Task};
///
/// let t = Task::builder("fir_filter")
///     .wcet(Cycles(600))
///     .min_release(Cycles(4))
///     .build();
/// assert_eq!(t.wcet(), Cycles(600));
/// assert_eq!(t.min_release(), Cycles(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    name: String,
    wcet: Cycles,
    min_release: Cycles,
    #[serde(default)]
    deadline: Option<Cycles>,
    private_demand: BankDemand,
}

impl Task {
    /// Starts building a task with the given human-readable name.
    pub fn builder(name: impl Into<String>) -> TaskBuilder {
        TaskBuilder {
            task: Task {
                name: name.into(),
                wcet: Cycles::ZERO,
                min_release: Cycles::ZERO,
                deadline: None,
                private_demand: BankDemand::new(),
            },
        }
    }

    /// The task's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's worst-case execution time in isolation.
    pub fn wcet(&self) -> Cycles {
        self.wcet
    }

    /// The earliest instant at which the task may be released.
    pub fn min_release(&self) -> Cycles {
        self.min_release
    }

    /// The task's relative deadline, if any: its worst-case response time
    /// (release to finish) must not exceed this bound for the schedule to
    /// be feasible.
    pub fn deadline(&self) -> Option<Cycles> {
        self.deadline
    }

    /// Memory accesses of the task that are not derived from graph edges.
    pub fn private_demand(&self) -> &BankDemand {
        &self.private_demand
    }

    /// Overwrites the WCET (used by front-ends that refine estimates).
    pub fn set_wcet(&mut self, wcet: Cycles) {
        self.wcet = wcet;
    }

    /// Overwrites the minimal release date.
    pub fn set_min_release(&mut self, min_release: Cycles) {
        self.min_release = min_release;
    }

    /// Overwrites the relative deadline.
    pub fn set_deadline(&mut self, deadline: Option<Cycles>) {
        self.deadline = deadline;
    }

    /// Mutable access to the private demand vector.
    pub fn private_demand_mut(&mut self) -> &mut BankDemand {
        &mut self.private_demand
    }
}

/// Builder for [`Task`] values (see [`Task::builder`]).
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    task: Task,
}

impl TaskBuilder {
    /// Sets the worst-case execution time in isolation.
    pub fn wcet(mut self, wcet: Cycles) -> Self {
        self.task.wcet = wcet;
        self
    }

    /// Sets the minimal release date (defaults to 0).
    pub fn min_release(mut self, min_release: Cycles) -> Self {
        self.task.min_release = min_release;
        self
    }

    /// Sets a relative deadline on the response time.
    pub fn deadline(mut self, deadline: Cycles) -> Self {
        self.task.deadline = Some(deadline);
        self
    }

    /// Sets the private (non-edge) memory demand.
    pub fn private_demand(mut self, demand: BankDemand) -> Self {
        self.task.private_demand = demand;
        self
    }

    /// Finishes building the task.
    pub fn build(self) -> Task {
        self.task
    }
}

impl From<TaskBuilder> for Task {
    fn from(b: TaskBuilder) -> Task {
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BankId;

    #[test]
    fn builder_defaults() {
        let t = Task::builder("t").build();
        assert_eq!(t.name(), "t");
        assert_eq!(t.wcet(), Cycles::ZERO);
        assert_eq!(t.min_release(), Cycles::ZERO);
        assert!(t.private_demand().is_empty());
    }

    #[test]
    fn builder_sets_all_fields() {
        let mut d = BankDemand::new();
        d.add(BankId(2), 40);
        let t = Task::builder("dsp")
            .wcet(Cycles(100))
            .min_release(Cycles(7))
            .private_demand(d.clone())
            .build();
        assert_eq!(t.wcet(), Cycles(100));
        assert_eq!(t.min_release(), Cycles(7));
        assert_eq!(t.private_demand(), &d);
    }

    #[test]
    fn setters_update() {
        let mut t = Task::builder("t").build();
        t.set_wcet(Cycles(5));
        t.set_min_release(Cycles(2));
        t.private_demand_mut().add(BankId(0), 3);
        assert_eq!(t.wcet(), Cycles(5));
        assert_eq!(t.min_release(), Cycles(2));
        assert_eq!(t.private_demand().get(BankId(0)), 3);
    }

    #[test]
    fn deadline_round_trips() {
        let t = Task::builder("rt")
            .wcet(Cycles(10))
            .deadline(Cycles(25))
            .build();
        assert_eq!(t.deadline(), Some(Cycles(25)));
        let mut t2 = Task::builder("free").build();
        assert_eq!(t2.deadline(), None);
        t2.set_deadline(Some(Cycles(5)));
        assert_eq!(t2.deadline(), Some(Cycles(5)));
    }

    #[test]
    fn builder_into_task() {
        let t: Task = Task::builder("x").wcet(Cycles(1)).into();
        assert_eq!(t.wcet(), Cycles(1));
    }
}
