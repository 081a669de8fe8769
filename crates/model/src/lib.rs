//! Task-graph, platform and memory-demand model for memory interference
//! analysis on hard real-time many-core systems.
//!
//! This crate is the shared substrate of the `mia` workspace, which
//! reproduces *"Scaling Up the Memory Interference Analysis for Hard
//! Real-Time Many-Core Systems"* (DATE 2020). It defines:
//!
//! * strongly-typed identifiers and time units ([`TaskId`], [`CoreId`],
//!   [`BankId`], [`Cycles`]),
//! * [`Task`] and [`TaskGraph`]: a DAG of tasks with weighted edges (words
//!   written from producer to consumer),
//! * [`Mapping`]: the assignment of tasks to cores together with the fixed
//!   per-core execution order (the "stacks" of the paper's Algorithm 1),
//! * [`Platform`]: core/bank counts and memory timing,
//! * [`BankDemand`]: per-bank memory access demands, and the
//!   [`derive_demands`] policy that turns edge weights into bank accesses,
//! * the [`arbiter::Arbiter`] trait through which analyses consult
//!   the bus arbitration model (`IBUS` in the paper), and
//! * [`Problem`]: a validated bundle of graph + mapping + platform that the
//!   analysis crates consume, and
//! * [`scratch::DemandMerge`]: reusable generation-stamped merge buffers
//!   shared by the analysis hot paths (`mia-core`, `mia-baseline`), and
//! * [`TaskTable`]: a structure-of-arrays compaction of the graph (dense
//!   WCET/release columns plus CSR successor lists) built once per
//!   analysis run for the cursor hot loop.
//!
//! # Example
//!
//! Build the 5-task example of the paper's Figure 1:
//!
//! ```
//! use mia_model::{Cycles, Mapping, Platform, Problem, TaskGraph};
//!
//! # fn main() -> Result<(), mia_model::ModelError> {
//! let mut g = TaskGraph::new();
//! let n0 = g.add_task(g.task_builder("n0").wcet(Cycles(2)));
//! let n1 = g.add_task(g.task_builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
//! let n2 = g.add_task(g.task_builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
//! let n3 = g.add_task(g.task_builder("n3").wcet(Cycles(3)));
//! let n4 = g.add_task(g.task_builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
//! g.add_edge(n0, n1, 1)?;
//! g.add_edge(n0, n2, 1)?;
//! g.add_edge(n1, n2, 1)?;
//! g.add_edge(n3, n2, 1)?;
//! g.add_edge(n3, n4, 1)?;
//!
//! let platform = Platform::new(4, 4);
//! let mapping = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3])?;
//! let problem = Problem::new(g, mapping, platform)?;
//! assert_eq!(problem.graph().len(), 5);
//! # Ok(())
//! # }
//! ```

pub mod arbiter;
mod demand;
mod error;
mod graph;
mod ids;
mod mapping;
mod metrics;
mod platform;
mod problem;
mod schedule;
pub mod scratch;
mod table;
mod task;
mod time;

pub use arbiter::Arbiter;
pub use demand::{derive_demands, BankDemand, BankPlacement, BankPolicy};
pub use error::ModelError;
pub use graph::{Edge, TaskGraph};
pub use ids::{BankId, CoreId, EdgeId, TaskId};
pub use mapping::Mapping;
pub use metrics::{bank_loads, ScheduleMetrics};
pub use platform::Platform;
pub use problem::{Move, Problem, Revert};
pub use schedule::{Schedule, ScheduleViolation, TaskTiming};
pub use scratch::DemandMerge;
pub use table::TaskTable;
pub use task::{Task, TaskBuilder};
pub use time::Cycles;
