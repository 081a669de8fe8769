//! # mia — Memory Interference Analysis for hard real-time many-core systems
//!
//! Facade crate re-exporting the whole `mia` workspace, a production-grade
//! reproduction of *"Scaling Up the Memory Interference Analysis for Hard
//! Real-Time Many-Core Systems"* (Dupont de Dinechin, Schuh, Moy, Maïza —
//! DATE 2020).
//!
//! Given a DAG of tasks, a mapping onto cores with a fixed per-core
//! execution order, per-task WCETs in isolation and memory demands, and a
//! bus-arbiter model, the library computes a static time-triggered
//! schedule: a release date and a worst-case response time for every task,
//! accounting for memory interference between cores.
//!
//! Two algorithms solve the problem:
//!
//! * [`incremental`](mia_core::analyze) — the paper's O(n²) contribution
//!   (crate [`mia_core`], re-exported as [`analysis`]),
//! * [`baseline`](mia_baseline::analyze) — the original O(n⁴) double
//!   fixed point of Rihani et al. (RTNS 2016), kept as the comparison
//!   baseline (crate [`mia_baseline`]).
//!
//! # Quickstart
//!
//! The paper's Figure 1, end to end:
//!
//! ```
//! use mia::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // DAG of 5 tasks with per-edge word counts.
//! let mut g = TaskGraph::new();
//! let n0 = g.add_task(Task::builder("n0").wcet(Cycles(2)));
//! let n1 = g.add_task(Task::builder("n1").wcet(Cycles(2)).min_release(Cycles(2)));
//! let n2 = g.add_task(Task::builder("n2").wcet(Cycles(1)).min_release(Cycles(4)));
//! let n3 = g.add_task(Task::builder("n3").wcet(Cycles(3)));
//! let n4 = g.add_task(Task::builder("n4").wcet(Cycles(2)).min_release(Cycles(4)));
//! for (s, d) in [(n0, n1), (n0, n2), (n1, n2), (n3, n2), (n3, n4)] {
//!     g.add_edge(s, d, 1)?;
//! }
//!
//! // Mapping: n0→PE0, n1,n2→PE1, n3→PE2, n4→PE3.
//! let mapping = Mapping::from_assignment(&g, &[0, 1, 1, 2, 3])?;
//! let problem = Problem::new(g, mapping, Platform::new(4, 4))?;
//!
//! // Analyse with the round-robin arbiter.
//! let schedule = mia::analysis::analyze(&problem, &RoundRobin::new())?;
//! assert_eq!(schedule.makespan(), Cycles(7)); // the paper's t = 7
//! # Ok(())
//! # }
//! ```
//!
//! # Workspace tour
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`model`] | tasks, graphs, mappings, platforms, demands, schedules |
//! | [`arbiters`] | round-robin, MPPA-256 tree, TDM, fixed-priority, FIFO |
//! | [`analysis`] | the incremental O(n²) algorithm (paper's Algorithm 1) |
//! | [`baseline`] | the original O(n⁴) fixed-point algorithm |
//! | [`dag_gen`] | Tobita–Kasahara random DAGs and benchmark families |
//! | [`sim`] | cycle-stepped validation simulator |
//! | [`sdf`] | synchronous-dataflow front-end (graph → task DAG) |
//! | [`wcet`] | WCET-in-isolation estimation on CFGs (OTAWA substitute) |
//! | [`mapping_heuristics`] | mapping & ordering strategies |
//! | [`mrta`] | sporadic-task multicore response-time analysis (ref. \[1\]) |
//! | [`noc`] | inter-cluster 2D-torus NoC latency bounds (MPPA-256 chip level) |
//! | [`exec`] | time-triggered dispatch tables + C emission (deployment stage) |
//! | [`dse`] | design-space exploration with the analysis in the loop |
//! | [`trace`] | Gantt charts, DOT export, JSON reports |

pub use mia_arbiter as arbiters;
pub use mia_baseline as baseline;
pub use mia_core as analysis;
pub use mia_dag_gen as dag_gen;
pub use mia_dse as dse;
pub use mia_exec as exec;
pub use mia_mapping as mapping_heuristics;
pub use mia_model as model;
pub use mia_mrta as mrta;
pub use mia_noc as noc;
pub use mia_sdf as sdf;
pub use mia_sim as sim;
pub use mia_trace as trace;
pub use mia_wcet as wcet;

/// Convenient glob-import of the most used types.
///
/// ```
/// use mia::prelude::*;
/// let _ = Platform::mppa256_cluster();
/// ```
pub mod prelude {
    pub use mia_arbiter::{
        Fifo, FixedPriority, MppaTree, Regulated, RoundRobin, Tdm, WeightedRoundRobin,
    };
    pub use mia_baseline::analyze as analyze_baseline;
    pub use mia_core::{analyze, AnalysisOptions};
    pub use mia_model::{
        Arbiter, BankDemand, BankId, BankPolicy, CoreId, Cycles, Mapping, ModelError, Platform,
        Problem, Schedule, ScheduleViolation, Task, TaskGraph, TaskId, TaskTiming,
    };
}
