//! Mapping and ordering heuristics.
//!
//! The paper's framework assumes that before the interference analysis
//! runs, "the tasks are mapped to cores and ordered" (§I). This crate
//! provides that stage:
//!
//! * [`layered_cyclic`] — the paper's own benchmark mapping: tasks of a
//!   layer go to `Core(n mod cores)` (§V),
//! * [`load_balanced`] — greedy: each task (in topological order) goes to
//!   the least-loaded core,
//! * [`earliest_finish`] — ETF list scheduling: simulate an
//!   interference-free execution and place every ready task on the core
//!   where it finishes earliest,
//! * [`heft`] — communication-aware list scheduling (upward ranks, edge
//!   words priced per cycle) that keeps chatty producer–consumer pairs on
//!   one core.
//!
//! [`assignment_makespan`] prices an assignment without interference;
//! `mia-dse` uses it as its cheap proxy objective.
//!
//! All strategies return a [`Mapping`] whose per-core orders are
//! consistent with the dependency graph (they assign in topological
//! order), so [`Problem`](mia_model::Problem) construction always
//! succeeds.
//!
//! # Example
//!
//! ```
//! use mia_mapping::{earliest_finish, load_balanced};
//! use mia_model::{Cycles, Task, TaskGraph};
//!
//! # fn main() -> Result<(), mia_model::ModelError> {
//! let mut g = TaskGraph::new();
//! let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
//! let b = g.add_task(Task::builder("b").wcet(Cycles(30)));
//! let c = g.add_task(Task::builder("c").wcet(Cycles(30)));
//! g.add_edge(a, b, 1)?;
//! g.add_edge(a, c, 1)?;
//! let mapping = earliest_finish(&g, 2)?;
//! // b and c are independent and equally long: ETF spreads them.
//! assert_ne!(mapping.core_of(b), mapping.core_of(c));
//! let balanced = load_balanced(&g, 2)?;
//! assert_eq!(balanced.len(), 3);
//! # Ok(())
//! # }
//! ```

mod heft;

pub use heft::heft;

use mia_model::{Cycles, Mapping, ModelError, TaskGraph, TaskId};

/// The paper's benchmark mapping: the *n*-th task of each layer runs on
/// `Core(n mod cores)`; per-core order follows (layer, position).
///
/// # Errors
///
/// Returns [`ModelError::Cycle`] if the graph is cyclic (layers are
/// undefined), or [`ModelError::EmptyPlatform`] if `cores` is zero.
pub fn layered_cyclic(graph: &TaskGraph, cores: usize) -> Result<Mapping, ModelError> {
    if cores == 0 {
        return Err(ModelError::EmptyPlatform);
    }
    let layers = graph.layers()?;
    let n_layers = layers.iter().copied().max().map_or(0, |m| m + 1);
    let mut by_layer: Vec<Vec<TaskId>> = vec![Vec::new(); n_layers];
    for (id, _) in graph.iter() {
        by_layer[layers[id.index()]].push(id);
    }
    let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); cores];
    for layer in by_layer {
        for (pos, task) in layer.into_iter().enumerate() {
            orders[pos % cores].push(task);
        }
    }
    Mapping::from_orders(graph, orders)
}

/// Greedy load balancing: tasks are visited in topological order and
/// assigned to the core with the smallest accumulated WCET.
///
/// # Errors
///
/// Returns [`ModelError::Cycle`] for cyclic graphs, or
/// [`ModelError::EmptyPlatform`] if `cores` is zero.
pub fn load_balanced(graph: &TaskGraph, cores: usize) -> Result<Mapping, ModelError> {
    if cores == 0 {
        return Err(ModelError::EmptyPlatform);
    }
    let order = graph.topological_order()?;
    let mut load = vec![Cycles::ZERO; cores];
    let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); cores];
    for t in order {
        let core = (0..cores)
            .min_by_key(|&c| (load[c], c))
            .expect("cores is non-zero");
        load[core] += graph.task(t).wcet();
        orders[core].push(t);
    }
    Mapping::from_orders(graph, orders)
}

/// Earliest-finish-time list scheduling: repeatedly take the ready task
/// with the earliest possible start (ties: longer WCET first) and place it
/// on the core where it finishes earliest, ignoring interference.
///
/// This approximates the schedule an offline mapping tool would emit and
/// produces both the placement and the per-core order.
///
/// # Errors
///
/// Returns [`ModelError::Cycle`] for cyclic graphs, or
/// [`ModelError::EmptyPlatform`] if `cores` is zero.
pub fn earliest_finish(graph: &TaskGraph, cores: usize) -> Result<Mapping, ModelError> {
    if cores == 0 {
        return Err(ModelError::EmptyPlatform);
    }
    graph.topological_order()?; // validate acyclicity up front
    let n = graph.len();
    let mut pending: Vec<usize> = graph.task_ids().map(|t| graph.in_degree(t)).collect();
    let mut earliest: Vec<Cycles> = graph.iter().map(|(_, t)| t.min_release()).collect();
    let mut core_free = vec![Cycles::ZERO; cores];
    let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); cores];
    let mut ready: Vec<TaskId> = graph
        .task_ids()
        .filter(|&t| pending[t.index()] == 0)
        .collect();
    let mut scheduled = 0usize;
    while scheduled < n {
        // Pick the ready task with the earliest dependency-driven start;
        // break ties toward long tasks (classic list-scheduling rule).
        let (k, &task) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| {
                (
                    earliest[t.index()],
                    std::cmp::Reverse(graph.task(t).wcet()),
                    t,
                )
            })
            .expect("ready set is non-empty while tasks remain");
        ready.swap_remove(k);
        // Core where it finishes first.
        let start_on = |c: usize| core_free[c].max(earliest[task.index()]);
        let core = (0..cores)
            .min_by_key(|&c| (start_on(c) + graph.task(task).wcet(), c))
            .expect("cores is non-zero");
        let start = start_on(core);
        let finish = start + graph.task(task).wcet();
        core_free[core] = finish;
        orders[core].push(task);
        scheduled += 1;
        for e in graph.successors(task) {
            let j = e.dst.index();
            earliest[j] = earliest[j].max(finish);
            pending[j] -= 1;
            if pending[j] == 0 {
                ready.push(e.dst);
            }
        }
    }
    Mapping::from_orders(graph, orders)
}

/// Interference-free makespan of an assignment: tasks start at the latest
/// of their core's availability, their dependencies' finishes and their
/// minimal release, in topological order. This is the standard cheap cost
/// proxy for mapping search; `mia-dse` searches against the full
/// interference analysis instead, the combination the paper's O(n²)
/// algorithm makes affordable.
///
/// # Errors
///
/// Returns [`ModelError::Cycle`] for cyclic graphs.
pub fn assignment_makespan(graph: &TaskGraph, assignment: &[usize]) -> Result<Cycles, ModelError> {
    let order = graph.topological_order()?;
    let cores = assignment.iter().copied().max().map_or(1, |m| m + 1);
    let mut core_free = vec![Cycles::ZERO; cores];
    let mut finish = vec![Cycles::ZERO; graph.len()];
    let mut makespan = Cycles::ZERO;
    for t in order {
        let i = t.index();
        let mut start = core_free[assignment[i]].max(graph.task(t).min_release());
        for e in graph.predecessors(t) {
            start = start.max(finish[e.src.index()]);
        }
        finish[i] = start + graph.task(t).wcet();
        core_free[assignment[i]] = finish[i];
        makespan = makespan.max(finish[i]);
    }
    Ok(makespan)
}

/// Ratio between the most and least loaded cores' total WCET (1.0 is
/// perfectly balanced; unused cores count as zero load, yielding
/// `f64::INFINITY`).
pub fn load_imbalance(graph: &TaskGraph, mapping: &Mapping) -> f64 {
    let mut load = vec![0u64; mapping.cores()];
    for (id, task) in graph.iter() {
        load[mapping.core_of(id).index()] += task.wcet().as_u64();
    }
    let max = load.iter().copied().max().unwrap_or(0);
    let min = load.iter().copied().min().unwrap_or(0);
    if min == 0 {
        if max == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max as f64 / min as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{Platform, Problem, Task};

    fn layered_graph() -> TaskGraph {
        // Two layers of three tasks, fully connected between layers.
        let mut g = TaskGraph::new();
        let top: Vec<TaskId> = (0..3)
            .map(|i| g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(10))))
            .collect();
        let bottom: Vec<TaskId> = (0..3)
            .map(|i| g.add_task(Task::builder(format!("b{i}")).wcet(Cycles(10))))
            .collect();
        for &t in &top {
            for &b in &bottom {
                g.add_edge(t, b, 1).unwrap();
            }
        }
        g
    }

    #[test]
    fn layered_cyclic_assigns_mod_cores() {
        let g = layered_graph();
        let m = layered_cyclic(&g, 2).unwrap();
        assert_eq!(m.core_of(TaskId(0)).index(), 0);
        assert_eq!(m.core_of(TaskId(1)).index(), 1);
        assert_eq!(m.core_of(TaskId(2)).index(), 0);
        assert_eq!(m.core_of(TaskId(3)).index(), 0);
        Problem::new(g, m, Platform::new(2, 2)).unwrap();
    }

    #[test]
    fn load_balanced_spreads_work() {
        let g = layered_graph();
        let m = load_balanced(&g, 3).unwrap();
        assert!(load_imbalance(&g, &m) <= 1.01);
        Problem::new(g, m, Platform::new(3, 3)).unwrap();
    }

    #[test]
    fn load_balanced_handles_heterogeneous_wcets() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(Task::builder("big").wcet(Cycles(100)));
        for i in 0..4 {
            g.add_task(Task::builder(format!("s{i}")).wcet(Cycles(25)));
        }
        let m = load_balanced(&g, 2).unwrap();
        // Big task alone on one core, the four small ones on the other.
        let big_core = m.core_of(TaskId(0));
        for i in 1..5 {
            assert_ne!(m.core_of(TaskId(i)), big_core);
        }
    }

    #[test]
    fn earliest_finish_respects_dependencies() {
        let g = layered_graph();
        let m = earliest_finish(&g, 2).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        assert_eq!(p.combined_order().len(), 6);
    }

    #[test]
    fn earliest_finish_uses_min_release() {
        let mut g = TaskGraph::new();
        let late = g.add_task(
            Task::builder("late")
                .wcet(Cycles(5))
                .min_release(Cycles(100)),
        );
        let early = g.add_task(Task::builder("early").wcet(Cycles(5)));
        let m = earliest_finish(&g, 1).unwrap();
        // The early task must be ordered before the release-delayed one.
        assert_eq!(m.order(mia_model::CoreId(0)), &[early, late]);
    }

    #[test]
    fn zero_cores_is_an_error() {
        let g = layered_graph();
        assert!(matches!(
            layered_cyclic(&g, 0),
            Err(ModelError::EmptyPlatform)
        ));
        assert!(matches!(
            load_balanced(&g, 0),
            Err(ModelError::EmptyPlatform)
        ));
        assert!(matches!(
            earliest_finish(&g, 0),
            Err(ModelError::EmptyPlatform)
        ));
    }

    #[test]
    fn assignment_makespan_of_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(20)));
        g.add_edge(a, b, 1).unwrap();
        // Chain serializes regardless of cores.
        assert_eq!(assignment_makespan(&g, &[0, 1]).unwrap(), Cycles(30));
        assert_eq!(assignment_makespan(&g, &[0, 0]).unwrap(), Cycles(30));
    }

    #[test]
    fn empty_graph_maps_trivially() {
        let g = TaskGraph::new();
        let m = load_balanced(&g, 4).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(load_imbalance(&g, &m), 1.0);
    }

    #[test]
    fn all_strategies_produce_valid_problems_on_random_layers() {
        use mia_dag_gen::{Family, LayeredDag};
        let w = LayeredDag::new(Family::FixedLayerSize(8).config(64, 21)).generate();
        for cores in [1usize, 3, 16] {
            for m in [
                layered_cyclic(&w.graph, cores).unwrap(),
                load_balanced(&w.graph, cores).unwrap(),
                earliest_finish(&w.graph, cores).unwrap(),
            ] {
                Problem::new(w.graph.clone(), m, Platform::new(16, 16)).unwrap();
            }
        }
    }
}
