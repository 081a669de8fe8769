//! A structure-of-arrays compaction of the task graph for analysis hot
//! loops.
//!
//! [`TaskGraph`] stores rich [`Task`](crate::Task) records (name, demand
//! map, deadline, …) plus edge lists behind two levels of indirection
//! (`Vec<EdgeId>` per task into a shared `Vec<Edge>`). That layout is
//! right for construction and editing, but the cursor driver of the
//! incremental analysis touches only three fields — WCET, minimal release
//! date, successor ids — once per task per run, and at 10⁶ tasks the
//! pointer-chasing and the cold `Task` cache lines dominate the loop.
//!
//! [`TaskTable`] flattens exactly those fields: dense per-task arrays for
//! WCET and minimal release, and the successor lists compacted into a
//! single CSR (offsets + targets) pair so a task's successors are one
//! contiguous slice. Beside them it keeps what every run would otherwise
//! recompute from the graph: in-degrees, the positive minimal release
//! dates in ascending order, and each task's longest-path rank. It is
//! built once per [`Problem`](crate::Problem), in `O(n log n + e)`, and
//! is immutable afterwards, so analyses, design-space moves and worker
//! pools share it freely.

use crate::{Cycles, TaskGraph, TaskId};

/// Dense, read-only per-task columns of a [`TaskGraph`]: the fields the
/// analysis cursor reads once per task, laid out for sequential access.
/// See the module documentation in `table.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTable {
    /// WCET per task, indexed by task id.
    wcet: Vec<Cycles>,
    /// Minimal release date per task, indexed by task id.
    min_release: Vec<Cycles>,
    /// CSR offsets into `succ_targets`; length `n + 1`.
    succ_offsets: Vec<u32>,
    /// Successor task ids, grouped by source task in edge-insertion
    /// order (matching [`TaskGraph::successors`]).
    succ_targets: Vec<TaskId>,
    /// Number of predecessors per task.
    in_degree: Vec<u32>,
    /// `(minimal release, task)` of every task released after 0,
    /// ascending.
    future_releases: Vec<(Cycles, TaskId)>,
    /// Longest-path layer per task: 0 for sources, otherwise one more
    /// than the highest-ranked predecessor. Meaningful only when
    /// `acyclic`.
    rank: Vec<u32>,
    /// False when the dependency edges form a cycle.
    acyclic: bool,
}

impl TaskTable {
    /// Compacts `graph` into dense columns; `O(n + e)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges (such a graph
    /// cannot be built in memory anyway).
    pub fn new(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let e = graph.edge_count();
        assert!(
            u32::try_from(e).is_ok(),
            "task graph exceeds u32 edge capacity"
        );
        let mut wcet = Vec::with_capacity(n);
        let mut min_release = Vec::with_capacity(n);
        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut succ_targets = Vec::with_capacity(e);
        let mut in_degree = Vec::with_capacity(n);
        let mut future_releases = Vec::new();
        succ_offsets.push(0);
        for (id, task) in graph.iter() {
            wcet.push(task.wcet());
            min_release.push(task.min_release());
            if task.min_release() > Cycles::ZERO {
                future_releases.push((task.min_release(), id));
            }
            succ_targets.extend(graph.successors(id).map(|edge| edge.dst));
            succ_offsets.push(succ_targets.len() as u32);
            in_degree.push(graph.in_degree(id) as u32);
        }
        future_releases.sort_unstable();
        let mut table = TaskTable {
            wcet,
            min_release,
            succ_offsets,
            succ_targets,
            in_degree,
            future_releases,
            rank: vec![0; n],
            acyclic: false,
        };
        table.rank_tasks();
        table
    }

    /// Fills `rank` and records whether the graph is acyclic. When every
    /// edge goes to a higher task id (as generated and front-end graphs
    /// are numbered) one pass in id order settles each rank before it is
    /// propagated; otherwise a Kahn pass over the successor lists does,
    /// and a task it never reaches proves a cycle.
    fn rank_tasks(&mut self) {
        let mut forward = true;
        for t in 0..self.len() {
            let next = self.rank[t] + 1;
            let lo = self.succ_offsets[t] as usize;
            let hi = self.succ_offsets[t + 1] as usize;
            for &succ in &self.succ_targets[lo..hi] {
                forward &= succ.index() > t;
                self.rank[succ.index()] = self.rank[succ.index()].max(next);
            }
        }
        if forward {
            self.acyclic = true;
            return;
        }
        self.rank.fill(0);
        let mut pending = self.in_degree.clone();
        let mut queue: Vec<TaskId> = (0..self.len())
            .map(TaskId::from_index)
            .filter(|t| pending[t.index()] == 0)
            .collect();
        let mut head = 0;
        while let Some(&t) = queue.get(head) {
            head += 1;
            let next = self.rank[t.index()] + 1;
            let lo = self.succ_offsets[t.index()] as usize;
            let hi = self.succ_offsets[t.index() + 1] as usize;
            for i in lo..hi {
                let succ = self.succ_targets[i];
                self.rank[succ.index()] = self.rank[succ.index()].max(next);
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        self.acyclic = queue.len() == self.len();
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.wcet.len()
    }

    /// True when the table covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.wcet.is_empty()
    }

    /// The WCET of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn wcet(&self, task: TaskId) -> Cycles {
        self.wcet[task.index()]
    }

    /// The minimal release date of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn min_release(&self, task: TaskId) -> Cycles {
        self.min_release[task.index()]
    }

    /// The successors of `task` as one contiguous slice, in the same
    /// order as [`TaskGraph::successors`].
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn successors(&self, task: TaskId) -> &[TaskId] {
        let lo = self.succ_offsets[task.index()] as usize;
        let hi = self.succ_offsets[task.index() + 1] as usize;
        &self.succ_targets[lo..hi]
    }

    /// The number of predecessors of every task, indexed by task id.
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }

    /// `(minimal release, task)` of every task with a positive minimal
    /// release date, ascending: the cursor's future jump targets.
    #[inline]
    pub fn future_releases(&self) -> &[(Cycles, TaskId)] {
        &self.future_releases
    }

    /// The longest-path rank of `task`: 0 for a source, otherwise one
    /// more than its highest-ranked predecessor. Every dependency edge
    /// therefore strictly raises the rank. Meaningless for a graph with a
    /// dependency cycle, which no [`Problem`](crate::Problem) holds.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn rank(&self, task: TaskId) -> u32 {
        self.rank[task.index()]
    }

    /// True when the dependency edges form no cycle.
    pub(crate) fn is_acyclic(&self) -> bool {
        self.acyclic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(3)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(5)).min_release(Cycles(2)));
        let c = g.add_task(Task::builder("c").wcet(Cycles(7)));
        let d = g.add_task(Task::builder("d").wcet(Cycles(11)));
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, c, 1).unwrap();
        g.add_edge(b, d, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        g
    }

    #[test]
    fn columns_match_the_graph() {
        let g = diamond();
        let t = TaskTable::new(&g);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        for (id, task) in g.iter() {
            assert_eq!(t.wcet(id), task.wcet());
            assert_eq!(t.min_release(id), task.min_release());
            let from_graph: Vec<TaskId> = g.successors(id).map(|e| e.dst).collect();
            assert_eq!(t.successors(id), from_graph.as_slice());
        }
    }

    #[test]
    fn derived_columns_match_the_graph() {
        let mut g = diamond();
        let late = g.add_task(Task::builder("late").wcet(Cycles(1)).min_release(Cycles(1)));
        let t = TaskTable::new(&g);
        assert_eq!(t.in_degrees(), &[0, 1, 1, 2, 0]);
        assert_eq!(
            t.future_releases(),
            &[(Cycles(1), late), (Cycles(2), TaskId(1))]
        );
        assert!(t.is_acyclic());
        let ranks: Vec<u32> = g.task_ids().map(|id| t.rank(id)).collect();
        assert_eq!(ranks, vec![0, 1, 1, 2, 0]);
        // An edge to a lower id takes the Kahn pass: late -> a lifts the
        // whole diamond by one.
        g.add_edge(late, TaskId(0), 1).unwrap();
        let t = TaskTable::new(&g);
        assert!(t.is_acyclic());
        let ranks: Vec<u32> = g.task_ids().map(|id| t.rank(id)).collect();
        assert_eq!(ranks, vec![1, 2, 2, 3, 0]);
        g.add_edge(TaskId(3), TaskId(0), 1).unwrap();
        assert!(!TaskTable::new(&g).is_acyclic());
    }

    #[test]
    fn empty_graph_yields_empty_table() {
        let t = TaskTable::new(&TaskGraph::new());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn successor_order_is_insertion_order() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a"));
        let z = g.add_task(Task::builder("z"));
        let m = g.add_task(Task::builder("m"));
        g.add_edge(a, z, 1).unwrap();
        g.add_edge(a, m, 1).unwrap();
        let t = TaskTable::new(&g);
        assert_eq!(t.successors(a), &[z, m]);
        assert_eq!(t.successors(z), &[] as &[TaskId]);
    }
}
