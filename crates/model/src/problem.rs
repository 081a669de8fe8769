//! A validated analysis problem: graph + mapping + platform + demands,
//! plus the in-place design moves of the mapping search.

use crate::{
    BankDemand, BankId, BankPlacement, BankPolicy, CoreId, Mapping, ModelError, Platform,
    TaskGraph, TaskId, TaskTable,
};

/// A local change of a [`Problem`]'s design, applied in place by
/// [`Problem::apply_move`]: new execution orders for the cores the
/// change touches (tasks may move between them), and optionally a new
/// [`BankPlacement`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Move {
    /// `(core, its new execution order)`, at most once per core.
    pub orders: Vec<(CoreId, Vec<TaskId>)>,
    /// The new bank placement, or `None` to keep the current one.
    pub placement: Option<BankPlacement>,
}

/// Everything [`Problem::revert`] needs to undo one
/// [`Problem::apply_move`]: the replaced orders, cores, placement and
/// demand vectors.
#[must_use = "a dropped revert token commits the move"]
#[derive(Debug)]
pub struct Revert {
    /// The replaced execution orders.
    orders: Vec<(CoreId, Vec<TaskId>)>,
    /// The number of per-core orders before the move.
    cores: usize,
    /// The former core of every task that changed core.
    recored: Vec<(TaskId, CoreId)>,
    /// The former placement, when the move replaced it.
    placement: Option<Option<BankPlacement>>,
    /// The former demand vector of every task whose home bank moved.
    demands: Vec<(TaskId, BankDemand)>,
    /// `(producer, from, to, words)`: one write of a producer shifted
    /// from its consumer's old home bank to the new one.
    shifted: Vec<(TaskId, BankId, BankId, u64)>,
}

/// Everything an interference analysis needs, validated once at
/// construction:
///
/// * the task [`TaskGraph`] is acyclic,
/// * the [`Mapping`] covers every task exactly once,
/// * the mapping fits on the [`Platform`],
/// * the combined precedence relation (dependency edges **plus** per-core
///   execution order) is acyclic — a cross-core ordering cycle would
///   deadlock any schedule,
/// * every derived [`BankDemand`] targets an existing bank.
///
/// The per-bank demands are derived at construction with the chosen
/// [`BankPolicy`] (or injected verbatim with [`Problem::with_demands`]).
/// The graph's [`TaskTable`] is built once, here, and shared by every
/// analysis of the problem and every design move applied to it.
///
/// # Acyclicity by rank inversions
///
/// A *rank inversion* is a pair of adjacent tasks in one core order
/// whose longest-path rank ([`TaskTable::rank`]) decreases. A mapping
/// without one is acyclic without a search: every dependency edge
/// strictly raises the rank and every core-order edge keeps or raises
/// it, so a cycle could use core-order edges only — but those join tasks
/// of one core, where they form a chain. A mapping with inversions pays
/// for one topological pass over the combined relation.
///
/// # Example
///
/// ```
/// use mia_model::{BankPolicy, Cycles, Mapping, Platform, Problem, Task, TaskGraph};
///
/// # fn main() -> Result<(), mia_model::ModelError> {
/// let mut g = TaskGraph::new();
/// let a = g.add_task(Task::builder("a").wcet(Cycles(10)));
/// let b = g.add_task(Task::builder("b").wcet(Cycles(10)));
/// g.add_edge(a, b, 8)?;
/// let m = Mapping::from_assignment(&g, &[0, 1])?;
/// let problem = Problem::with_policy(g, m, Platform::new(2, 2), BankPolicy::PerCoreBank)?;
/// // b reads its 8 words from its own core bank (bank 1).
/// assert_eq!(problem.demand(b).get(mia_model::BankId(1)), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    graph: TaskGraph,
    mapping: Mapping,
    platform: Platform,
    demands: Vec<BankDemand>,
    /// The graph's dense columns, built once.
    table: TaskTable,
    /// How `demands` follow the mapping; `None` when they were injected
    /// verbatim and do not depend on it.
    placement: Option<BankPlacement>,
}

impl Problem {
    /// Builds a problem with the default [`BankPolicy::PerCoreBank`] demand
    /// derivation (the Kalray MPPA-256 configuration of the paper).
    ///
    /// # Errors
    ///
    /// See the type-level documentation for the validated properties; the
    /// first violated one is reported as a [`ModelError`].
    pub fn new(graph: TaskGraph, mapping: Mapping, platform: Platform) -> Result<Self, ModelError> {
        Problem::with_policy(graph, mapping, platform, BankPolicy::PerCoreBank)
    }

    /// Builds a problem deriving demands with an explicit policy.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::new`].
    pub fn with_policy(
        graph: TaskGraph,
        mapping: Mapping,
        platform: Platform,
        policy: BankPolicy,
    ) -> Result<Self, ModelError> {
        let placement = BankPlacement::Policy(policy);
        let demands = placement.derive(&graph, &mapping, &platform)?;
        Problem::build(graph, mapping, platform, demands, Some(placement))
    }

    /// Builds a problem with caller-provided per-task demands (indexed by
    /// task id), bypassing edge-based derivation.
    ///
    /// # Errors
    ///
    /// Same as [`Problem::new`], plus [`ModelError::LengthMismatch`] if
    /// `demands` does not cover the graph.
    pub fn with_demands(
        graph: TaskGraph,
        mapping: Mapping,
        platform: Platform,
        demands: Vec<BankDemand>,
    ) -> Result<Self, ModelError> {
        Problem::build(graph, mapping, platform, demands, None)
    }

    fn build(
        graph: TaskGraph,
        mapping: Mapping,
        platform: Platform,
        demands: Vec<BankDemand>,
        placement: Option<BankPlacement>,
    ) -> Result<Self, ModelError> {
        mapping.validate(&graph)?;
        fits_platform(&mapping, &platform)?;
        if demands.len() != graph.len() {
            return Err(ModelError::LengthMismatch {
                expected: graph.len(),
                found: demands.len(),
            });
        }
        for d in &demands {
            if let Some(b) = d.max_bank() {
                if b.index() >= platform.banks() {
                    return Err(ModelError::UnknownBank(b));
                }
            }
        }
        let table = {
            let _span = mia_obs::span("core.task_table");
            TaskTable::new(&graph)
        };
        check_acyclic(&table, &mapping)?;
        Ok(Problem {
            graph,
            mapping,
            platform,
            demands,
            table,
            placement,
        })
    }

    /// Replaces the mapping of an existing problem, re-deriving every
    /// per-bank demand under `placement` and revalidating exactly like
    /// construction — **without** cloning the task graph or rebuilding
    /// its table. On error the problem is left unchanged.
    ///
    /// The mapping search applies its moves with the cheaper
    /// [`Problem::apply_move`]; this full rebuild re-establishes a
    /// design from scratch.
    ///
    /// # Errors
    ///
    /// The same conditions as [`Problem::with_policy`] (an invalid or
    /// incomplete mapping, a mapping that overflows the platform, or a
    /// combined dependency ∪ core-order cycle), plus, for an explicit
    /// placement, [`ModelError::LengthMismatch`] when it does not cover
    /// the graph and [`ModelError::UnknownBank`] for out-of-range banks.
    pub fn remap(&mut self, mapping: Mapping, placement: BankPlacement) -> Result<(), ModelError> {
        mapping.validate(&self.graph)?;
        fits_platform(&mapping, &self.platform)?;
        check_acyclic(&self.table, &mapping)?;
        let demands = placement.derive(&self.graph, &mapping, &self.platform)?;
        self.mapping = mapping;
        self.demands = demands;
        self.placement = Some(placement);
        Ok(())
    }

    /// Applies a local design change in place and returns the token that
    /// [`Problem::revert`]s it. The result equals what
    /// [`Problem::remap`] builds from the patched mapping and placement,
    /// at the cost of what the move touched:
    ///
    /// * the replaced orders;
    /// * the demand vectors of the tasks whose home bank changed (a
    ///   re-cored task under a core-following policy, or a re-banked
    ///   one) and of their direct producers, whose writes land in the
    ///   consumer's bank. A pure reorder re-derives nothing;
    /// * the acyclicity check of construction: a scan of the core orders,
    ///   and a Kahn pass only if one has a rank inversion (see the type
    ///   documentation).
    ///
    /// Demands injected with [`Problem::with_demands`] do not follow the
    /// mapping and stay as they are, unless the move sets a placement.
    /// On error the problem is left unchanged.
    ///
    /// # Errors
    ///
    /// [`ModelError::Cycle`] when the patched mapping has a combined
    /// dependency ∪ core-order cycle (the same error [`Problem::remap`]
    /// reports); [`ModelError::UnknownCore`] for a core beyond the
    /// platform; the error of [`Mapping::from_orders`] when the new
    /// orders do not hold exactly the tasks of the orders they replace;
    /// and, for an explicit placement, [`ModelError::LengthMismatch`] or
    /// [`ModelError::UnknownBank`].
    ///
    /// # Panics
    ///
    /// Panics if `mv.orders` names a core twice.
    pub fn apply_move(&mut self, mv: Move) -> Result<Revert, ModelError> {
        let Move { orders, placement } = mv;
        self.check_move(&orders, placement.as_ref())?;
        let mut revert = Revert {
            orders: Vec::with_capacity(orders.len()),
            cores: self.mapping.order.len(),
            recored: Vec::new(),
            placement: None,
            demands: Vec::new(),
            shifted: Vec::new(),
        };
        if let Some(top) = orders.iter().map(|(c, _)| c.index() + 1).max() {
            if top > self.mapping.order.len() {
                self.mapping.order.resize_with(top, Vec::new);
            }
        }
        for (core, order) in orders {
            let old = std::mem::replace(&mut self.mapping.order[core.index()], order);
            for &task in &self.mapping.order[core.index()] {
                let was = std::mem::replace(&mut self.mapping.core_of[task.index()], core);
                if was != core {
                    revert.recored.push((task, was));
                }
            }
            revert.orders.push((core, old));
        }
        if let Some(placement) = placement {
            revert.placement = Some(self.placement.replace(placement));
        }
        if let Err(e) = check_acyclic(&self.table, &self.mapping) {
            self.revert(revert);
            return Err(e);
        }
        self.rederive(&mut revert);
        Ok(revert)
    }

    /// Undoes the [`Problem::apply_move`] that returned `revert`. Tokens
    /// must be reverted in reverse order of application.
    pub fn revert(&mut self, revert: Revert) {
        for &(producer, from, to, words) in revert.shifted.iter().rev() {
            self.demands[producer.index()].shift(to, from, words);
        }
        for (task, demand) in revert.demands {
            self.demands[task.index()] = demand;
        }
        if let Some(placement) = revert.placement {
            self.placement = placement;
        }
        for (task, core) in revert.recored {
            self.mapping.core_of[task.index()] = core;
        }
        for (core, order) in revert.orders {
            self.mapping.order[core.index()] = order;
        }
        self.mapping.order.truncate(revert.cores);
    }

    /// Rejects a move before anything is patched.
    fn check_move(
        &self,
        orders: &[(CoreId, Vec<TaskId>)],
        placement: Option<&BankPlacement>,
    ) -> Result<(), ModelError> {
        let mut cores: Vec<CoreId> = orders.iter().map(|&(c, _)| c).collect();
        cores.sort_unstable();
        assert!(
            cores.windows(2).all(|w| w[0] < w[1]),
            "a move names each core at most once"
        );
        if let Some(&core) = cores.last() {
            if core.index() >= self.platform.cores() {
                return Err(ModelError::UnknownCore(core));
            }
        }
        // The new orders must hold exactly the tasks of the ones they
        // replace; anything else would break "every task exactly once".
        let mut before: Vec<TaskId> = cores
            .iter()
            .flat_map(|&c| self.mapping.order(c).iter().copied())
            .collect();
        let mut after: Vec<TaskId> = orders.iter().flat_map(|(_, o)| o.iter().copied()).collect();
        before.sort_unstable();
        after.sort_unstable();
        if before != after {
            let mut full = self.mapping.order.clone();
            for (core, order) in orders {
                if core.index() >= full.len() {
                    full.resize_with(core.index() + 1, Vec::new);
                }
                full[core.index()].clone_from(order);
            }
            return Err(Mapping::from_orders(&self.graph, full).err().unwrap_or(
                ModelError::IncompleteMapping {
                    expected: before.len(),
                    found: after.len(),
                },
            ));
        }
        match placement {
            Some(placement) => placement.validate(self.graph.len(), &self.platform),
            None => Ok(()),
        }
    }

    /// Brings the demands in line with the move applied behind
    /// `revert`. Every task whose home bank moved is re-derived in full
    /// (its private accesses and the edges it consumes follow its home);
    /// each of its direct producers outside that set only has its write
    /// to it shifted from the old home bank to the new one.
    fn rederive(&mut self, revert: &mut Revert) {
        let Some(placement) = &self.placement else {
            return;
        };
        let banks = self.platform.banks();
        // `(task, old home)` of every task whose home moved, ascending.
        let moved: Vec<(TaskId, BankId)> = match &revert.placement {
            // Injected demands become derived ones: all of them change.
            Some(None) => self.graph.task_ids().map(|t| (t, BankId(0))).collect(),
            Some(Some(old)) => {
                let mut recored = revert.recored.clone();
                recored.sort_unstable();
                let old_core = |t: TaskId| match recored.binary_search_by_key(&t, |&(t, _)| t) {
                    Ok(i) => recored[i].1,
                    Err(_) => self.mapping.core_of(t),
                };
                self.graph
                    .task_ids()
                    .map(|t| (t, old.home(t, old_core(t), banks)))
                    .filter(|&(t, was)| was != placement.home(t, self.mapping.core_of(t), banks))
                    .collect()
            }
            None => {
                let mut moved: Vec<(TaskId, BankId)> = revert
                    .recored
                    .iter()
                    .map(|&(t, was)| (t, placement.home(t, was, banks)))
                    .filter(|&(t, was)| was != placement.home(t, self.mapping.core_of(t), banks))
                    .collect();
                moved.sort_unstable();
                moved
            }
        };
        let is_moved = |t: TaskId| moved.binary_search_by_key(&t, |&(t, _)| t).is_ok();
        for &(task, was) in &moved {
            let now = placement.home(task, self.mapping.core_of(task), banks);
            for e in self.graph.predecessors(task) {
                if !is_moved(e.src) {
                    revert.shifted.push((e.src, was, now, e.words));
                }
            }
        }
        for &(producer, from, to, words) in &revert.shifted {
            self.demands[producer.index()].shift(from, to, words);
        }
        for &(task, _) in &moved {
            let demand = placement.demand_of(&self.graph, &self.mapping, &self.platform, task);
            let old = std::mem::replace(&mut self.demands[task.index()], demand);
            revert.demands.push((task, old));
        }
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The graph's dense per-task columns (built once, at construction).
    pub fn table(&self) -> &TaskTable {
        &self.table
    }

    /// The mapping and per-core execution orders.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The platform geometry.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// How the demands follow the mapping, or `None` when they were
    /// injected with [`Problem::with_demands`].
    pub fn placement(&self) -> Option<&BankPlacement> {
        self.placement.as_ref()
    }

    /// Per-task bank demands, indexed by task id.
    pub fn demands(&self) -> &[BankDemand] {
        &self.demands
    }

    /// The demand of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is outside the graph.
    pub fn demand(&self, task: TaskId) -> &BankDemand {
        &self.demands[task.index()]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True if the problem has no tasks.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

/// Rejects a mapping that uses more cores than the platform has.
fn fits_platform(mapping: &Mapping, platform: &Platform) -> Result<(), ModelError> {
    if mapping.cores() > platform.cores() {
        return Err(ModelError::UnknownCore(CoreId::from_index(
            mapping.cores() - 1,
        )));
    }
    Ok(())
}

/// Checks that the relation "dependency edge or consecutive on the same
/// core" is acyclic: a scan of the core orders when the mapping has no
/// rank inversion (see [`Problem`]), one Kahn pass otherwise.
///
/// The tasks a Kahn pass never reaches are exactly those reachable from
/// a cycle, whatever order it visits the others in, so the reported
/// culprit — the lowest such id — is the same for every visiting order.
fn check_acyclic(table: &TaskTable, mapping: &Mapping) -> Result<(), ModelError> {
    let rank_sorted = |order: &[TaskId]| {
        order
            .windows(2)
            .all(|w| table.rank(w[0]) <= table.rank(w[1]))
    };
    if table.is_acyclic() && mapping.iter().all(|(_, order)| rank_sorted(order)) {
        return Ok(());
    }
    let n = table.len();
    let mut indegree = table.in_degrees().to_vec();
    let mut core_next: Vec<Option<TaskId>> = vec![None; n];
    for (_, order) in mapping.iter() {
        for pair in order.windows(2) {
            indegree[pair[1].index()] += 1;
            core_next[pair[0].index()] = Some(pair[1]);
        }
    }
    let mut ready: Vec<TaskId> = (0..n)
        .map(TaskId::from_index)
        .filter(|t| indegree[t.index()] == 0)
        .collect();
    let mut reached = 0usize;
    while let Some(t) = ready.pop() {
        reached += 1;
        let core_succ = core_next[t.index()];
        for &succ in table.successors(t).iter().chain(core_succ.as_ref()) {
            indegree[succ.index()] -= 1;
            if indegree[succ.index()] == 0 {
                ready.push(succ);
            }
        }
    }
    if reached == n {
        return Ok(());
    }
    let culprit = (0..n)
        .map(TaskId::from_index)
        .find(|t| indegree[t.index()] > 0)
        .expect("an unreached task keeps a positive in-degree");
    Err(ModelError::Cycle(culprit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycles, Task};

    fn two_task_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::builder("a").wcet(Cycles(5)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(5)));
        g.add_edge(a, b, 2).unwrap();
        g
    }

    const PER_CORE: BankPlacement = BankPlacement::Policy(BankPolicy::PerCoreBank);

    #[test]
    fn new_validates_and_derives() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let p = Problem::new(g, m, Platform::new(2, 2)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.demand(TaskId(0)).get(BankId(1)), 2);
        assert_eq!(p.table().len(), 2);
    }

    #[test]
    fn rejects_mapping_beyond_platform() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 5]).unwrap();
        assert!(matches!(
            Problem::new(g, m, Platform::new(2, 2)),
            Err(ModelError::UnknownCore(_))
        ));
    }

    #[test]
    fn rejects_demands_on_unknown_bank() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let demands = vec![BankDemand::single(BankId(9), 1), BankDemand::new()];
        assert!(matches!(
            Problem::with_demands(g, m, Platform::new(2, 2), demands),
            Err(ModelError::UnknownBank(BankId(9)))
        ));
    }

    #[test]
    fn rejects_wrong_demand_length() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        assert!(matches!(
            Problem::with_demands(g, m, Platform::new(2, 2), vec![BankDemand::new()]),
            Err(ModelError::LengthMismatch { .. })
        ));
    }

    /// x -> ... a -> b and y -> x: core 0 runs [x, a], core 1 runs
    /// [b, y] (a cycle x<a, a<b, b<y, y<x) or [y, b] (acyclic).
    fn crossing_graph() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let x = g.add_task(Task::builder("x").wcet(Cycles(1)));
        let a = g.add_task(Task::builder("a").wcet(Cycles(1)));
        let b = g.add_task(Task::builder("b").wcet(Cycles(1)));
        let y = g.add_task(Task::builder("y").wcet(Cycles(1)));
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(y, x, 1).unwrap();
        (g, [x, a, b, y])
    }

    #[test]
    fn detects_cross_core_order_cycle() {
        let (g, [x, a, b, y]) = crossing_graph();
        let m = Mapping::from_orders(&g, vec![vec![x, a], vec![b, y]]).unwrap();
        assert!(matches!(
            Problem::new(g, m, Platform::new(2, 2)),
            Err(ModelError::Cycle(_))
        ));
    }

    #[test]
    fn a_dependency_cycle_is_rejected_whatever_the_order() {
        let (mut g, [x, a, b, y]) = crossing_graph();
        g.add_edge(x, y, 1).unwrap();
        let m = Mapping::from_orders(&g, vec![vec![x], vec![a], vec![b], vec![y]]).unwrap();
        assert_eq!(
            Problem::new(g, m, Platform::new(4, 4)).unwrap_err(),
            ModelError::Cycle(x)
        );
    }

    #[test]
    fn remap_swaps_mapping_and_rederives_demands() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let mut p = Problem::new(g.clone(), m, Platform::new(2, 2)).unwrap();
        // b on core 1: the edge's 2 words land in bank 1.
        assert_eq!(p.demand(TaskId(0)).get(BankId(1)), 2);

        let swapped = Mapping::from_assignment(&g, &[1, 0]).unwrap();
        p.remap(swapped, PER_CORE).unwrap();
        // Now b is on core 0: the edge targets bank 0 instead.
        assert_eq!(p.demand(TaskId(0)).get(BankId(0)), 2);
        assert_eq!(p.mapping().core_of(TaskId(0)), CoreId(1));
        // The result is indistinguishable from building from scratch.
        let fresh = Problem::new(
            g.clone(),
            Mapping::from_assignment(&g, &[1, 0]).unwrap(),
            Platform::new(2, 2),
        )
        .unwrap();
        assert_eq!(p, fresh);
    }

    #[test]
    fn failed_remap_leaves_the_problem_unchanged() {
        // A cross-core ordering cycle (see detects_cross_core_order_cycle)
        // must reject the candidate without corrupting the problem.
        let (g, [x, a, b, y]) = crossing_graph();
        let good = Mapping::from_orders(&g, vec![vec![x, a], vec![y, b]]).unwrap();
        let mut p = Problem::new(g.clone(), good, Platform::new(2, 2)).unwrap();
        let before = p.clone();
        let cyclic = Mapping::from_orders(&g, vec![vec![x, a], vec![b, y]]).unwrap();
        assert!(matches!(
            p.remap(cyclic, PER_CORE),
            Err(ModelError::Cycle(_))
        ));
        assert_eq!(p, before);
        let overflow = Mapping::from_assignment(&g, &[0, 1, 2, 3]).unwrap();
        assert!(matches!(
            p.remap(overflow, PER_CORE),
            Err(ModelError::UnknownCore(_))
        ));
        assert_eq!(p, before);
    }

    #[test]
    fn apply_move_matches_a_remap_and_reverts_exactly() {
        let (g, [x, a, b, y]) = crossing_graph();
        let base = Mapping::from_orders(&g, vec![vec![x, a], vec![y, b]]).unwrap();
        let mut p = Problem::new(g.clone(), base, Platform::new(2, 2)).unwrap();
        let before = p.clone();
        // Migrate b to core 0, after a: a's write now lands in bank 0.
        let revert = p
            .apply_move(Move {
                orders: vec![(CoreId(0), vec![x, a, b]), (CoreId(1), vec![y])],
                placement: None,
            })
            .unwrap();
        let mut fresh = before.clone();
        let moved = Mapping::from_orders(&g, vec![vec![x, a, b], vec![y]]).unwrap();
        fresh.remap(moved, PER_CORE).unwrap();
        assert_eq!(p, fresh);
        assert_eq!(p.demand(a).get(BankId(0)), 1);
        p.revert(revert);
        assert_eq!(p, before);
    }

    #[test]
    fn a_cyclic_move_is_refused_and_leaves_the_problem_unchanged() {
        let (g, [x, a, b, y]) = crossing_graph();
        let base = Mapping::from_orders(&g, vec![vec![x, a], vec![y, b]]).unwrap();
        let mut p = Problem::new(g.clone(), base, Platform::new(2, 2)).unwrap();
        let before = p.clone();
        let err = p
            .apply_move(Move {
                orders: vec![(CoreId(1), vec![b, y])],
                placement: None,
            })
            .unwrap_err();
        let cyclic = Mapping::from_orders(&g, vec![vec![x, a], vec![b, y]]).unwrap();
        assert_eq!(Some(err), p.clone().remap(cyclic, PER_CORE).err());
        assert_eq!(p, before);
        // A move that loses a task is refused the way a mapping is.
        assert_eq!(
            p.apply_move(Move {
                orders: vec![(CoreId(1), vec![y])],
                placement: None,
            })
            .unwrap_err(),
            ModelError::IncompleteMapping {
                expected: 4,
                found: 3
            }
        );
        assert_eq!(p, before);
    }

    #[test]
    fn a_sorted_move_can_close_a_cycle_through_another_cores_inversion() {
        // y -> u, w -> v -> x; core 1 runs x before y, a rank inversion.
        let mut g = TaskGraph::new();
        let [y, w, u, v, x] =
            ["y", "w", "u", "v", "x"].map(|n| g.add_task(Task::builder(n).wcet(Cycles(1))));
        g.add_edge(y, u, 1).unwrap();
        g.add_edge(w, v, 1).unwrap();
        g.add_edge(v, x, 1).unwrap();
        let base = Mapping::from_orders(&g, vec![vec![v, u], vec![x, y], vec![w]]).unwrap();
        let mut p = Problem::new(g.clone(), base, Platform::new(3, 3)).unwrap();
        let before = p.clone();
        // u and v share a rank, so core 0's new order stays rank-sorted,
        // yet u -> v closes u -> v -> x -> y -> u.
        let err = p
            .apply_move(Move {
                orders: vec![(CoreId(0), vec![u, v])],
                placement: None,
            })
            .unwrap_err();
        let cyclic = Mapping::from_orders(&g, vec![vec![u, v], vec![x, y], vec![w]]).unwrap();
        assert_eq!(Some(err), p.clone().remap(cyclic, PER_CORE).err());
        assert_eq!(p, before);
    }

    #[test]
    fn a_placement_move_rebanks_the_task_and_its_producers() {
        let g = two_task_graph();
        let m = Mapping::from_assignment(&g, &[0, 1]).unwrap();
        let mut p = Problem::new(g.clone(), m.clone(), Platform::new(2, 2)).unwrap();
        let before = p.clone();
        let homes = vec![BankId(0), BankId(0)];
        let revert = p
            .apply_move(Move {
                orders: Vec::new(),
                placement: Some(BankPlacement::Explicit(homes.clone())),
            })
            .unwrap();
        // b's home moved to bank 0, and its producer a writes there too.
        assert_eq!(p.demand(TaskId(0)).get(BankId(0)), 2);
        assert_eq!(p.demand(TaskId(1)).get(BankId(0)), 2);
        let mut fresh = before.clone();
        fresh.remap(m, BankPlacement::Explicit(homes)).unwrap();
        assert_eq!(p, fresh);
        p.revert(revert);
        assert_eq!(p, before);
    }
}
