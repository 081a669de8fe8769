//! Candidates: mutable points of the mapping design space.

use rand::rngs::StdRng;
use rand::RngExt;

use mia_model::{
    BankId, BankPlacement, BankPolicy, CoreId, Mapping, ModelError, Move, Problem, TaskGraph,
    TaskId, TaskTable,
};

/// A canonical 128-bit hash of a candidate's design, used as the
/// memo-cache key of [`Evaluator`](crate::Evaluator).
///
/// Two candidates hash equal **iff** they describe the same design: the
/// same per-core execution orders over the same number of cores (which
/// fully determine a [`Mapping`], and therefore the analysis outcome),
/// plus — since the joint-axis search — the same arbiter variant,
/// active-core budget and explicit bank placement.
/// The hash is two independent FNV-1a streams over the canonical
/// encoding `(core, order…, axes)`; at 128 bits an accidental collision
/// within a search budget of even billions of evaluations is beyond
/// reach. The derived `Ord` is arbitrary but stable — the deterministic
/// last-resort tie-break of [`crate::ParetoArchive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CandidateKey(u64, u64);

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
// A second, unrelated offset basis decorrelates the two streams.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// How many fresh draws a guided operator makes before giving up with
/// [`Undo::Noop`]. Small: a failed attempt already consumed entropy, so
/// long retry loops would skew the move-kind distribution budget.
const GUIDED_ATTEMPTS: usize = 4;

/// An index in `0..n`, biased toward the tail: the max of three uniform
/// draws (cubic CDF, expectation `3n/4`). The guided operators use it
/// to favour late temporal positions — the later the first changed
/// slot, the deeper a delta re-analysis can resume.
fn tail_biased(rng: &mut StdRng, n: usize) -> usize {
    let a = rng.random_range(0..n);
    let b = rng.random_range(0..n);
    let c = rng.random_range(0..n);
    a.max(b).max(c)
}

/// Precomputed dependency context for the guided move operators.
///
/// `ranks` is each task's longest-path layer (topological rank). Two
/// facts make it the feasibility oracle the operators need:
///
/// * **equal rank ⇒ independent** — a path strictly increases the rank,
///   so same-rank tasks can never depend on each other (in either
///   direction, through any number of hops);
/// * **rank-sorted orders ⇒ globally feasible** — if every core's
///   execution order is non-decreasing in rank, any cycle through
///   precedence + order edges would have to strictly increase the rank
///   somewhere and never decrease it, which is impossible. Moves that
///   preserve per-core rank-sortedness therefore cannot create a
///   cross-core ordering cycle, multi-hop or not.
///
/// Seeds whose orders are *not* rank-sorted (hand-written JSON
/// mappings) degrade gracefully: the windows become heuristic and the
/// acyclicity check of [`Problem::apply_move`] stays the authority.
#[derive(Debug, Clone)]
pub struct MoveGuide {
    /// Longest-path layer per task, indexed by task id.
    ranks: Vec<u32>,
    /// Task ids sorted by `(rank, id)`; the tail is the temporal tail.
    by_rank: Vec<TaskId>,
    /// `by_rank[class_start[r]..class_start[r + 1]]` is rank class `r`.
    class_start: Vec<usize>,
}

impl MoveGuide {
    /// Reads the ranks of `table` ([`TaskTable::rank`]) and sorts the
    /// tasks by them (O(tasks log tasks), once per chain).
    pub fn new(table: &TaskTable) -> Self {
        let n = table.len();
        let ranks: Vec<u32> = (0..n).map(|i| table.rank(TaskId::from_index(i))).collect();
        let mut by_rank: Vec<TaskId> = (0..n).map(TaskId::from_index).collect();
        by_rank.sort_by_key(|&t| (ranks[t.index()], t.index()));
        let max_rank = ranks.iter().copied().max().unwrap_or(0) as usize;
        let mut class_start = vec![0usize; max_rank + 2];
        for &r in &ranks {
            class_start[r as usize + 1] += 1;
        }
        for i in 1..class_start.len() {
            class_start[i] += class_start[i - 1];
        }
        MoveGuide {
            ranks,
            by_rank,
            class_start,
        }
    }

    /// The topological rank of `task`.
    pub fn rank(&self, task: TaskId) -> u32 {
        self.ranks[task.index()]
    }

    /// Every task sharing `task`'s rank (including `task` itself) —
    /// pairwise independent by construction.
    fn class_of(&self, task: TaskId) -> &[TaskId] {
        let r = self.rank(task) as usize;
        &self.by_rank[self.class_start[r]..self.class_start[r + 1]]
    }

    /// A tail-biased task draw: late ranks are favoured so the moves it
    /// feeds invalidate late schedule prefixes.
    fn draw_task(&self, rng: &mut StdRng) -> TaskId {
        self.by_rank[tail_biased(rng, self.by_rank.len())]
    }
}

#[inline]
fn fnv_step(h: u64, word: u64) -> u64 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// One point of the search space: a complete task-to-core assignment
/// plus the execution order of every core. Mutated in place by the move
/// operators; every move returns an [`Undo`] that reverts it exactly.
///
/// A candidate always keeps the "every task exactly once" invariant, so
/// [`Candidate::to_mapping`] never fails structurally; a move can still
/// produce an *infeasible* design (a cross-core ordering cycle), which
/// surfaces when the evaluator validates the remap and rejects the
/// candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Core index per task.
    assignment: Vec<u32>,
    /// Execution order per core; fixed length (the platform's cores).
    orders: Vec<Vec<TaskId>>,
    /// Arbiter variant index (joint-axis searches; 0 otherwise).
    arbiter: u32,
    /// Cores the search may place tasks on (`1..=cores()`); migrations
    /// only target cores below this budget. Scalar searches leave it at
    /// `cores()`, which makes the restriction vacuous.
    active_cores: u32,
    /// Explicit task→bank placement; `None` until the first bank move
    /// materialises it from the search space's policy.
    banks: Option<Vec<u32>>,
}

/// The joint-axis configuration of [`Candidate::propose_joint`]: which
/// extra design axes (beyond mapping and order) the move distribution
/// may touch, and their extents.
#[derive(Debug, Clone, Copy)]
pub struct JointAxes {
    /// Number of arbiter variants (>1 enables arbiter-switch moves).
    pub arbiters: u32,
    /// Platform bank count (>1 enables task-to-bank remap moves).
    pub banks: u32,
    /// The policy explicit bank placements start from when a bank move
    /// first materialises them.
    pub policy: BankPolicy,
    /// Enable active-core grow/shrink moves.
    pub resize_cores: bool,
    /// Enable task-to-bank remap moves.
    pub remap_banks: bool,
}

/// The exact inverse of one applied move (see [`Candidate::propose`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Undo {
    /// The proposal was degenerate (e.g. it drew the same task twice);
    /// nothing changed and there is nothing to revert.
    Noop,
    /// Revert a task migration.
    Migrate {
        /// The migrated task.
        task: TaskId,
        /// Core it came from.
        from: usize,
        /// Its position on `from` before the move.
        from_pos: usize,
        /// Core it went to.
        to: usize,
        /// Its position on `to` after the move.
        to_pos: usize,
    },
    /// Revert a cross-core pair swap.
    Swap {
        /// First swapped task (now at `pos_b` on `core_b`).
        a: TaskId,
        /// Second swapped task (now at `pos_a` on `core_a`).
        b: TaskId,
        /// Core `a` came from.
        core_a: usize,
        /// Position of `a` before the swap.
        pos_a: usize,
        /// Core `b` came from.
        core_b: usize,
        /// Position of `b` before the swap.
        pos_b: usize,
    },
    /// Revert an adjacent-pair reorder on one core.
    Reorder {
        /// The reordered core.
        core: usize,
        /// The left position of the swapped adjacent pair.
        pos: usize,
    },
    /// Revert an arbiter-variant switch (joint-axis searches).
    SwitchArbiter {
        /// Variant before the switch.
        from: u32,
    },
    /// Revert an active-core budget change (joint-axis searches).
    ResizeCores {
        /// Budget before the move.
        from: u32,
    },
    /// Revert a task-to-bank remap (joint-axis searches).
    RemapBank {
        /// The re-banked task.
        task: TaskId,
        /// Its bank before the move.
        from: u32,
        /// True when this move materialised the explicit bank vector
        /// from the policy default; the undo then restores `banks` to
        /// `None` so the round trip is exact (including [`PartialEq`]
        /// and the memo key).
        materialized: bool,
    },
}

impl Undo {
    /// A stable label for the move this undo reverts, used as the
    /// per-move-kind key in telemetry metric names.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Undo::Noop => "noop",
            Undo::Migrate { .. } => "migrate",
            Undo::Swap { .. } => "swap",
            Undo::Reorder { .. } => "reorder",
            Undo::SwitchArbiter { .. } => "switch_arbiter",
            Undo::ResizeCores { .. } => "resize_cores",
            Undo::RemapBank { .. } => "remap_bank",
        }
    }
}

impl Candidate {
    /// Builds the candidate describing `mapping`, padded with empty
    /// orders up to `cores` so migrations can colonise idle cores.
    pub fn from_mapping(mapping: &Mapping, cores: usize) -> Self {
        let assignment = (0..mapping.len())
            .map(|i| mapping.core_of(TaskId::from_index(i)).0)
            .collect();
        let mut orders: Vec<Vec<TaskId>> = (0..mapping.cores())
            .map(|c| mapping.order(mia_model::CoreId::from_index(c)).to_vec())
            .collect();
        orders.resize_with(cores.max(mapping.cores()), Vec::new);
        let active_cores = orders.len() as u32;
        Candidate {
            assignment,
            orders,
            arbiter: 0,
            active_cores,
            banks: None,
        }
    }

    /// The arbiter variant this design runs under (0 outside joint
    /// searches).
    pub fn arbiter(&self) -> u32 {
        self.arbiter
    }

    /// The active-core budget (equal to [`Candidate::cores`] outside
    /// joint searches).
    pub fn active_cores(&self) -> u32 {
        self.active_cores
    }

    /// The explicit task→bank placement, when a bank move materialised
    /// one (`None` means the search space's policy default applies).
    pub fn banks(&self) -> Option<&[u32]> {
        self.banks.as_deref()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when the candidate maps no tasks.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of cores (fixed for the whole search).
    pub fn cores(&self) -> usize {
        self.orders.len()
    }

    /// The core a task is currently assigned to.
    pub fn core_of(&self, task: TaskId) -> usize {
        self.assignment[task.index()] as usize
    }

    /// Where this design puts each task's memory: its explicit banks
    /// when a bank move materialised them, `policy` otherwise.
    pub fn placement(&self, policy: BankPolicy) -> BankPlacement {
        match &self.banks {
            Some(banks) => BankPlacement::Explicit(banks.iter().map(|&b| BankId(b)).collect()),
            None => BankPlacement::Policy(policy),
        }
    }

    /// The [`Move`] that takes `problem` to this design under `policy`
    /// (see [`Candidate::placement`]): the orders of the cores where the
    /// two differ — one or two cores after a move operator — and the
    /// placement when it differs. [`Problem::apply_move`] then patches
    /// only what the move changed. The comparison itself is a linear scan
    /// of the orders and banks, with no allocation beyond the move.
    pub fn move_from(&self, problem: &Problem, policy: BankPolicy) -> Move {
        let mapping = problem.mapping();
        let cores = self.cores().max(mapping.cores());
        let orders = (0..cores)
            .filter_map(|c| {
                let mine = self.orders.get(c).map_or(&[][..], Vec::as_slice);
                let core = CoreId::from_index(c);
                (mine != mapping.order(core)).then(|| (core, mine.to_vec()))
            })
            .collect();
        let unchanged = match (&self.banks, problem.placement()) {
            (None, Some(BankPlacement::Policy(p))) => *p == policy,
            (Some(mine), Some(BankPlacement::Explicit(theirs))) => {
                mine.len() == theirs.len() && mine.iter().zip(theirs).all(|(&a, b)| a == b.0)
            }
            _ => false,
        };
        Move {
            orders,
            placement: (!unchanged).then(|| self.placement(policy)),
        }
    }

    /// Materialises the candidate as a validated [`Mapping`].
    ///
    /// # Errors
    ///
    /// Structural [`ModelError`]s cannot occur for candidates produced by
    /// the move operators (tasks are conserved); the `Result` exists for
    /// hand-built candidates.
    pub fn to_mapping(&self, graph: &TaskGraph) -> Result<Mapping, ModelError> {
        Mapping::from_orders(graph, self.orders.clone())
    }

    /// The canonical memo-cache key of this design (see [`CandidateKey`]).
    pub fn key(&self) -> CandidateKey {
        let mut a = FNV_OFFSET_A;
        let mut b = FNV_OFFSET_B;
        for (core, order) in self.orders.iter().enumerate() {
            // The core boundary marker keeps [t0 | t1] distinct from
            // [t0, t1 | ] even when task ids coincide with core ids.
            let marker = u64::MAX ^ core as u64;
            a = fnv_step(a, marker);
            b = fnv_step(b, marker);
            for &t in order {
                a = fnv_step(a, u64::from(t.0));
                b = fnv_step(b, u64::from(t.0));
            }
        }
        // Joint design axes. Hashed unconditionally so the key of a
        // plain candidate stays a pure function of its design, never of
        // the search mode that produced it.
        a = fnv_step(a, u64::from(self.arbiter));
        b = fnv_step(b, u64::from(self.arbiter));
        a = fnv_step(a, u64::from(self.active_cores));
        b = fnv_step(b, u64::from(self.active_cores));
        match &self.banks {
            // Distinct sentinels keep `None` apart from any explicit
            // placement (bank ids are < u64::MAX - 1).
            None => {
                a = fnv_step(a, u64::MAX);
                b = fnv_step(b, u64::MAX);
            }
            Some(banks) => {
                a = fnv_step(a, u64::MAX - 1);
                b = fnv_step(b, u64::MAX - 1);
                for &bank in banks {
                    a = fnv_step(a, u64::from(bank));
                    b = fnv_step(b, u64::from(bank));
                }
            }
        }
        CandidateKey(a, b)
    }

    /// The `(core, order position)` pairs whose content the move behind
    /// `undo` changed, **as seen by the analysis** — the invalidation
    /// set that decides which recorded checkpoint a delta re-analysis
    /// may resume from ([`mia_core::Checkpoint::admits`]). Must be
    /// called on the *post-move* candidate.
    ///
    /// Two kinds of entries:
    ///
    /// * the touched order slots themselves (removals and insertions
    ///   shift every later slot on that core, but the earliest touched
    ///   position per core already covers the shifted tail for the
    ///   strictly-beyond admission rule);
    /// * for every task whose **core** changed (migrates and swaps, not
    ///   reorders): the current slot of each of its direct
    ///   predecessors. A producer's write lands in its consumer's bank
    ///   (`derive_demands` sends both endpoints of an edge to the bank
    ///   owned by the consumer's core), so re-coring the consumer
    ///   silently re-banks the producer's demand vector — a prefix that
    ///   opened the producer observed stale demands and must not be
    ///   reused.
    pub fn changed_positions(&self, graph: &TaskGraph, undo: Undo) -> Vec<(usize, usize)> {
        let mut changed = match undo {
            Undo::Noop => Vec::new(),
            Undo::Reorder { core, pos } => vec![(core, pos)],
            Undo::Migrate {
                task,
                from,
                from_pos,
                to,
                to_pos,
            } => {
                let mut v = vec![(from, from_pos), (to, to_pos)];
                self.push_rebanked_producers(graph, task, &mut v);
                v
            }
            Undo::Swap {
                a,
                b,
                core_a,
                pos_a,
                core_b,
                pos_b,
            } => {
                let mut v = vec![(core_a, pos_a), (core_b, pos_b)];
                self.push_rebanked_producers(graph, a, &mut v);
                self.push_rebanked_producers(graph, b, &mut v);
                v
            }
            // An arbiter switch re-prices every access: invalidate the
            // whole schedule (the earliest slot of every core). The
            // delta objective additionally refuses cross-variant
            // resumption on its own, so this is belt and braces for
            // objectives without variant awareness.
            Undo::SwitchArbiter { .. } => (0..self.cores()).map(|c| (c, 0)).collect(),
            // The budget shapes future proposals only; the schedule of
            // the current design is untouched.
            Undo::ResizeCores { .. } => Vec::new(),
            // Re-banking a task moves its own accesses and those of its
            // producers (both endpoints of an edge charge the
            // consumer's bank).
            Undo::RemapBank { task, .. } => {
                let core = self.core_of(task);
                let mut v = vec![(core, self.position(task, core))];
                self.push_rebanked_producers(graph, task, &mut v);
                v
            }
        };
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Appends the current slots of `task`'s direct predecessors — the
    /// tasks whose demand vectors change when `task` changes core.
    fn push_rebanked_producers(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        out: &mut Vec<(usize, usize)>,
    ) {
        for e in graph.predecessors(task) {
            let core = self.core_of(e.src);
            out.push((core, self.position(e.src, core)));
        }
    }

    /// Proposes one random move, mutating the candidate in place, and
    /// returns its inverse. The move kind is drawn uniformly from
    /// {migrate, swap, reorder} when the platform has at least two
    /// cores, otherwise only reorders are possible. Degenerate draws
    /// (same task twice, a reorder on a core with fewer than two tasks)
    /// return [`Undo::Noop`] without touching the candidate — the caller
    /// counts them as rejected proposals, keeping the PRNG stream (and
    /// thus the whole search) deterministic.
    pub fn propose(&mut self, rng: &mut StdRng) -> Undo {
        let n = self.len();
        let cores = self.cores();
        if n == 0 {
            return Undo::Noop;
        }
        let kind = if cores >= 2 {
            rng.random_range(0..3u32)
        } else {
            2
        };
        match kind {
            0 => self.propose_migrate(rng),
            1 => self.propose_swap(rng),
            _ => self.propose_reorder(rng),
        }
    }

    /// Migrate one task to a random position on a different core.
    fn propose_migrate(&mut self, rng: &mut StdRng) -> Undo {
        let task = TaskId::from_index(rng.random_range(0..self.len()));
        let from = self.core_of(task);
        let mut to = rng.random_range(0..self.cores() - 1);
        if to >= from {
            to += 1;
        }
        // Vacuous outside joint searches (the budget is all cores), so
        // the scalar PRNG stream is untouched.
        if to >= self.active_cores as usize {
            return Undo::Noop;
        }
        let from_pos = self.position(task, from);
        let to_pos = rng.random_range(0..=self.orders[to].len());
        self.orders[from].remove(from_pos);
        self.orders[to].insert(to_pos, task);
        self.assignment[task.index()] = to as u32;
        Undo::Migrate {
            task,
            from,
            from_pos,
            to,
            to_pos,
        }
    }

    /// Swap the placements of two tasks on different cores.
    fn propose_swap(&mut self, rng: &mut StdRng) -> Undo {
        let a = TaskId::from_index(rng.random_range(0..self.len()));
        let b = TaskId::from_index(rng.random_range(0..self.len()));
        let (core_a, core_b) = (self.core_of(a), self.core_of(b));
        if a == b || core_a == core_b {
            return Undo::Noop;
        }
        let pos_a = self.position(a, core_a);
        let pos_b = self.position(b, core_b);
        self.orders[core_a][pos_a] = b;
        self.orders[core_b][pos_b] = a;
        self.assignment[a.index()] = core_b as u32;
        self.assignment[b.index()] = core_a as u32;
        Undo::Swap {
            a,
            b,
            core_a,
            pos_a,
            core_b,
            pos_b,
        }
    }

    /// Swap an adjacent pair within one core's execution order.
    fn propose_reorder(&mut self, rng: &mut StdRng) -> Undo {
        let start = rng.random_range(0..self.cores());
        // Probe for a core with at least two tasks, wrapping once.
        let Some(core) = (0..self.cores())
            .map(|k| (start + k) % self.cores())
            .find(|&c| self.orders[c].len() >= 2)
        else {
            return Undo::Noop;
        };
        let pos = rng.random_range(0..self.orders[core].len() - 1);
        self.orders[core].swap(pos, pos + 1);
        Undo::Reorder { core, pos }
    }

    /// Dependency-aware [`Candidate::propose`]: same move kinds and
    /// kind distribution, but the operators consult `guide`'s
    /// topological ranks so proposals preserve per-core
    /// rank-sortedness — which makes them feasible **by construction**,
    /// multi-hop cycles included (see [`MoveGuide`]) — and draw tasks
    /// tail-biased so the delta re-analysis behind each evaluation can
    /// resume from a late checkpoint. Exhausted attempts (and seeds
    /// whose orders defeat the rank heuristic) return [`Undo::Noop`],
    /// keeping the PRNG stream deterministic; the evaluator's remap
    /// validation remains the authority on feasibility.
    pub fn propose_guided(
        &mut self,
        graph: &TaskGraph,
        guide: &MoveGuide,
        rng: &mut StdRng,
    ) -> Undo {
        let n = self.len();
        let cores = self.cores();
        if n == 0 {
            return Undo::Noop;
        }
        let kind = if cores >= 2 {
            rng.random_range(0..3u32)
        } else {
            2
        };
        match kind {
            0 => self.guided_migrate(graph, guide, rng),
            1 => self.guided_swap(graph, guide, rng),
            _ => self.guided_reorder(graph, guide, rng),
        }
    }

    /// Migrate one (tail-biased) task into the window of its target
    /// core that keeps the order rank-sorted, intersected with the
    /// window its direct predecessors/successors there allow.
    fn guided_migrate(&mut self, graph: &TaskGraph, guide: &MoveGuide, rng: &mut StdRng) -> Undo {
        for _ in 0..GUIDED_ATTEMPTS {
            let task = guide.draw_task(rng);
            let from = self.core_of(task);
            let mut to = rng.random_range(0..self.cores() - 1);
            if to >= from {
                to += 1;
            }
            // Vacuous outside joint searches: the budget is all cores.
            if to >= self.active_cores as usize {
                continue;
            }
            let r = guide.rank(task);
            // The rank-sorted insertion window: after every lower rank,
            // before every higher rank. On a rank-sorted order these are
            // the partition points and the window is never empty.
            let mut lo = self.orders[to]
                .iter()
                .filter(|&&t| guide.rank(t) < r)
                .count();
            let mut hi = self.orders[to]
                .iter()
                .filter(|&&t| guide.rank(t) <= r)
                .count();
            // Intersect with the direct-dependency window — the
            // authority when the order is not rank-sorted.
            for e in graph.predecessors(task) {
                if self.core_of(e.src) == to {
                    lo = lo.max(self.position(e.src, to) + 1);
                }
            }
            for e in graph.successors(task) {
                if self.core_of(e.dst) == to {
                    hi = hi.min(self.position(e.dst, to));
                }
            }
            if lo > hi {
                continue;
            }
            let to_pos = rng.random_range(lo..=hi);
            let from_pos = self.position(task, from);
            self.orders[from].remove(from_pos);
            self.orders[to].insert(to_pos, task);
            self.assignment[task.index()] = to as u32;
            return Undo::Migrate {
                task,
                from,
                from_pos,
                to,
                to_pos,
            };
        }
        Undo::Noop
    }

    /// Swap a (tail-biased) task with a **same-rank** partner on
    /// another core. Equal rank means provably independent — no path in
    /// either direction — and slotting a task between neighbours that
    /// accepted the same rank keeps both orders rank-sorted, so the
    /// swap cannot create a cycle.
    fn guided_swap(&mut self, graph: &TaskGraph, guide: &MoveGuide, rng: &mut StdRng) -> Undo {
        for _ in 0..GUIDED_ATTEMPTS {
            let a = guide.draw_task(rng);
            let class = guide.class_of(a);
            let b = class[rng.random_range(0..class.len())];
            let (core_a, core_b) = (self.core_of(a), self.core_of(b));
            if a == b || core_a == core_b {
                continue;
            }
            let pos_a = self.position(a, core_a);
            let pos_b = self.position(b, core_b);
            // The direct-dependency check still guards non-rank-sorted
            // orders (equal-rank tasks never carry a direct edge).
            if !self.fits(graph, b, core_a, pos_a) || !self.fits(graph, a, core_b, pos_b) {
                continue;
            }
            self.orders[core_a][pos_a] = b;
            self.orders[core_b][pos_b] = a;
            self.assignment[a.index()] = core_b as u32;
            self.assignment[b.index()] = core_a as u32;
            return Undo::Swap {
                a,
                b,
                core_a,
                pos_a,
                core_b,
                pos_b,
            };
        }
        Undo::Noop
    }

    /// Swap a (tail-biased) adjacent pair within one core, skipping
    /// producer/consumer pairs (the current order is feasible, so only
    /// the left-to-right edge can exist; swapping it would deadlock the
    /// core). Cross-rank reorders can still be multi-hop infeasible;
    /// the acyclicity check of [`Problem::apply_move`] catches those.
    fn guided_reorder(&mut self, graph: &TaskGraph, _guide: &MoveGuide, rng: &mut StdRng) -> Undo {
        for _ in 0..GUIDED_ATTEMPTS {
            let start = rng.random_range(0..self.cores());
            let Some(core) = (0..self.cores())
                .map(|k| (start + k) % self.cores())
                .find(|&c| self.orders[c].len() >= 2)
            else {
                return Undo::Noop;
            };
            let pos = tail_biased(rng, self.orders[core].len() - 1);
            let (first, second) = (self.orders[core][pos], self.orders[core][pos + 1]);
            if graph.successors(first).any(|e| e.dst == second) {
                continue;
            }
            self.orders[core].swap(pos, pos + 1);
            return Undo::Reorder { core, pos };
        }
        Undo::Noop
    }

    /// Joint-axis [`Candidate::propose_guided`]: the same three guided
    /// mapping moves plus — where `axes` enables them — an
    /// arbiter-variant switch, an active-core budget grow/shrink and a
    /// task-to-bank remap, all first-class moves with exact undos. The
    /// kind is one uniform draw over the *available* kinds, so axes a
    /// platform cannot express (one arbiter, one bank) cost no entropy.
    ///
    /// Like every proposal operator this never panics on degenerate
    /// seeds (including orders that are not rank-sorted): a draw that
    /// cannot be applied returns [`Undo::Noop`] and the acyclicity
    /// check of [`Problem::apply_move`] stays the authority on
    /// feasibility.
    pub fn propose_joint(
        &mut self,
        graph: &TaskGraph,
        guide: &MoveGuide,
        axes: &JointAxes,
        rng: &mut StdRng,
    ) -> Undo {
        if self.is_empty() {
            return Undo::Noop;
        }
        // Mapping moves are the workhorses (weight 2 each); axis moves
        // are occasional jumps to another region of the design space
        // (weight 1 each) — a joint chain must not spend half its
        // budget on moves that rarely pay per proposal.
        let mut kinds = [0u8; 9];
        let mut count = 0usize;
        if self.cores() >= 2 {
            kinds[count..count + 4].copy_from_slice(&[0, 0, 1, 1]); // guided migrate + swap
            count += 4;
        }
        kinds[count] = 2; // guided reorder
        kinds[count + 1] = 2;
        count += 2;
        if axes.arbiters > 1 {
            kinds[count] = 3;
            count += 1;
        }
        if axes.resize_cores && self.cores() >= 2 {
            kinds[count] = 4;
            count += 1;
        }
        if axes.remap_banks && axes.banks > 1 {
            kinds[count] = 5;
            count += 1;
        }
        match kinds[rng.random_range(0..count)] {
            0 => self.guided_migrate(graph, guide, rng),
            1 => self.guided_swap(graph, guide, rng),
            2 => self.guided_reorder(graph, guide, rng),
            3 => self.switch_arbiter(axes.arbiters, rng),
            4 => self.resize_cores(rng),
            _ => self.remap_bank(axes, rng),
        }
    }

    /// Jump straight to `variant` with an exact undo — the staggered
    /// chain start of the joint-axis portfolio (chain *i* opens on
    /// variant *i* mod *n*, so every arbiter is explored from proposal
    /// zero instead of waiting on a lucky switch draw). Already there
    /// is a [`Undo::Noop`].
    pub fn jump_to_variant(&mut self, variant: u32) -> Undo {
        if variant == self.arbiter {
            return Undo::Noop;
        }
        let from = self.arbiter;
        self.arbiter = variant;
        Undo::SwitchArbiter { from }
    }

    /// Switch to a uniformly drawn *different* arbiter variant.
    fn switch_arbiter(&mut self, variants: u32, rng: &mut StdRng) -> Undo {
        let from = self.arbiter;
        let mut next = rng.random_range(0..variants - 1);
        if next >= from {
            next += 1;
        }
        self.arbiter = next;
        Undo::SwitchArbiter { from }
    }

    /// Grow or shrink the active-core budget by one. Growing requires
    /// head-room; shrinking requires the retired core to be empty (a
    /// migrate move has to drain it first), so the budget invariant —
    /// no task on a core at or beyond the budget — is preserved.
    fn resize_cores(&mut self, rng: &mut StdRng) -> Undo {
        let from = self.active_cores;
        if rng.random_bool(0.5) {
            if (self.active_cores as usize) < self.cores() {
                self.active_cores += 1;
                return Undo::ResizeCores { from };
            }
        } else if self.active_cores > 1 && self.orders[self.active_cores as usize - 1].is_empty() {
            self.active_cores -= 1;
            return Undo::ResizeCores { from };
        }
        Undo::Noop
    }

    /// Move one uniformly drawn task to a uniformly drawn *different*
    /// bank, materialising the explicit bank vector from the policy on
    /// first use (SINTEO's per-task bank variables).
    fn remap_bank(&mut self, axes: &JointAxes, rng: &mut StdRng) -> Undo {
        if axes.banks < 2 {
            return Undo::Noop;
        }
        let task = TaskId::from_index(rng.random_range(0..self.len()));
        let materialized = self.banks.is_none();
        if materialized {
            let single = matches!(axes.policy, BankPolicy::SingleBank);
            let derived = self
                .assignment
                .iter()
                .map(|&core| if single { 0 } else { core % axes.banks })
                .collect();
            self.banks = Some(derived);
        }
        let banks = self.banks.as_mut().expect("materialised above");
        let from = banks[task.index()];
        let mut to = rng.random_range(0..axes.banks - 1);
        if to >= from {
            to += 1;
        }
        banks[task.index()] = to;
        Undo::RemapBank {
            task,
            from,
            materialized,
        }
    }

    /// True when `task` placed at `pos` on `core` respects its direct
    /// dependencies against the tasks currently ordered there.
    fn fits(&self, graph: &TaskGraph, task: TaskId, core: usize, pos: usize) -> bool {
        for e in graph.predecessors(task) {
            if self.core_of(e.src) == core && self.position(e.src, core) > pos {
                return false;
            }
        }
        for e in graph.successors(task) {
            if self.core_of(e.dst) == core && self.position(e.dst, core) < pos {
                return false;
            }
        }
        true
    }

    /// Reverts a move returned by [`Candidate::propose`].
    pub fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::Noop => {}
            Undo::Migrate {
                task,
                from,
                from_pos,
                to,
                to_pos,
            } => {
                self.orders[to].remove(to_pos);
                self.orders[from].insert(from_pos, task);
                self.assignment[task.index()] = from as u32;
            }
            Undo::Swap {
                a,
                b,
                core_a,
                pos_a,
                core_b,
                pos_b,
            } => {
                self.orders[core_a][pos_a] = a;
                self.orders[core_b][pos_b] = b;
                self.assignment[a.index()] = core_a as u32;
                self.assignment[b.index()] = core_b as u32;
            }
            Undo::Reorder { core, pos } => self.orders[core].swap(pos, pos + 1),
            Undo::SwitchArbiter { from } => self.arbiter = from,
            Undo::ResizeCores { from } => self.active_cores = from,
            Undo::RemapBank {
                task,
                from,
                materialized,
            } => {
                if materialized {
                    self.banks = None;
                } else if let Some(banks) = self.banks.as_mut() {
                    banks[task.index()] = from;
                }
            }
        }
    }

    /// The per-task core assignment, indexed by task id.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    fn position(&self, task: TaskId, core: usize) -> usize {
        self.orders[core]
            .iter()
            .position(|&t| t == task)
            .expect("assignment and orders stay consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mia_model::{Cycles, Task};
    use rand::SeedableRng;

    fn graph(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add_task(Task::builder(format!("t{i}")).wcet(Cycles(10)));
        }
        g
    }

    #[test]
    fn equivalent_mappings_hash_equal() {
        let g = graph(4);
        // Built through different constructors, same per-core orders.
        let a = Mapping::from_assignment(&g, &[0, 1, 0, 1]).unwrap();
        let b = Mapping::from_orders(
            &g,
            vec![vec![TaskId(0), TaskId(2)], vec![TaskId(1), TaskId(3)]],
        )
        .unwrap();
        assert_eq!(
            Candidate::from_mapping(&a, 2).key(),
            Candidate::from_mapping(&b, 2).key()
        );
        // The key sees the whole space, so a different padded core count
        // is a different design.
        assert_ne!(
            Candidate::from_mapping(&a, 2).key(),
            Candidate::from_mapping(&a, 3).key()
        );
    }

    #[test]
    fn migrating_a_task_changes_the_key() {
        let g = graph(4);
        let m = Mapping::from_assignment(&g, &[0, 1, 0, 1]).unwrap();
        let mut c = Candidate::from_mapping(&m, 2);
        let before = c.key();
        let mut rng = StdRng::seed_from_u64(1);
        // Find an actual migration among proposals.
        loop {
            let undo = c.propose(&mut rng);
            if let Undo::Migrate { .. } = undo {
                assert_ne!(c.key(), before, "migration must change the key");
                c.undo(undo);
                break;
            }
            c.undo(undo);
        }
        assert_eq!(c.key(), before);
    }

    #[test]
    fn reordering_within_a_core_changes_the_key() {
        let g = graph(4);
        let m = Mapping::from_assignment(&g, &[0, 0, 0, 0]).unwrap();
        let mut c = Candidate::from_mapping(&m, 1);
        let before = c.key();
        let mut rng = StdRng::seed_from_u64(0);
        let undo = c.propose(&mut rng); // single core: always a reorder
        assert!(matches!(undo, Undo::Reorder { .. }));
        assert_ne!(c.key(), before);
        c.undo(undo);
        assert_eq!(c.key(), before);
    }

    #[test]
    fn every_move_round_trips_through_its_undo() {
        let g = graph(9);
        let m = Mapping::from_assignment(&g, &[0, 1, 2, 0, 1, 2, 0, 1, 2]).unwrap();
        let mut c = Candidate::from_mapping(&m, 4);
        let pristine = c.clone();
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 3];
        for _ in 0..500 {
            let undo = c.propose(&mut rng);
            match undo {
                Undo::Migrate { .. } => seen[0] = true,
                Undo::Swap { .. } => seen[1] = true,
                Undo::Reorder { .. } => seen[2] = true,
                Undo::Noop => {}
                // propose() never emits the joint-axis moves.
                other => panic!("unexpected joint move {other:?}"),
            }
            // The mutated candidate still maps every task exactly once.
            c.to_mapping(&g).unwrap();
            c.undo(undo);
            assert_eq!(c, pristine);
        }
        assert_eq!(seen, [true; 3], "all three operators must fire");
    }

    #[test]
    fn moves_never_lose_tasks() {
        let g = graph(6);
        let m = Mapping::from_assignment(&g, &[0, 0, 1, 1, 2, 2]).unwrap();
        let mut c = Candidate::from_mapping(&m, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let _ = c.propose(&mut rng); // accept everything
            let mapping = c.to_mapping(&g).unwrap();
            assert_eq!(mapping.len(), 6);
        }
    }

    /// A two-chain graph: 0 -> 1 -> 2 and 3 -> 4 -> 5.
    fn chained_graph() -> TaskGraph {
        let mut g = graph(6);
        g.add_edge(TaskId(0), TaskId(1), 4).unwrap();
        g.add_edge(TaskId(1), TaskId(2), 4).unwrap();
        g.add_edge(TaskId(3), TaskId(4), 4).unwrap();
        g.add_edge(TaskId(4), TaskId(5), 4).unwrap();
        g
    }

    #[test]
    fn changed_positions_cover_the_touched_slots_and_rebanked_producers() {
        let g = chained_graph();
        let m = Mapping::from_assignment(&g, &[0, 0, 0, 1, 1, 1]).unwrap();
        let mut c = Candidate::from_mapping(&m, 2);

        // A reorder reassigns no cores: only the touched slot.
        let undo = Undo::Reorder { core: 0, pos: 1 };
        c.orders[0].swap(1, 2);
        assert_eq!(c.changed_positions(&g, undo), vec![(0, 1)]);
        c.undo(undo);

        // Migrating task 4 re-banks the demand of its producer, task 3:
        // the changed set must include 3's slot (core 1, position 0).
        c.orders[1].remove(1);
        c.orders[0].push(TaskId(4));
        c.assignment[4] = 0;
        let undo = Undo::Migrate {
            task: TaskId(4),
            from: 1,
            from_pos: 1,
            to: 0,
            to_pos: 3,
        };
        assert_eq!(c.changed_positions(&g, undo), vec![(0, 3), (1, 0), (1, 1)]);
        c.undo(undo);

        // A no-op changes nothing.
        assert!(c.changed_positions(&g, Undo::Noop).is_empty());
    }

    #[test]
    fn move_guide_ranks_are_longest_path_layers() {
        let g = chained_graph();
        let guide = MoveGuide::new(&TaskTable::new(&g));
        for (task, rank) in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)] {
            assert_eq!(guide.rank(TaskId(task)), rank, "task {task}");
        }
        // Same-rank classes pair the independent chain counterparts.
        assert_eq!(guide.class_of(TaskId(1)), &[TaskId(1), TaskId(4)]);
    }

    #[test]
    fn guided_moves_round_trip_and_respect_direct_dependencies() {
        let g = chained_graph();
        let m = Mapping::from_assignment(&g, &[0, 0, 0, 1, 1, 1]).unwrap();
        let guide = MoveGuide::new(&TaskTable::new(&g));
        let mut c = Candidate::from_mapping(&m, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 3];
        for _ in 0..600 {
            let pristine = c.clone();
            let undo = c.propose_guided(&g, &guide, &mut rng);
            match undo {
                Undo::Migrate { .. } => seen[0] = true,
                Undo::Swap { .. } => seen[1] = true,
                Undo::Reorder { .. } => seen[2] = true,
                Undo::Noop => {}
                // propose_guided() never emits the joint-axis moves.
                other => panic!("unexpected joint move {other:?}"),
            }
            // No guided move inverts a direct dependency on any core.
            for order in &c.orders {
                for (i, &t) in order.iter().enumerate() {
                    for e in g.successors(t) {
                        if c.core_of(e.dst) == c.core_of(t) {
                            let j = order.iter().position(|&x| x == e.dst).unwrap();
                            assert!(j > i, "direct dependency inverted by {undo:?}");
                        }
                    }
                }
            }
            c.undo(undo);
            assert_eq!(c, pristine);
            // Keep exploring from accepted states too.
            let undo = c.propose_guided(&g, &guide, &mut rng);
            if c.to_mapping(&g).is_err() {
                c.undo(undo);
            }
        }
        assert_eq!(seen, [true; 3], "all three guided operators must fire");
    }

    fn joint_axes() -> JointAxes {
        JointAxes {
            arbiters: 3,
            banks: 4,
            policy: BankPolicy::PerCoreBank,
            resize_cores: true,
            remap_banks: true,
        }
    }

    #[test]
    fn axis_changes_are_part_of_the_key() {
        let g = graph(4);
        let m = Mapping::from_assignment(&g, &[0, 1, 0, 1]).unwrap();
        let base = Candidate::from_mapping(&m, 2);
        let mut c = base.clone();
        c.arbiter = 1;
        assert_ne!(c.key(), base.key(), "arbiter variant");
        let mut c = base.clone();
        c.active_cores = 1;
        assert_ne!(c.key(), base.key(), "core budget");
        let mut c = base.clone();
        c.banks = Some(vec![0, 1, 0, 1]);
        assert_ne!(c.key(), base.key(), "explicit banks differ from None");
    }

    #[test]
    fn every_joint_move_round_trips_through_its_undo() {
        let g = chained_graph();
        let m = Mapping::from_assignment(&g, &[0, 0, 0, 1, 1, 1]).unwrap();
        let guide = MoveGuide::new(&TaskTable::new(&g));
        let axes = joint_axes();
        let mut c = Candidate::from_mapping(&m, 4);
        let mut rng = StdRng::seed_from_u64(13);
        let mut seen = [false; 6];
        for _ in 0..1500 {
            let pristine = c.clone();
            let undo = c.propose_joint(&g, &guide, &axes, &mut rng);
            match undo {
                Undo::Migrate { .. } => seen[0] = true,
                Undo::Swap { .. } => seen[1] = true,
                Undo::Reorder { .. } => seen[2] = true,
                Undo::SwitchArbiter { .. } => seen[3] = true,
                Undo::ResizeCores { .. } => seen[4] = true,
                Undo::RemapBank { .. } => seen[5] = true,
                Undo::Noop => {}
            }
            // Structural invariants hold mid-move…
            c.to_mapping(&g).unwrap();
            assert!(c.arbiter < axes.arbiters);
            assert!(c.active_cores >= 1 && c.active_cores as usize <= c.cores());
            if let Some(banks) = c.banks() {
                assert!(banks.iter().all(|&b| b < axes.banks));
            }
            // …and the undo is exact, axes included (PartialEq covers
            // arbiter, active_cores and banks).
            c.undo(undo);
            assert_eq!(c, pristine);
            // Walk the space too, so later moves start from varied
            // states (keep only states that stay feasible).
            let undo = c.propose_joint(&g, &guide, &axes, &mut rng);
            if c.to_mapping(&g).is_err() {
                c.undo(undo);
            }
        }
        assert_eq!(seen, [true; 6], "all six joint operators must fire");
    }

    #[test]
    fn bank_moves_materialise_and_dematerialise_exactly() {
        let g = graph(4);
        let m = Mapping::from_assignment(&g, &[0, 1, 0, 1]).unwrap();
        let axes = joint_axes();
        let mut c = Candidate::from_mapping(&m, 2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(c.banks().is_none());
        let undo = c.remap_bank(&axes, &mut rng);
        let Undo::RemapBank {
            task,
            from,
            materialized,
        } = undo
        else {
            panic!("expected a bank move, got {undo:?}");
        };
        assert!(materialized, "first bank move materialises the vector");
        // PerCoreBank default: bank = core % banks; the moved task left
        // its derived bank.
        let banks = c.banks().unwrap();
        assert_eq!(from, c.core_of(task) as u32 % axes.banks);
        assert_ne!(banks[task.index()], from);
        for (i, &b) in banks.iter().enumerate() {
            if i != task.index() {
                assert_eq!(b, c.core_of(TaskId::from_index(i)) as u32 % axes.banks);
            }
        }
        c.undo(undo);
        assert!(
            c.banks().is_none(),
            "undoing the materialising move restores None"
        );
    }

    #[test]
    fn shrink_requires_an_empty_core_and_migrations_respect_the_budget() {
        let g = graph(4);
        let m = Mapping::from_assignment(&g, &[0, 1, 2, 3]).unwrap();
        let mut c = Candidate::from_mapping(&m, 4);
        let mut rng = StdRng::seed_from_u64(1);
        // Every core is occupied: no shrink can fire.
        for _ in 0..50 {
            let undo = c.resize_cores(&mut rng);
            match undo {
                Undo::Noop => {}
                Undo::ResizeCores { .. } => {
                    panic!("grew past the platform or shrank an occupied core")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Drain core 3, then shrink; migrations must then avoid core 3.
        let drained = TaskId(3);
        c.orders[3].clear();
        c.orders[0].push(drained);
        c.assignment[3] = 0;
        loop {
            if let Undo::ResizeCores { from } = c.resize_cores(&mut rng) {
                assert_eq!(from, 4);
                break;
            }
        }
        assert_eq!(c.active_cores(), 3);
        let guide = MoveGuide::new(&TaskTable::new(&g));
        for _ in 0..400 {
            let undo = c.guided_migrate(&g, &guide, &mut rng);
            assert!(
                c.orders[3].is_empty(),
                "migration targeted a retired core ({undo:?})"
            );
            c.undo(undo);
        }
    }

    #[test]
    fn joint_proposals_reject_gracefully_on_non_rank_sorted_seeds() {
        // A feasible order that is NOT rank-sorted: task 3 (rank 0)
        // runs after task 1 (rank 1) on core 0. The guide's windows are
        // then heuristic; proposals must degrade to Noop or feasible
        // moves, never panic.
        let g = chained_graph();
        let m = Mapping::from_orders(
            &g,
            vec![
                vec![TaskId(0), TaskId(1), TaskId(3), TaskId(2)],
                vec![TaskId(4), TaskId(5)],
            ],
        )
        .unwrap();
        let guide = MoveGuide::new(&TaskTable::new(&g));
        let axes = joint_axes();
        let mut c = Candidate::from_mapping(&m, 2);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            let pristine = c.clone();
            let undo = c.propose_joint(&g, &guide, &axes, &mut rng);
            c.undo(undo);
            assert_eq!(c, pristine);
        }
    }

    #[test]
    fn empty_candidate_is_inert() {
        let g = graph(0);
        let m = Mapping::from_orders(&g, vec![Vec::new(), Vec::new()]).unwrap();
        let mut c = Candidate::from_mapping(&m, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(c.propose(&mut rng), Undo::Noop);
        assert!(c.is_empty());
    }
}
