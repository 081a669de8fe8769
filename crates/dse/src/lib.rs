//! Design-space exploration with the interference analysis in the loop.
//!
//! The point of scaling the memory interference analysis to sub-second
//! runs on many-thousand-task DAGs (the paper's §V contribution, crate
//! `mia-core`) is to make it cheap enough to sit **inside** an
//! optimization loop. This crate closes that loop: it searches over
//! task-to-core mappings using the *analyzed* makespan — WCETs **plus**
//! memory interference under a real arbiter — as the fitness function,
//! instead of the interference-free proxy
//! [`mia_mapping::assignment_makespan`].
//!
//! # The model
//!
//! * [`SearchSpace`] — the fixed part of the design: a validated seed
//!   [`Problem`](mia_model::Problem) (graph + platform + the seed
//!   mapping the search must never lose to), the
//!   [`BankPolicy`](mia_model::BankPolicy) used to re-derive demands
//!   when a candidate moves tasks across banks, and the
//!   [`AnalysisOptions`](mia_core::AnalysisOptions) every evaluation
//!   runs under.
//! * [`Candidate`] — one point of the space: a complete task-to-core
//!   assignment plus per-core execution orders, mutated **in place** by
//!   three move operators (migrate-task, swap-pair, reorder-within-core)
//!   with O(core-length) undo — no allocation per proposed move.
//! * [`Objective`] — what "better" means. [`AnalyzedMakespan`] runs the
//!   incremental analysis; [`ProxyMakespan`] is the interference-free
//!   proxy (kept for A/B comparisons and tests). Infeasible candidates
//!   (cross-core ordering cycles, missed deadlines) are rejected, not
//!   fatal.
//! * [`Evaluator`] — the hot loop. It owns **one** working
//!   [`Problem`](mia_model::Problem) and swaps candidate mappings into
//!   it with [`Problem::remap`](mia_model::Problem::remap) (no graph
//!   clone per evaluation), and it memoises outcomes in a cache
//!   keyed by a canonical mapping hash ([`CandidateKey`]) so a repeated
//!   neighbour is never re-analyzed. [`EvalStats`] reports the hit rate.
//! * [`optimize`] — the driver: seeded, deterministic simulated
//!   annealing ([`Strategy::Anneal`]) or a parallel multi-start
//!   portfolio ([`Strategy::Portfolio`]) whose chains run under
//!   `std::thread::scope` and publish improvements to a best-so-far
//!   shared under a mutex. Results are **bit-identical across thread
//!   counts**: chains are independent (they publish to the shared
//!   incumbent but never steer by it) and the final winner is the
//!   minimum over `(cost, chain index)` — an order-free reduction.
//!
//! The returned mapping is never worse than the seed: every chain's best
//! starts at the seed mapping and is only replaced on strict
//! improvement.
//!
//! # Multi-objective, joint-axis search
//!
//! Every evaluation actually prices a small fixed vector ([`ObjVec`]:
//! makespan, negated min-slack, peak bank load); the scalar search is
//! the 1-component special case and its arithmetic, counters and PRNG
//! streams are pinned byte-for-byte. Enabling [`DseConfig::pareto`]
//! switches the chains to [`Candidate::propose_joint`] — the mapping
//! moves plus arbiter-switch, active-core resize and task-to-bank remap
//! as first-class moves with exact undos — steered by per-chain
//! scalarisation profiles, and every exactly-priced design lands in a
//! deterministic [`ParetoArchive`]. [`optimize_joint`] runs the whole
//! arbiter list as one joint search and reports the merged front
//! ([`DseResult::front`]), bit-identical across thread counts like the
//! scalar result.
//!
//! # Example
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_dse::{optimize, DseConfig, SearchSpace, Strategy};
//! use mia_model::BankPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An unbalanced seed: everything the generator put on 16 cores,
//! // re-packed by the paper's layered-cyclic discipline.
//! let workload = mia_dag_gen::LayeredDag::new(
//!     mia_dag_gen::Family::FixedLayers(4).config(48, 7),
//! )
//! .generate();
//! let problem = workload.into_problem(&mia_model::Platform::mppa256_cluster())?;
//!
//! let space = SearchSpace::new(problem, BankPolicy::PerCoreBank);
//! let config = DseConfig {
//!     strategy: Strategy::Anneal,
//!     seed: 7,
//!     budget_evals: 60,
//!     ..DseConfig::default()
//! };
//! let result = optimize(&space, &RoundRobin::new(), &config)?;
//! assert!(result.best_makespan <= result.seed_makespan);
//! assert_eq!(result.stats.evaluations, 1 + 60); // the seed + the budget
//! # Ok(())
//! # }
//! ```

mod anneal;
mod candidate;
mod evaluate;
mod objective;
mod pareto;
mod portfolio;
mod report;

pub use anneal::{AnnealTuning, WeightProfile};
pub use candidate::{Candidate, CandidateKey, JointAxes, MoveGuide, Undo};
pub use evaluate::{EvalStats, Evaluator, SearchSpace};
pub use objective::{
    AnalyzedMakespan, MoveVerdict, ObjVec, Objective, ObjectiveError, ProxyMakespan,
};
pub use pareto::{ObjMask, ParetoArchive, ParetoPoint};
pub use portfolio::{
    optimize, optimize_joint, optimize_with_objective, DseConfig, DseResult, ParetoConfig, Strategy,
};
pub use report::{
    render_dse_report, report_csv, report_json, run_arbiters, DseReportFormat, FrontRow,
    OptimizeReport, OptimizeRun, DSE_CSV_HEADER,
};

use std::fmt;

use mia_model::ModelError;

/// Errors that abort a search (as opposed to rejecting one candidate).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DseError {
    /// The search space itself is invalid (e.g. the seed problem and the
    /// platform disagree).
    Model(ModelError),
    /// The objective failed fatally — the seed mapping is infeasible, or
    /// an evaluation was cancelled.
    Objective(String),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Model(e) => write!(f, "invalid search space: {e}"),
            DseError::Objective(m) => write!(f, "objective failed: {m}"),
        }
    }
}

impl std::error::Error for DseError {}

impl From<ModelError> for DseError {
    fn from(e: ModelError) -> Self {
        DseError::Model(e)
    }
}
