//! Static WCET-in-isolation estimation — the workspace's substitute for
//! OTAWA \[2\], the tool the paper's framework uses to obtain "the WCET in
//! isolation and number of memory accesses" of each task (§I).
//!
//! The interference analyses only consume a `(WCET, memory accesses)` pair
//! per task, so any sound estimator with that signature is
//! interchangeable. This crate provides two:
//!
//! * [`Program`] — a structured program tree analysed with the classic
//!   *timing schema* (Shaw): sequences add, conditionals take the maximal
//!   branch, loops multiply by their bound;
//! * [`Cfg`] — a basic-block control-flow graph with annotated loop
//!   bounds, analysed by bound-weighted longest path (an IPET-lite that is
//!   exact for reducible CFGs whose loops are annotated).
//!
//! Both return an [`Estimate`] and can mint ready-to-schedule
//! [`mia_model::Task`]s.
//!
//! The [`cache`] module adds the classification stage that precedes path
//! analysis on cached platforms: an LRU instruction-cache *must* analysis
//! deciding which references are guaranteed hits; the remaining ones are
//! priced as shared-memory accesses via
//! [`cache::Classification::block_weight`] and fed into a [`Cfg`].
//!
//! # Example
//!
//! ```
//! use mia_wcet::{estimate, Program};
//! use mia_model::Cycles;
//!
//! // for i in 0..16 { if hot { 12 cycles, 2 accesses } else { 4 cycles } }
//! let body = Program::if_else(
//!     Program::block(2, 0),
//!     Program::block(12, 2),
//!     Program::block(4, 0),
//! );
//! let program = Program::loop_of(16, body);
//! let e = estimate(&program);
//! assert_eq!(e.wcet, Cycles((2 + 12) * 16));
//! assert_eq!(e.accesses, 2 * 16);
//! ```

pub mod cache;
mod cfg;

pub use cfg::{BlockId, Cfg, CfgError};

use mia_model::{BankDemand, BankId, Cycles, Task};

/// A WCET-in-isolation estimate with the matching access bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Worst-case execution time in isolation.
    pub wcet: Cycles,
    /// Worst-case number of shared-memory accesses. Conservatively the
    /// maximum over paths, taken independently of the WCET path (the two
    /// maxima may come from different paths).
    pub accesses: u64,
}

impl Estimate {
    /// Builds a [`Task`] carrying this estimate; the access demand is
    /// recorded as private demand (folded onto the task's core bank when a
    /// [`Problem`](mia_model::Problem) is assembled).
    pub fn into_task(self, name: impl Into<String>) -> Task {
        Task::builder(name)
            .wcet(self.wcet)
            .private_demand(BankDemand::single(BankId(0), self.accesses))
            .build()
    }
}

/// A structured program fragment (timing-schema analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Program {
    /// A straight-line block: `cycles` of computation issuing `accesses`
    /// shared-memory accesses.
    Block {
        /// Execution cycles of the block in isolation.
        cycles: u64,
        /// Shared-memory accesses the block issues.
        accesses: u64,
    },
    /// Sequential composition.
    Seq(Vec<Program>),
    /// Two-way branch; `cond` executes always, then one of the branches.
    IfElse {
        /// Condition evaluation.
        cond: Box<Program>,
        /// Taken branch.
        then_branch: Box<Program>,
        /// Fallthrough branch.
        else_branch: Box<Program>,
    },
    /// A counted loop with a static iteration bound.
    Loop {
        /// Maximal number of iterations.
        bound: u64,
        /// Loop body (includes the per-iteration condition cost).
        body: Box<Program>,
    },
}

impl Program {
    /// A straight-line block.
    pub fn block(cycles: u64, accesses: u64) -> Program {
        Program::Block { cycles, accesses }
    }

    /// Sequential composition of fragments.
    pub fn seq(parts: impl IntoIterator<Item = Program>) -> Program {
        Program::Seq(parts.into_iter().collect())
    }

    /// A conditional.
    pub fn if_else(cond: Program, then_branch: Program, else_branch: Program) -> Program {
        Program::IfElse {
            cond: Box::new(cond),
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// A bounded loop.
    pub fn loop_of(bound: u64, body: Program) -> Program {
        Program::Loop {
            bound,
            body: Box::new(body),
        }
    }
}

/// Computes the timing-schema estimate of a structured program.
///
/// WCET: blocks contribute their cycles, sequences add, conditionals add
/// the condition plus the *slower* branch, loops multiply their body by
/// the bound. Accesses follow the same schema with the *more demanding*
/// branch — each maximum is taken independently, which keeps the pair
/// conservative for both dimensions.
pub fn estimate(program: &Program) -> Estimate {
    match program {
        Program::Block { cycles, accesses } => Estimate {
            wcet: Cycles(*cycles),
            accesses: *accesses,
        },
        Program::Seq(parts) => parts.iter().fold(
            Estimate {
                wcet: Cycles::ZERO,
                accesses: 0,
            },
            |acc, p| {
                let e = estimate(p);
                Estimate {
                    wcet: acc.wcet + e.wcet,
                    accesses: acc.accesses + e.accesses,
                }
            },
        ),
        Program::IfElse {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = estimate(cond);
            let t = estimate(then_branch);
            let e = estimate(else_branch);
            Estimate {
                wcet: c.wcet + t.wcet.max(e.wcet),
                accesses: c.accesses + t.accesses.max(e.accesses),
            }
        }
        Program::Loop { bound, body } => {
            let b = estimate(body);
            Estimate {
                wcet: b.wcet * *bound,
                accesses: b.accesses * *bound,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_itself() {
        let e = estimate(&Program::block(7, 3));
        assert_eq!(e.wcet, Cycles(7));
        assert_eq!(e.accesses, 3);
    }

    #[test]
    fn sequence_adds() {
        let e = estimate(&Program::seq([Program::block(5, 1), Program::block(10, 2)]));
        assert_eq!(e.wcet, Cycles(15));
        assert_eq!(e.accesses, 3);
    }

    #[test]
    fn branch_maxima_are_independent() {
        // Branch A: slow but access-light; branch B: fast but access-heavy.
        // A sound estimate must cover both dimensions.
        let e = estimate(&Program::if_else(
            Program::block(1, 0),
            Program::block(100, 1),
            Program::block(10, 50),
        ));
        assert_eq!(e.wcet, Cycles(101));
        assert_eq!(e.accesses, 50);
    }

    #[test]
    fn loops_multiply() {
        let e = estimate(&Program::loop_of(8, Program::block(3, 2)));
        assert_eq!(e.wcet, Cycles(24));
        assert_eq!(e.accesses, 16);
    }

    #[test]
    fn nested_loops_compose() {
        let inner = Program::loop_of(4, Program::block(2, 1));
        let outer = Program::loop_of(3, Program::seq([Program::block(1, 0), inner]));
        let e = estimate(&outer);
        assert_eq!(e.wcet, Cycles(3 * (1 + 8)));
        assert_eq!(e.accesses, 12);
    }

    #[test]
    fn zero_bound_loop_contributes_nothing() {
        let e = estimate(&Program::loop_of(0, Program::block(100, 100)));
        assert_eq!(e.wcet, Cycles::ZERO);
        assert_eq!(e.accesses, 0);
    }

    #[test]
    fn empty_sequence_is_zero() {
        let e = estimate(&Program::seq([]));
        assert_eq!(e.wcet, Cycles::ZERO);
        assert_eq!(e.accesses, 0);
    }

    #[test]
    fn estimate_mints_a_task() {
        let t = estimate(&Program::block(600, 250)).into_task("kernel");
        assert_eq!(t.name(), "kernel");
        assert_eq!(t.wcet(), Cycles(600));
        assert_eq!(t.private_demand().total(), 250);
    }
}
