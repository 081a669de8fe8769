//! Synchronous-dataflow (SDF) front-end.
//!
//! The paper's task DAGs are "typically obtained by compilation of a
//! high-level dataflow language" (§I): a dataflow application is divided
//! into computational blocks and compiled into a DAG of tasks partially
//! ordered by their dependencies (§I, referencing \[5\] and \[7\], which
//! analyse synchronous dataflow programs). This crate is that front-end
//! (ARCHITECTURE.md, "Workloads"):
//!
//! * [`SdfGraph`] — actors with per-firing WCET and memory accesses,
//!   channels with production/consumption rates, initial tokens and token
//!   sizes,
//! * [`SdfGraph::repetition_vector`] — the balance-equation solution
//!   (smallest positive firing counts per iteration),
//! * [`SdfGraph::expand`] — expansion of `k` graph iterations into a
//!   [`TaskGraph`](mia_model::TaskGraph) of firing instances with word-weighted dependency
//!   edges (the classic SDF→HSDF transformation),
//! * [`parse`] — a small text format for writing applications by hand,
//! * [`parse_sdf3`] / [`to_sdf3`] — import/export of the SDF3 XML
//!   interchange format, so published dataflow benchmarks run unmodified,
//! * [`rosace()`] — the ROSACE avionics case study as a built-in preset.
//!
//! # Example
//!
//! A two-stage downsampling pipeline: `src` fires 3 times per iteration,
//! `sink` once, each `sink` firing consuming what 3 `src` firings produce.
//!
//! ```
//! use mia_sdf::SdfGraph;
//! use mia_model::Cycles;
//!
//! # fn main() -> Result<(), mia_sdf::SdfError> {
//! let mut sdf = SdfGraph::new();
//! let src = sdf.add_actor("src", Cycles(100), 0)?;
//! let sink = sdf.add_actor("sink", Cycles(250), 0)?;
//! sdf.add_channel(src, sink, 1, 3, 0, 8)?;
//!
//! let q = sdf.repetition_vector()?;
//! assert_eq!(q, vec![3, 1]);
//!
//! let expansion = sdf.expand(1)?;
//! assert_eq!(expansion.graph.len(), 4); // 3 × src + 1 × sink
//! assert_eq!(expansion.graph.edge_count(), 3); // each src firing feeds sink
//! # Ok(())
//! # }
//! ```

mod buffers;
mod expand;
mod parser;
pub mod rosace;
pub mod sdf3;

pub use buffers::BufferBounds;
pub use expand::Expansion;
pub use parser::parse;
pub use rosace::rosace;
pub use sdf3::{parse_sdf3, to_sdf3};

/// Parses SDF source text, selecting the format from the file name it
/// was read from: `.sdf3` / `.xml` means [`parse_sdf3`], anything else
/// the [`parse`] text format. This is the single dispatch rule shared by
/// every consumer (`mia` workload inputs, the sweep's `sdf3:<path>`
/// family), so the extension mapping cannot drift between them.
///
/// # Errors
///
/// Whatever the selected parser returns (see [`parse`] /
/// [`parse_sdf3`]).
pub fn parse_named(path: &str, text: &str) -> Result<SdfGraph, SdfError> {
    if path.ends_with(".sdf3") || path.ends_with(".xml") {
        parse_sdf3(text)
    } else {
        parse(text)
    }
}

use std::error::Error;
use std::fmt;

use mia_model::Cycles;

/// Identifier of an actor within an [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The actor's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// An actor: a computational block firing repeatedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Actor {
    /// Human-readable name (unique within the graph).
    pub name: String,
    /// WCET in isolation of one firing.
    pub wcet: Cycles,
    /// Private memory accesses of one firing (on top of channel traffic).
    pub accesses: u64,
}

/// A FIFO channel between two actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens produced per `src` firing.
    pub produce: u64,
    /// Tokens consumed per `dst` firing.
    pub consume: u64,
    /// Tokens initially present (delays); they let cyclic graphs execute.
    pub initial: u64,
    /// Memory words per token (scales the task-graph edge weights).
    pub words_per_token: u64,
}

/// Errors of SDF construction, analysis and expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdfError {
    /// A channel references an unknown actor.
    UnknownActor(ActorId),
    /// A rate is zero (every channel must move tokens on both ends).
    ZeroRate,
    /// The balance equations admit no positive integer solution.
    Inconsistent {
        /// A channel witnessing the inconsistency.
        src: ActorId,
        dst: ActorId,
    },
    /// The graph deadlocks: a dependency cycle without enough initial
    /// tokens survives into the expansion.
    Deadlock,
    /// The repetition vector overflows practical bounds.
    TooLarge,
    /// Parse error with line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Actor name referenced by the textual format does not exist.
    UnknownName(String),
    /// An actor with this name already exists in the graph.
    DuplicateActor(String),
    /// A deadline-to-iterations conversion was requested but the graph
    /// declares no hyper-period (see [`SdfGraph::set_hyper_period`]).
    NoHyperPeriod,
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnknownActor(a) => write!(f, "unknown actor {a}"),
            SdfError::ZeroRate => write!(f, "channel rates must be non-zero"),
            SdfError::Inconsistent { src, dst } => {
                write!(f, "inconsistent rates on channel {src} -> {dst}")
            }
            SdfError::Deadlock => write!(f, "graph deadlocks (insufficient initial tokens)"),
            SdfError::TooLarge => write!(f, "repetition vector exceeds practical bounds"),
            SdfError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            SdfError::UnknownName(n) => write!(f, "unknown actor name `{n}`"),
            SdfError::DuplicateActor(n) => write!(f, "duplicate actor `{n}`"),
            SdfError::NoHyperPeriod => {
                write!(
                    f,
                    "graph declares no hyper-period (cannot derive iterations from a deadline)"
                )
            }
        }
    }
}

impl Error for SdfError {}

/// A synchronous-dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SdfGraph {
    actors: Vec<Actor>,
    channels: Vec<Channel>,
    /// Wall-clock duration of one graph iteration in cycles, if declared.
    hyper_period: Option<Cycles>,
}

impl SdfGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SdfGraph::default()
    }

    /// Declares the wall-clock duration of one graph iteration
    /// (hyper-period) in cycles. Multi-rate periodic task sets compiled
    /// to SDF — like the built-in [`rosace()`] preset — carry this so
    /// tools can translate a deadline expressed in cycles into an
    /// iteration count (`mia analyze rosace --deadline N` derives
    /// `--iterations` from it). The SDF3 writer emits it as a
    /// `<hyperPeriod time="…"/>` property and the reader restores it;
    /// foreign SDF3 files simply leave it undeclared.
    pub fn set_hyper_period(&mut self, period: Cycles) {
        self.hyper_period = Some(period);
    }

    /// The declared duration of one graph iteration, if any.
    pub fn hyper_period(&self) -> Option<Cycles> {
        self.hyper_period
    }

    /// The smallest iteration count whose total hyper-period covers
    /// `deadline` (i.e. `k · hyper_period ≥ deadline`, k ≥ 1).
    ///
    /// # Errors
    ///
    /// * [`SdfError::NoHyperPeriod`] if the graph declares no (or a
    ///   zero) hyper-period — there is no time base to divide by,
    /// * [`SdfError::TooLarge`] if the required count exceeds the
    ///   expansion bounds (the deadline is infeasibly far out).
    pub fn iterations_for_deadline(&self, deadline: Cycles) -> Result<u64, SdfError> {
        let period = match self.hyper_period {
            Some(p) if p > Cycles::ZERO => p,
            _ => return Err(SdfError::NoHyperPeriod),
        };
        let k = deadline.as_u64().div_ceil(period.as_u64()).max(1);
        // Mirror the expansion's firing cap so the error arrives before
        // an enormous expansion is attempted.
        let per_iteration: u64 = self.repetition_vector()?.iter().sum();
        if per_iteration.saturating_mul(k) > 4_000_000 {
            return Err(SdfError::TooLarge);
        }
        Ok(k)
    }

    /// Adds an actor and returns its id.
    ///
    /// # Errors
    ///
    /// [`SdfError::DuplicateActor`] if the name is already taken —
    /// duplicate names would make [`SdfGraph::actor_by_name`] ambiguous,
    /// so programmatic construction rejects them exactly like the
    /// textual and SDF3 parsers do.
    pub fn add_actor(
        &mut self,
        name: impl Into<String>,
        wcet: Cycles,
        accesses: u64,
    ) -> Result<ActorId, SdfError> {
        let name = name.into();
        if self.actor_by_name(&name).is_some() {
            return Err(SdfError::DuplicateActor(name));
        }
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Actor {
            name,
            wcet,
            accesses,
        });
        Ok(id)
    }

    /// Adds a channel `src → dst` producing `produce` tokens per source
    /// firing, consuming `consume` per destination firing, with `initial`
    /// tokens already present and `words_per_token` memory words each.
    ///
    /// # Errors
    ///
    /// [`SdfError::UnknownActor`] for dangling endpoints and
    /// [`SdfError::ZeroRate`] if either rate is zero.
    pub fn add_channel(
        &mut self,
        src: ActorId,
        dst: ActorId,
        produce: u64,
        consume: u64,
        initial: u64,
        words_per_token: u64,
    ) -> Result<(), SdfError> {
        if src.index() >= self.actors.len() {
            return Err(SdfError::UnknownActor(src));
        }
        if dst.index() >= self.actors.len() {
            return Err(SdfError::UnknownActor(dst));
        }
        if produce == 0 || consume == 0 {
            return Err(SdfError::ZeroRate);
        }
        self.channels.push(Channel {
            src,
            dst,
            produce,
            consume,
            initial,
            words_per_token,
        });
        Ok(())
    }

    /// The actors, indexed by [`ActorId`].
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// The channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Looks an actor up by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors
            .iter()
            .position(|a| a.name == name)
            .map(|i| ActorId(i as u32))
    }

    /// Solves the balance equations `q[src]·produce = q[dst]·consume` for
    /// the smallest positive integer repetition vector.
    ///
    /// Actors in different weakly-connected components are normalised
    /// independently (each component's smallest firing count is minimal).
    ///
    /// # Errors
    ///
    /// * [`SdfError::Inconsistent`] if the rates admit no solution,
    /// * [`SdfError::TooLarge`] if counts overflow `u32::MAX`.
    pub fn repetition_vector(&self) -> Result<Vec<u64>, SdfError> {
        let n = self.actors.len();
        // Fractions q_i = num/den relative to the component root.
        let mut frac: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut adj: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); n];
        for c in &self.channels {
            // src rate p, dst rate q: q_dst = q_src * p / q.
            adj[c.src.index()].push((c.dst.index(), c.produce, c.consume));
            adj[c.dst.index()].push((c.src.index(), c.consume, c.produce));
        }
        let mut component = vec![usize::MAX; n];
        let mut n_components = 0;
        for root in 0..n {
            if frac[root].is_some() {
                continue;
            }
            frac[root] = Some((1, 1));
            component[root] = n_components;
            let mut stack = vec![root];
            while let Some(u) = stack.pop() {
                let (nu, du) = frac[u].expect("set before push");
                for &(v, p, q) in &adj[u] {
                    // q_v = q_u * p / q.
                    let g1 = gcd(nu * p, du * q);
                    let cand = ((nu * p) / g1, (du * q) / g1);
                    match frac[v] {
                        None => {
                            frac[v] = Some(cand);
                            component[v] = n_components;
                            stack.push(v);
                        }
                        Some(existing) => {
                            if existing != cand {
                                return Err(SdfError::Inconsistent {
                                    src: ActorId(u as u32),
                                    dst: ActorId(v as u32),
                                });
                            }
                        }
                    }
                }
            }
            n_components += 1;
        }
        // Scale each component by the lcm of denominators, then divide by
        // the gcd of numerators.
        let mut result = vec![0u64; n];
        for comp in 0..n_components {
            let members: Vec<usize> = (0..n).filter(|&i| component[i] == comp).collect();
            let mut l = 1u64;
            for &i in &members {
                let (_, d) = frac[i].expect("all fractions set");
                l = lcm(l, d);
                if l > u32::MAX as u64 {
                    return Err(SdfError::TooLarge);
                }
            }
            let mut g = 0u64;
            for &i in &members {
                let (num, den) = frac[i].expect("all fractions set");
                let scaled = num * (l / den);
                g = gcd(g, scaled);
            }
            for &i in &members {
                let (num, den) = frac[i].expect("all fractions set");
                let scaled = num * (l / den);
                result[i] = scaled / g.max(1);
                if result[i] > u32::MAX as u64 {
                    return Err(SdfError::TooLarge);
                }
            }
        }
        Ok(result)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_pipeline_repetition() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(10), 0).unwrap();
        let b = g.add_actor("b", Cycles(10), 0).unwrap();
        g.add_channel(a, b, 2, 3, 0, 1).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![3, 2]);
    }

    #[test]
    fn chain_of_three() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        let b = g.add_actor("b", Cycles(1), 0).unwrap();
        let c = g.add_actor("c", Cycles(1), 0).unwrap();
        g.add_channel(a, b, 3, 2, 0, 1).unwrap();
        g.add_channel(b, c, 1, 3, 0, 1).unwrap();
        // q_a·3 = q_b·2, q_b·1 = q_c·3 → q = (2, 3, 1).
        assert_eq!(g.repetition_vector().unwrap(), vec![2, 3, 1]);
    }

    #[test]
    fn inconsistent_rates_detected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        let b = g.add_actor("b", Cycles(1), 0).unwrap();
        g.add_channel(a, b, 1, 1, 0, 1).unwrap();
        g.add_channel(a, b, 2, 1, 0, 1).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn disconnected_components_normalise_independently() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        let b = g.add_actor("b", Cycles(1), 0).unwrap();
        let c = g.add_actor("c", Cycles(1), 0).unwrap();
        let d = g.add_actor("d", Cycles(1), 0).unwrap();
        g.add_channel(a, b, 1, 2, 0, 1).unwrap();
        g.add_channel(c, d, 5, 5, 0, 1).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn isolated_actor_fires_once() {
        let mut g = SdfGraph::new();
        let _ = g.add_actor("solo", Cycles(1), 0).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![1]);
    }

    #[test]
    fn cyclic_graph_is_balanced() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        let b = g.add_actor("b", Cycles(1), 0).unwrap();
        g.add_channel(a, b, 2, 1, 0, 1).unwrap();
        g.add_channel(b, a, 1, 2, 2, 1).unwrap();
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 2]);
    }

    #[test]
    fn zero_rate_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        let b = g.add_actor("b", Cycles(1), 0).unwrap();
        assert_eq!(g.add_channel(a, b, 0, 1, 0, 1), Err(SdfError::ZeroRate));
    }

    #[test]
    fn unknown_actor_rejected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        assert!(matches!(
            g.add_channel(a, ActorId(7), 1, 1, 0, 1),
            Err(SdfError::UnknownActor(ActorId(7)))
        ));
    }

    #[test]
    fn duplicate_actor_rejected_programmatically() {
        // Mirrors `parser.rs::duplicate_actor_rejected`: the builder API
        // used to silently accept duplicate names, leaving
        // `actor_by_name` ambiguous for programmatically-built graphs.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Cycles(1), 0).unwrap();
        assert_eq!(
            g.add_actor("a", Cycles(2), 3),
            Err(SdfError::DuplicateActor("a".to_owned()))
        );
        // The failed insertion must not have touched the graph.
        assert_eq!(g.actors().len(), 1);
        assert_eq!(g.actor_by_name("a"), Some(a));
        assert_eq!(g.actors()[0].wcet, Cycles(1));
    }

    #[test]
    fn actor_lookup_by_name() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("alpha", Cycles(1), 0).unwrap();
        assert_eq!(g.actor_by_name("alpha"), Some(a));
        assert_eq!(g.actor_by_name("beta"), None);
    }
}
