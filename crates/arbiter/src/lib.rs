//! Bus-arbitration policies: implementations of the paper's `IBUS`
//! worst-case interference function.
//!
//! The analysis algorithms of `mia-core` and `mia-baseline` are generic
//! over the [`Arbiter`] trait of `mia-model`; this crate provides the
//! concrete policies:
//!
//! | Policy | Bound per bank | Additive | Paper reference |
//! |--------|----------------|----------|-----------------|
//! | [`RoundRobin`] | `Σⱼ min(d_v, dⱼ)` | yes | §II.A example (flat RR, Kalray MPPA-256 bank arbiter) |
//! | [`MppaTree`] | multi-level RR over an arbitration tree | no | §I/§V "Kalray MPPA-256 RR from \[6\]" |
//! | [`Tdm`] | `d_v · #active interferers` | yes | §II.A "multiple types of arbitration policies" |
//! | [`FixedPriority`] | `Σ_higher dⱼ + min(d_v, Σ_lower dⱼ)` | no | idem |
//! | [`Fifo`] | `Σⱼ dⱼ` | yes | idem |
//! | [`WeightedRoundRobin`] | `Σⱼ min(d_v·wⱼ, dⱼ)` | yes | idem (bandwidth-regulated shares) |
//! | [`Regulated`] | `Σⱼ min(d_v, dⱼ, windows·budget)` | yes | idem (MemGuard-style regulation) |
//!
//! where `d_v` is the victim's access count to the bank and `dⱼ` the
//! (per-core aggregated) interferer demands.
//!
//! All policies are **monotone** (more demand never means less computed
//! interference) — the property the incremental algorithm relies on; the
//! property tests in `tests/axioms.rs` enforce it.
//!
//! # Example
//!
//! The paper's §II.A round-robin example: three cores each writing 8 words
//! through a 1-word-wide bus — every core is halted 8+8 cycles.
//!
//! ```
//! use mia_arbiter::RoundRobin;
//! use mia_model::{arbiter::InterfererDemand, Arbiter, CoreId, Cycles};
//!
//! let rr = RoundRobin::new();
//! let others = [
//!     InterfererDemand { core: CoreId(1), accesses: 8 },
//!     InterfererDemand { core: CoreId(2), accesses: 8 },
//! ];
//! let delay = rr.bank_interference(CoreId(0), 8, &others, Cycles(1));
//! assert_eq!(delay, Cycles(16));
//! ```

mod fifo;
mod fixed_priority;
mod mppa;
mod regulated;
mod round_robin;
mod tdm;
mod tree;
mod weighted;

pub use fifo::Fifo;
pub use fixed_priority::FixedPriority;
pub use mppa::MppaTree;
pub use regulated::Regulated;
pub use round_robin::RoundRobin;
pub use tdm::Tdm;
pub use tree::{ArbitrationNode, ArbitrationTree};
pub use weighted::WeightedRoundRobin;

// Re-export the trait and demand type so users of this crate rarely need
// to import mia-model explicitly.
pub use mia_model::arbiter::{Arbiter, InterfererDemand};

/// One row of the arbiter [`REGISTRY`]: the canonical command-line name,
/// its accepted aliases, and the display name
/// ([`Arbiter::name`]) the resolved policy reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The canonical command-line token (`mia analyze --arbiter <this>`).
    pub canonical: &'static str,
    /// Alternative tokens resolving to the same policy.
    pub aliases: &'static [&'static str],
    /// The [`Arbiter::name`] of the policy the tokens resolve to.
    pub display: &'static str,
}

/// Every registered arbiter, in the order the front-ends document them.
/// [`by_name`] accepts exactly the canonical names and aliases listed
/// here (the registry test suite pins the two in sync), so harnesses can
/// enumerate *all* policies — the cross-engine conformance tests in
/// `mia-core` do.
pub const REGISTRY: &[RegistryEntry] = &[
    RegistryEntry {
        canonical: "rr",
        aliases: &["round-robin"],
        display: "round-robin",
    },
    RegistryEntry {
        canonical: "mppa",
        aliases: &["tree"],
        display: "mppa-tree",
    },
    RegistryEntry {
        canonical: "tdm",
        aliases: &[],
        display: "tdm",
    },
    RegistryEntry {
        canonical: "fifo",
        aliases: &[],
        display: "fifo",
    },
    RegistryEntry {
        canonical: "fp",
        aliases: &["fixed-priority"],
        display: "fixed-priority",
    },
    RegistryEntry {
        canonical: "wrr",
        aliases: &["weighted"],
        display: "weighted-round-robin",
    },
    RegistryEntry {
        canonical: "regulated",
        aliases: &["memguard"],
        display: "regulated",
    },
];

/// Builds an arbiter from its command-line name, with the default
/// configuration each front-end uses (`mia analyze --arbiter`, `mia
/// sweep --arbiters`, the bench drivers).
///
/// Recognised names (aliases in parentheses): `rr` (`round-robin`),
/// `mppa` (`tree`), `tdm`, `fifo`, `fp` (`fixed-priority`), `wrr`
/// (`weighted`), `regulated` (`memguard`) — exactly the [`REGISTRY`]
/// rows. Returns `None` for anything else; use [`by_name_or_err`] when a
/// human-readable error is wanted.
///
/// `mppa` is [`MppaTree::cluster16`], the 16-core, 8-pair cluster tree,
/// whatever the platform's core count: on `--cores > 16` the extra cores
/// enter through the tree's implicit top-level round-robin input.
///
/// The trait object is `Send + Sync` so one instance can be shared by the
/// threads that use it concurrently: the DSE's search chains
/// (`mia optimize --threads`), the workers of `mia serve` and the grid
/// points of a sweep (`--jobs`).
///
/// # Example
///
/// ```
/// let rr = mia_arbiter::by_name("rr").expect("known arbiter");
/// assert_eq!(rr.name(), "round-robin");
/// assert!(mia_arbiter::by_name("bogus").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn Arbiter + Send + Sync>> {
    Some(match name {
        "rr" | "round-robin" => Box::new(RoundRobin::new()),
        "mppa" | "tree" => Box::new(MppaTree::cluster16()),
        "tdm" => Box::new(Tdm::new()),
        "fifo" => Box::new(Fifo::new()),
        "fp" | "fixed-priority" => Box::new(FixedPriority::by_core_id()),
        "wrr" | "weighted" => Box::new(WeightedRoundRobin::default()),
        "regulated" | "memguard" => Box::new(Regulated::new(8, 128)),
        _ => return None,
    })
}

/// Like [`by_name`], but unknown names yield the canonical error message
/// listing every registered arbiter — shared by `mia analyze`,
/// `mia sweep` and the bench drivers so the hint never drifts from the
/// [`REGISTRY`].
///
/// # Errors
///
/// A human-readable message naming the offending token and every
/// canonical arbiter name.
///
/// # Example
///
/// ```
/// let err = mia_arbiter::by_name_or_err("bogus").err().expect("unknown");
/// assert!(err.contains("unknown arbiter `bogus`"));
/// assert!(err.contains("rr"));
/// ```
pub fn by_name_or_err(name: &str) -> Result<Box<dyn Arbiter + Send + Sync>, String> {
    by_name(name).ok_or_else(|| {
        let known: Vec<&str> = REGISTRY.iter().map(|e| e.canonical).collect();
        format!("unknown arbiter `{name}` (known: {})", known.join(", "))
    })
}
