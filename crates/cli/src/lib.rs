//! Command-line front-end for the `mia` workspace.
//!
//! The `mia` binary drives the full flow from files:
//!
//! ```text
//! mia generate --family LS64 -n 256 --seed 7 -o workload.json
//! mia analyze workload.json --arbiter mppa --gantt
//! mia analyze workload.json --algorithm baseline
//! mia analyze workload.json --json schedule.json
//! mia optimize rosace --budget-evals 200 --seed 7 --threads 4
//! mia sweep --families tobita,layered --arbiters rr,mppa --sizes 1000,8000,32000
//! mia simulate workload.json --pattern random --seed 3
//! mia sdf app.sdf --cores 4 --iterations 2 --strategy etf
//! mia dot workload.json
//! ```
//!
//! An option a command does not take is a usage error (exit code 1).
//!
//! Workloads are exchanged in a human-writable JSON schema
//! ([`WorkloadFile`]) that is validated into a
//! [`Problem`](mia_model::Problem) on load — hand-edited files get real
//! error messages instead of panics.

mod commands;
mod optimize;
mod serve;
mod sweep;
mod workload;

pub use commands::{run, CliError};
pub use serve::CliEngine;
pub use workload::{EdgeSpec, PlatformSpec, TaskSpec, WorkloadFile};
