#![warn(missing_docs)]

//! Simulation toolkit shared by every crate in the workspace.
//!
//! The reproduction separates *function* from *time*: file system and backup
//! code runs for real on simulated devices, while this crate supplies the
//! machinery that turns the recorded resource demands into elapsed time and
//! utilization figures comparable to the paper's tables.
//!
//! Modules:
//!
//! - [`units`] — byte/time units and paper-style formatting helpers.
//! - [`rng`] — deterministic random numbers and the distributions used by the
//!   workload generator.
//! - [`stats`] — counters, histograms and summaries.
//! - [`meter`] — a shared CPU/work meter that functional code charges costs to.
//! - [`fluid`] — a max-min fair fluid-flow solver that computes stage elapsed
//!   times and per-resource utilization for concurrent jobs.
//! - [`faults`] — the unified [`faults::FaultSpec`] fault configuration that
//!   blockdev/tape/raid arm their deterministic chaos injection from.
//! - [`crash`] — enumerable whole-system crash points: a seeded
//!   [`crash::CrashPlan`] kills the machine mid-operation so recovery
//!   (NVRAM replay, consistency-point fallback, dump resume) can be
//!   property-tested.
//! - [`toml`] — the one TOML-subset parser behind `faults.toml`,
//!   `claims.toml` and `simlint.toml`.
//! - [`retry`] — the [`retry::RetryPolicy`] attempts/backoff schedule that
//!   device-layer wrappers meter retries with.
//! - [`media`] — the medium-agnostic [`media::Media`] record-stream trait
//!   (with [`media::Record`] and [`media::MediaError`]) the backup engines
//!   write through; tape and net both implement it.

pub mod crash;
pub mod faults;
pub mod fluid;
pub mod media;
pub mod meter;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod toml;
pub mod units;

/// The names almost every consumer of the toolkit wants in scope: the
/// fluid model types and the deterministic RNG. `use simkit::prelude::*;`
/// replaces the half-dozen `use simkit::fluid::...` lines that repeated
/// across the workspace.
pub mod prelude {
    pub use crate::fluid::Binding;
    pub use crate::fluid::FluidSim;
    pub use crate::fluid::Interval;
    pub use crate::fluid::ResourceId;
    pub use crate::fluid::Solver;
    pub use crate::fluid::SolverStats;
    pub use crate::fluid::Stage;
    pub use crate::fluid::Stream;
    pub use crate::fluid::StreamId;
    pub use crate::fluid::Trace;
    pub use crate::rng::SimRng;
}
