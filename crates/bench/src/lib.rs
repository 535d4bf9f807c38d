#![warn(missing_docs)]

//! The benchmark harness: regenerates every table in the paper's §5.
//!
//! How a number is produced (the full pipeline):
//!
//! 1. [`build`] constructs a scaled `home` (or `rlse`) volume: real WAFL on
//!    simulated RAID-4, populated and *aged* so the free space — and hence
//!    every file — is scattered like the paper's mature data sets.
//! 2. The real backup engines run against it; every stage records the CPU
//!    seconds and classified device traffic it generated
//!    ([`backup_core::report::StageProfile`]).
//! 3. [`calibrate`] converts those measured demands (linearly re-scaled to
//!    the paper's 188 GB) into fluid-solver stages against the F630 device
//!    model: one 500 MHz CPU, per-arm disk rates, DLT-7000 drives.
//! 4. [`simkit::fluid`] computes elapsed time and utilization under
//!    contention — including the paper's parallel configurations — and
//!    [`tables`] prints rows in the paper's format next to the paper's own
//!    numbers.
//!
//! One binary drives everything: `bench <experiment>` (see [`cli`]),
//! where the experiments are the rows of one registry
//! ([`runners::EXPERIMENTS`]) and Tables 2–5, the scaling figure, the
//! network table and `bench explain` are all views selected from one
//! pipeline ([`runners::pipeline`]) over the four operations one
//! functional pass measured ([`experiments::OpRun`]). `bench all --jobs N`
//! runs the whole matrix on a deterministic thread pool ([`pool`]) —
//! every experiment on a fresh thread with virgin thread-local obs state,
//! outputs printed in submission order, so parallel artifacts are
//! byte-identical to serial ones. The pipeline jobs of one invocation
//! (`tables`, `net`) share one measured-and-solved pass
//! ([`runners::PassCell`]): like the paper, one installation measured
//! once, every table read off it.

pub mod build;
pub mod calibrate;
pub mod claims;
pub mod cli;
pub mod diff;
pub mod diffcli;
pub mod experiments;
pub mod explain;
pub mod obsout;
pub mod pool;
pub mod runners;
pub mod tables;

pub use build::BuiltVolume;
pub use calibrate::FilerModel;
