#![warn(missing_docs)]

//! Workload generation: building the *mature* file systems the paper
//! measured.
//!
//! The paper's `home` and `rlse` volumes were copies of real engineering
//! file systems, and it notes that "a mature data set is typically slower
//! to backup than a newly created one because of fragmentation: the blocks
//! of a newly created file are less likely to be contiguously allocated in
//! a mature file system where the free space is scattered throughout the
//! disks."
//!
//! This crate reproduces that property mechanically rather than by fiat:
//! [`populate()`](populate::populate) fills a volume with a realistic namespace (log-normal file
//! sizes, skewed directory fan-out), and [`age()`](age::age) then runs delete/rewrite
//! cycles against WAFL's real cursor allocator until the free space — and
//! therefore every subsequently written file — is scattered.
//! [`frag::fragmentation`] measures the result, and the benchmark harness
//! relies on it: logical dump's inode-order reads turn random exactly to
//! the degree that aging fragmented the volume.
//!
//! [`crash`] is the odd one out: not a paper workload but the small seeded
//! file system, mutation stream and checked reboot that every
//! crash-consistency test and `bench crash` share.

pub mod age;
pub mod churn;
pub mod crash;
pub mod frag;
pub mod populate;
pub mod profile;

pub use age::age;
pub use age::AgingOptions;
pub use churn::churn;
pub use churn::ChurnOptions;
pub use frag::fragmentation;
pub use populate::populate;
pub use populate::PopulateOutcome;
pub use profile::VolumeProfile;
