#![warn(missing_docs)]

//! Simulated tape subsystem: DLT-7000-class drives with attached stackers.
//!
//! The paper's testbed used 4 DLT-7000 drives with Breece-Hill stackers on
//! dedicated SCSI buses. This crate models:
//!
//! - [`Record`] — the unit both backup formats write: a framed
//!   sequence of [`Chunk`]s. Chunks can be literal bytes or
//!   synthetic (seed + length), mirroring the block payload trick in
//!   `blockdev` so paper-scale streams don't materialize gigabytes.
//! - [`media::Tape`] — one cartridge: an append-only record sequence with a
//!   byte capacity.
//! - [`drive::TapeDrive`] — the mechanism: streaming rate, media-change and
//!   rewind latencies, an auto-changer magazine, and traffic counters the
//!   benchmark harness reads.
//!
//! Tapes can be corrupted record-by-record ([`media::Tape::corrupt_record`])
//! for the robustness experiments: the paper's §3/§4 claim is that logical
//! restore loses only the affected file(s) while physical restore is
//! poisoned.

//!
//! The engines write through the [`simkit::media::Media`] trait rather
//! than a concrete drive, so the same dump can run against one drive, a
//! [`io::DrivePool`] striping four, a network replication target, or a
//! chaos stack ([`chaos::RetryMedia`] over [`chaos::FaultProxy`]) that
//! injects and absorbs deterministic faults. The trait (and the
//! [`Record`] frames it moves) lived here until the `net` crate
//! arrived; both are now hoisted to `simkit::media` and re-exported.

pub mod chaos;
pub mod drive;
pub mod io;
pub mod media;

pub use chaos::FaultProxy;
pub use chaos::RetryMedia;
pub use drive::TapeDrive;
pub use drive::TapePerf;
pub use drive::TapeStats;
pub use io::DrivePool;
pub use media::Tape;
pub use simkit::media::Chunk;
pub use simkit::media::Media;
pub use simkit::media::MediaError;
pub use simkit::media::Record;
