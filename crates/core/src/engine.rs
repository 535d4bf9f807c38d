//! The unified backup-engine API.
//!
//! The paper's two strategies — logical (file-by-file `dump`/`restore`)
//! and physical (block-image dump/restore) — share a shape: plan what to
//! move, move it to tape, move it back. [`BackupEngine`] captures that
//! shape so harnesses, tests, and operators can drive either strategy
//! through one interface:
//!
//! ```ignore
//! let mut engine: Box<dyn BackupEngine> =
//!     Box::new(LogicalEngine::new(DumpOptions::builder().subtree("/").level(0).build()));
//! let plan = engine.plan(&fs);
//! let dumped = engine.dump(&mut fs, &mut drive)?;
//! let restored = engine.restore(&mut target, &mut drive)?;
//! ```
//!
//! Engines write through the medium-agnostic [`simkit::media::Media`]
//! trait rather than a concrete drive, so the same dump can target one
//! [`tape::TapeDrive`], a [`tape::DrivePool`] striping four, a network
//! replication target, or a chaos stack ([`tape::RetryMedia`] over
//! [`tape::FaultProxy`]) injecting and absorbing deterministic faults.
//! `&mut TapeDrive` coerces to `&mut dyn Media`, so plain-drive call sites
//! read the same as before. Media failures surface uniformly as
//! [`simkit::media::MediaError`], whatever carried the bytes.
//!
//! The free functions ([`crate::logical::dump::dump`],
//! [`crate::physical::dump::image_dump_full`], ...) remain the low-level
//! entry points; the engines delegate to them and translate their
//! per-strategy error types into one [`BackupError`].

use raid::RaidError;
use simkit::media::Media;
use simkit::media::MediaError;
use wafl::Wafl;

use crate::logical::catalog::DumpCatalog;
use crate::logical::dump::DumpOptions;
use crate::logical::format::DumpError;
use crate::physical::format::ImageError;
use crate::report::Profiler;

/// One error type across both strategies.
///
/// `#[non_exhaustive]` on both the struct and [`BackupErrorKind`]: more
/// strategies (and more failure classes) can appear without breaking
/// downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub struct BackupError {
    /// The operation in flight when the failure surfaced ("logical dump",
    /// "image restore", ...).
    pub op: &'static str,
    /// The underlying strategy-specific error.
    pub kind: BackupErrorKind,
}

/// The strategy-specific cause inside a [`BackupError`].
#[derive(Debug)]
#[non_exhaustive]
pub enum BackupErrorKind {
    /// The logical dump/restore path failed.
    Logical(DumpError),
    /// The physical image path failed.
    Physical(ImageError),
    /// The backup medium itself (tape drive, network link) failed.
    Media(MediaError),
    /// Every retry of a transient media fault failed: the default
    /// [`simkit::retry::RetryPolicy`] backed off, re-drove the operation,
    /// and gave up. Permanent by construction.
    Exhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The transient error observed on the final attempt.
        last: MediaError,
    },
    /// The RAID layer under the dump lost more redundancy than parity can
    /// cover (or exhausted its own member retries) — the volume itself is
    /// degraded past what a backup can mask.
    Degraded(RaidError),
}

impl BackupError {
    /// Replaces the operation context (the `From` impls default it to
    /// `"backup"`).
    pub fn during(mut self, op: &'static str) -> BackupError {
        self.op = op;
        self
    }

    /// Whether retrying the whole operation may succeed. Exhausted retries
    /// and degraded-volume failures are permanent; a bare transient media
    /// error (surfaced without a retry layer in the stack) is not.
    pub fn is_transient(&self) -> bool {
        match &self.kind {
            // The `From` impls below lift every media failure out of
            // its strategy wrapper, so `Media` is the only place one lives.
            BackupErrorKind::Media(e) => e.is_transient(),
            BackupErrorKind::Physical(ImageError::Raid(e)) => e.is_transient(),
            _ => false,
        }
    }
}

impl std::fmt::Display for BackupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            BackupErrorKind::Logical(e) => write!(f, "{} failed: {e}", self.op),
            BackupErrorKind::Physical(e) => write!(f, "{} failed: {e}", self.op),
            BackupErrorKind::Media(e) => write!(f, "{} failed: {e}", self.op),
            BackupErrorKind::Exhausted { attempts, last } => {
                write!(f, "{} failed after {attempts} attempts: {last}", self.op)
            }
            BackupErrorKind::Degraded(e) => {
                write!(f, "{} failed on a degraded volume: {e}", self.op)
            }
        }
    }
}

impl std::error::Error for BackupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            BackupErrorKind::Logical(e) => Some(e),
            BackupErrorKind::Physical(e) => Some(e),
            BackupErrorKind::Media(e) => Some(e),
            BackupErrorKind::Exhausted { last, .. } => Some(last),
            BackupErrorKind::Degraded(e) => Some(e),
        }
    }
}

impl From<DumpError> for BackupError {
    fn from(e: DumpError) -> BackupError {
        let kind = match e {
            DumpError::Media(m) => media_kind(m),
            other => BackupErrorKind::Logical(other),
        };
        BackupError { op: "backup", kind }
    }
}

impl From<ImageError> for BackupError {
    fn from(e: ImageError) -> BackupError {
        let kind = match e {
            ImageError::Media(m) => media_kind(m),
            ImageError::Raid(
                r @ (RaidError::TooManyFailures { .. } | RaidError::Exhausted { .. }),
            ) => BackupErrorKind::Degraded(r),
            other => BackupErrorKind::Physical(other),
        };
        BackupError { op: "backup", kind }
    }
}

impl From<MediaError> for BackupError {
    fn from(e: MediaError) -> BackupError {
        BackupError {
            op: "backup",
            kind: media_kind(e),
        }
    }
}

/// Classifies a media error: exhausted retry stacks get their own kind so
/// callers can match on permanence without unwrapping the media layer.
fn media_kind(e: MediaError) -> BackupErrorKind {
    match e {
        MediaError::Exhausted { attempts, last } => BackupErrorKind::Exhausted {
            attempts,
            last: *last,
        },
        other => BackupErrorKind::Media(other),
    }
}

/// What an engine intends to do, computed without touching tape.
#[derive(Debug, Clone)]
pub struct BackupPlan {
    /// Strategy name ("logical" or "physical").
    pub strategy: &'static str,
    /// Incremental level (always 0 for a full physical dump).
    pub level: u8,
    /// Subtree covered ("/" = whole volume; physical is always "/").
    pub subtree: String,
    /// Stage names the dump will run, in order.
    pub stages: Vec<&'static str>,
    /// Blocks the strategy expects to move (active blocks for logical,
    /// all allocated blocks — snapshots included — for physical).
    pub estimated_blocks: u64,
    /// The block estimate in bytes.
    pub estimated_bytes: u64,
}

/// What a dump or restore moved, uniformly across strategies.
///
/// Strategy-specific detail (warnings, inode maps, snapshot names) stays
/// on the per-strategy outcome types; drive the free functions directly
/// when you need it.
#[derive(Debug)]
pub struct Outcome {
    /// Per-stage resource profiles (spans included).
    pub profiler: Profiler,
    /// Files moved (0 for physical — it does not know about files).
    pub files: u64,
    /// Directories moved (0 for physical).
    pub dirs: u64,
    /// Data blocks moved.
    pub blocks: u64,
    /// Bytes that crossed the tape interface.
    pub tape_bytes: u64,
    /// Media retries the retry layer absorbed during the operation (0
    /// unless fault injection was armed and a [`tape::RetryMedia`] or a
    /// RAID retry policy was in the stack).
    pub retries: u64,
    /// Whether the RAID layer served any reads in degraded mode (parity
    /// reconstruction standing in for a failed or faulting member).
    pub degraded: bool,
}

/// Reading of the process-wide retry/degradation counters, taken before
/// and after an operation so the [`Outcome`] can report the deltas.
#[derive(Debug, Clone, Copy)]
struct FaultCounters {
    retries: u64,
    degraded_reads: u64,
}

impl FaultCounters {
    fn read() -> FaultCounters {
        FaultCounters {
            retries: obs::counter("media.retries").get() + obs::counter("raid.retries").get(),
            degraded_reads: obs::counter("raid.degraded_reads").get(),
        }
    }
}

/// A backup strategy that can plan, dump, and restore.
pub trait BackupEngine {
    /// Strategy name ("logical" or "physical").
    fn name(&self) -> &'static str;

    /// Computes what a dump would move, without touching the tape.
    fn plan(&self, fs: &Wafl) -> BackupPlan;

    /// Dumps from `fs` to `media` (a drive, a pool, or a chaos stack).
    fn dump(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError>;

    /// Restores from `media` into `fs`.
    ///
    /// Logical restore rebuilds files through the file system; physical
    /// restore writes raw blocks onto the volume underneath `fs`, so the
    /// caller must remount (crash + mount) before using the file system —
    /// mirroring the real procedure, where an image restore happens on an
    /// unmounted volume.
    fn restore(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError>;
}

/// The logical (file-based) strategy: BSD-style dump/restore through the
/// file system, with incremental levels and a dumpdates catalog.
#[derive(Debug, Default)]
pub struct LogicalEngine {
    opts: DumpOptions,
    catalog: DumpCatalog,
    restore_target: String,
}

impl LogicalEngine {
    /// An engine dumping per `opts` and restoring into "/".
    pub fn new(opts: DumpOptions) -> LogicalEngine {
        LogicalEngine {
            opts,
            catalog: DumpCatalog::new(),
            restore_target: "/".into(),
        }
    }

    /// Changes the directory restores land in.
    pub fn with_restore_target(mut self, target: impl Into<String>) -> LogicalEngine {
        self.restore_target = target.into();
        self
    }

    /// The dumpdates catalog accumulated across dumps (incremental bases).
    pub fn catalog(&self) -> &DumpCatalog {
        &self.catalog
    }
}

impl BackupEngine for LogicalEngine {
    fn name(&self) -> &'static str {
        "logical"
    }

    fn plan(&self, fs: &Wafl) -> BackupPlan {
        let blocks = fs.blkmap().count_plane(0);
        let mut stages = vec![
            "creating snapshot",
            "mapping files and directories",
            "dumping directories",
            "dumping files",
        ];
        if !self.opts.keep_snapshot {
            stages.push("deleting snapshot");
        }
        BackupPlan {
            strategy: "logical",
            level: self.opts.level,
            subtree: self.opts.subtree.clone(),
            stages,
            estimated_blocks: blocks,
            estimated_bytes: blocks * blockdev::BLOCK_SIZE as u64,
        }
    }

    fn dump(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError> {
        let before = FaultCounters::read();
        let out = crate::logical::dump::dump(fs, media, &mut self.catalog, &self.opts)
            .map_err(|e| BackupError::from(e).during("logical dump"))?;
        let after = FaultCounters::read();
        Ok(Outcome {
            profiler: out.profiler,
            files: out.files,
            dirs: out.dirs,
            blocks: out.data_blocks,
            tape_bytes: out.tape_bytes,
            retries: after.retries - before.retries,
            degraded: after.degraded_reads > before.degraded_reads,
        })
    }

    fn restore(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError> {
        let before = FaultCounters::read();
        let out = crate::logical::restore::restore(fs, media, &self.restore_target)
            .map_err(|e| BackupError::from(e).during("logical restore"))?;
        let after = FaultCounters::read();
        let tape_bytes = out.profiler.total_tape_bytes();
        Ok(Outcome {
            profiler: out.profiler,
            files: out.files,
            dirs: out.dirs,
            blocks: out.data_blocks,
            tape_bytes,
            retries: after.retries - before.retries,
            degraded: after.degraded_reads > before.degraded_reads,
        })
    }
}

/// The physical (block-image) strategy: streams allocated blocks through
/// the RAID bypass, snapshots included.
#[derive(Debug)]
pub struct PhysicalEngine {
    snapshot_name: String,
}

impl PhysicalEngine {
    /// An engine anchoring its dumps to snapshot `snapshot_name`.
    pub fn new(snapshot_name: impl Into<String>) -> PhysicalEngine {
        PhysicalEngine {
            snapshot_name: snapshot_name.into(),
        }
    }
}

impl Default for PhysicalEngine {
    fn default() -> PhysicalEngine {
        PhysicalEngine::new("image.base")
    }
}

impl BackupEngine for PhysicalEngine {
    fn name(&self) -> &'static str {
        "physical"
    }

    fn plan(&self, fs: &Wafl) -> BackupPlan {
        let blkmap = fs.blkmap();
        let blocks = blkmap.nblocks() - blkmap.count_free();
        BackupPlan {
            strategy: "physical",
            level: 0,
            subtree: "/".into(),
            stages: vec!["creating snapshot", "dumping blocks"],
            estimated_blocks: blocks,
            estimated_bytes: blocks * blockdev::BLOCK_SIZE as u64,
        }
    }

    fn dump(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError> {
        let before = FaultCounters::read();
        let out = crate::physical::dump::image_dump_full(fs, media, &self.snapshot_name)
            .map_err(|e| BackupError::from(e).during("image dump"))?;
        let after = FaultCounters::read();
        Ok(Outcome {
            profiler: out.profiler,
            files: 0,
            dirs: 0,
            blocks: out.blocks,
            tape_bytes: out.tape_bytes,
            retries: after.retries - before.retries,
            degraded: after.degraded_reads > before.degraded_reads,
        })
    }

    fn restore(&mut self, fs: &mut Wafl, media: &mut dyn Media) -> Result<Outcome, BackupError> {
        let meter = fs.meter();
        let costs = *fs.costs();
        let before = FaultCounters::read();
        let out = crate::physical::restore::image_restore(media, fs.volume_mut(), &meter, &costs)
            .map_err(|e| BackupError::from(e).during("image restore"))?;
        let after = FaultCounters::read();
        let tape_bytes = out.profiler.total_tape_bytes();
        Ok(Outcome {
            profiler: out.profiler,
            files: 0,
            dirs: 0,
            blocks: out.blocks,
            tape_bytes,
            retries: after.retries - before.retries,
            degraded: after.degraded_reads > before.degraded_reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_operation_context() {
        let e = BackupError::from(DumpError::BadStream {
            reason: "empty tape".into(),
        })
        .during("logical restore");
        assert_eq!(e.op, "logical restore");
        assert!(matches!(e.kind, BackupErrorKind::Logical(_)));
        assert_eq!(
            e.to_string(),
            "logical restore failed: bad dump stream: empty tape"
        );
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn media_errors_convert() {
        let e = BackupError::from(MediaError::EndOfData);
        assert!(matches!(e.kind, BackupErrorKind::Media(_)));
        assert_eq!(e.op, "backup");
    }

    #[test]
    fn exhausted_retries_surface_as_their_own_kind() {
        let e = BackupError::from(MediaError::Exhausted {
            attempts: 4,
            last: Box::new(MediaError::Offline),
        })
        .during("logical dump");
        assert!(matches!(
            e.kind,
            BackupErrorKind::Exhausted { attempts: 4, .. }
        ));
        // Exhaustion is the retry layer giving up: permanent by definition.
        assert!(!e.is_transient());
        assert!(e.to_string().contains("after 4 attempts"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn unrecoverable_raid_errors_surface_as_degraded() {
        let e = BackupError::from(crate::physical::format::ImageError::Raid(
            RaidError::TooManyFailures { group: 0 },
        ));
        assert!(matches!(e.kind, BackupErrorKind::Degraded(_)));
        assert!(!e.is_transient());
    }

    #[test]
    fn transient_classification_lifts_through_the_engine_error() {
        let soft = BackupError::from(MediaError::Soft { index: 7 });
        assert!(soft.is_transient());
        let hard = BackupError::from(MediaError::Hard { index: 7 });
        assert!(!hard.is_transient());
    }
}
