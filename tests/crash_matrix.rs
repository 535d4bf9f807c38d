//! The recovery property matrix: every enumerated crash point × both
//! backup engines × a spread of seeds.
//!
//! The contract under test (DESIGN.md "The crash model"):
//!
//! 1. **Atomicity** — after a power loss at any crash point and a reboot
//!    (NVRAM replay + `wafl::check`), the recovered file system equals
//!    *exactly* the state with `k` acknowledged operations or the state
//!    with `k + 1` — never anything in between and never a corrupt image.
//! 2. **Restartability** — a dump interrupted at any point and resumed
//!    from its `NvScratch` checkpoint produces a stream *byte-identical*
//!    to an uninterrupted dump of the same file system, and that stream
//!    restores to an exact copy of the source.
//! 3. **Determinism** — rerunning any cell with the same seed trips the
//!    same point at the same hit count and recovers to the same state.
//!
//! Interrupted restores recover by rerunning (the paper's footnote 2: an
//! interrupted restore just restarts), and `Mirror::sync_via` converges
//! by rerunning the whole sync after a mid-transfer power loss.

use net::LinkSpec;
use net::NetTarget;
use wafl_backup::backup_core::verify::compare_used_blocks;
use wafl_backup::prelude::*;
use wafl_backup::simkit::crash;
use wafl_backup::simkit::crash::CrashPlan;
use wafl_backup::simkit::crash::CrashPoint;
use wafl_backup::simkit::media::MediaError;
use wafl_backup::simkit::media::Record;
use wafl_backup::simkit::rng::SimRng;
use wafl_backup::wafl::error::WaflError;
use wafl_backup::workload::crash as harness;
use wafl_backup::workload::crash::Mutation;
use wafl_backup::workload::crash::Nvram;
use wafl_backup::workload::crash::Shape;

const SEEDS: u64 = 8;

/// This matrix's scenario on the shared crash harness.
const SHAPE: Shape = Shape {
    files: 12,
    extra_blocks: 5,
    big_blocks: 20,
    ops: 24,
    cp_every: 6,
    mix: &[
        Mutation::Overwrite,
        Mutation::Create,
        Mutation::SetAttrs,
        Mutation::Extend,
    ],
};

/// Which backup engine a matrix cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Image,
    Logical,
}

impl EngineKind {
    const BOTH: [EngineKind; 2] = [EngineKind::Image, EngineKind::Logical];

    fn name(self) -> &'static str {
        match self {
            EngineKind::Image => "image",
            EngineKind::Logical => "logical",
        }
    }
}

fn tape() -> TapeDrive {
    TapeDrive::new(TapePerf::ideal(), 1 << 30)
}

/// Per-cell RNG stream, disjoint across (seed, point, engine).
fn cell_rng(seed: u64, point: CrashPoint, kind: EngineKind) -> SimRng {
    let tag = (point.name().len() as u64) << 8 | kind.name().len() as u64;
    SimRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
}

/// The state after exactly `nops` acknowledged operations, committed.
fn reference_state(seed: u64, nops: usize) -> Wafl {
    harness::state_after(&SHAPE, seed, nops).expect("reference state")
}

/// The fully mutated state every dump/restore cell starts from.
fn finished_state(seed: u64) -> Wafl {
    reference_state(seed, SHAPE.ops)
}

/// Reboots a crashed filer with its NVRAM intact; the harness refuses an
/// image that fails the invariant check.
fn reboot(fs: Wafl) -> Wafl {
    harness::reboot(fs, Nvram::Replayed).expect("clean reboot after power loss")
}

/// Reads a whole stream back as records (framing included).
fn stream_records(media: &mut dyn Media) -> Vec<Record> {
    media.rewind();
    let mut out = Vec::new();
    loop {
        match media.read_record() {
            Ok(r) => out.push(r),
            Err(MediaError::EndOfData) => break,
            Err(e) => panic!("stream read failed: {e}"),
        }
    }
    out
}

/// Restartability clause: the resumed stream must be byte-identical to an
/// uninterrupted dump of the same (seeded) file system.
fn assert_stream_matches_uninterrupted(media: &mut dyn Media, reference: &mut dyn Media) {
    let resumed = stream_records(media);
    let uninterrupted = stream_records(reference);
    assert_eq!(
        resumed.len(),
        uninterrupted.len(),
        "resumed stream has a different record count than an uninterrupted dump"
    );
    for (i, (a, b)) in resumed.iter().zip(&uninterrupted).enumerate() {
        assert_eq!(a, b, "record {i} differs from the uninterrupted dump");
    }
}

/// Image-engine ground truth: the stream restores onto a raw volume that
/// carries every used block of the source, bit for bit.
fn assert_image_restores_exactly(fs: &mut Wafl, media: &mut dyn Media) -> u64 {
    let mut raw = Volume::new(harness::geometry());
    let meter = Meter::new_shared();
    let out = image_restore(media, &mut raw, &meter, &CostModel::zero()).expect("image restore");
    let diffs = compare_used_blocks(fs, &mut raw).expect("block compare");
    assert!(
        diffs.is_empty(),
        "restored volume differs at blocks {diffs:?}"
    );
    out.blocks
}

/// Logical-engine ground truth: the stream restores into a fresh file
/// system whose tree (names, attrs, data, links) matches the source.
fn assert_logical_restores_exactly(fs: &mut Wafl, media: &mut dyn Media) -> u64 {
    let mut fs2 =
        Wafl::format(Volume::new(harness::geometry()), WaflConfig::default()).expect("format");
    let out = restore(&mut fs2, media, "/").expect("logical restore");
    let diffs = compare_trees(fs, &mut fs2).expect("tree compare");
    assert!(diffs.is_empty(), "restored tree differs: {diffs:?}");
    out.files
}

/// Uninterrupted dump+restore round trip — used after mutation-phase
/// crashes to show the recovered filer is fully backupable.
fn verify_roundtrip(fs: &mut Wafl, kind: EngineKind) {
    let mut media = tape();
    match kind {
        EngineKind::Image => {
            image_dump_full(fs, &mut media, "post-crash").expect("image dump");
            assert_image_restores_exactly(fs, &mut media);
        }
        EngineKind::Logical => {
            let mut catalog = DumpCatalog::new();
            dump(fs, &mut media, &mut catalog, &DumpOptions::default()).expect("logical dump");
            assert_logical_restores_exactly(fs, &mut media);
        }
    }
}

// ---------------------------------------------------------------------------
// Cell drivers: one per crash-point class.
// ---------------------------------------------------------------------------

/// CpCommit / NvramFlush: power loss while the filer is absorbing a
/// seeded mutation stream. Checks the atomicity clause, then that the
/// recovered filer still backs up cleanly under `kind`.
fn mutation_cell(point: CrashPoint, kind: EngineKind, seed: u64) -> String {
    let mut rng = cell_rng(seed, point, kind);
    let plan = match point {
        CrashPoint::CpCommit => CrashPlan::new().trip_within(CrashPoint::CpCommit, 16, &mut rng),
        CrashPoint::NvramFlush => CrashPlan::new().trip_within(CrashPoint::NvramFlush, 4, &mut rng),
        other => panic!("not a mutation-phase point: {other}"),
    };

    let mut fs = harness::base(&SHAPE, seed).expect("base");
    crash::arm(plan);
    let mut k = 0usize;
    let res = harness::mutate(&mut fs, &SHAPE, seed, SHAPE.ops, &mut k);
    assert!(
        matches!(res, Err(WaflError::PowerLoss { .. })),
        "armed mutation run must die of power loss, got {res:?}"
    );
    assert_eq!(crash::tripped(), Some(point), "wrong point tripped");
    let hits = crash::hits(point);

    let mut fs = reboot(fs);

    // Atomicity: recovered state is exactly state_k (all acked ops) or
    // state_{k+1} (the in-flight op was already logged before the trip).
    let mut ref_k = reference_state(seed, k);
    let matched = if compare_trees(&mut fs, &mut ref_k)
        .expect("compare vs state_k")
        .is_empty()
    {
        "pre-op"
    } else {
        let mut ref_k1 = reference_state(seed, (k + 1).min(SHAPE.ops));
        let diffs = compare_trees(&mut fs, &mut ref_k1).expect("compare vs state_k+1");
        assert!(
            diffs.is_empty(),
            "{point}/{} seed {seed}: recovered state is neither state_{k} \
             nor state_{}: {diffs:?}",
            kind.name(),
            k + 1
        );
        "post-op"
    };

    verify_roundtrip(&mut fs, kind);
    format!(
        "{point}/{} seed={seed} k={k} hits={hits} matched={matched}",
        kind.name()
    )
}

/// How many hits to let through before tripping a dump-phase point.
///
/// Lower bounds guarantee the first NVRAM checkpoint is already stored
/// when the power fails, so the second attempt resumes instead of
/// colliding with the first attempt's snapshot — the scenario a fresh
/// restart (operator wipes media + snapshot) would cover instead.
fn dump_trip_nth(point: CrashPoint, rng: &mut SimRng) -> u64 {
    match point {
        // Records stream after a header; checkpoints land every 2 records.
        CrashPoint::DumpRecord => 3 + rng.range(0, 4),
        // Fire n=1 precedes the very first checkpoint store.
        CrashPoint::DumpCheckpoint => 2 + rng.range(0, 2),
        // Sends: header records first, first checkpoint after send 3.
        CrashPoint::NetTransfer => 4 + rng.range(0, 4),
        other => panic!("not a dump-phase point: {other}"),
    }
}

/// DumpRecord / DumpCheckpoint / NetTransfer: power loss mid-dump. The
/// filer reboots, the NvScratch checkpoint survives, and the resumed run
/// completes a stream byte-identical to an uninterrupted dump.
fn dump_cell(point: CrashPoint, kind: EngineKind, seed: u64) -> String {
    let mut rng = cell_rng(seed, point, kind);
    let nth = dump_trip_nth(point, &mut rng);
    let over_net = point == CrashPoint::NetTransfer;

    let mut fs = finished_state(seed);
    let mut media: Box<dyn Media> = if over_net {
        Box::new(NetTarget::new(LinkSpec::gbit1()))
    } else {
        Box::new(tape())
    };
    let mut scratch = NvScratch::new();
    let mut catalog = DumpCatalog::new();

    crash::arm(CrashPlan::new().trip_at(point, nth));
    match kind {
        EngineKind::Image => {
            let job = RestartableImageDump::new("m").checkpoint_every(2);
            let err = job.run(&mut fs, &mut media, &mut scratch);
            assert!(err.is_err(), "armed image dump must fail, got {err:?}");
            assert_eq!(crash::tripped(), Some(point), "wrong point tripped");

            let mut fs = reboot(fs);
            let out = job
                .run(&mut fs, &mut media, &mut scratch)
                .expect("resumed image dump");
            assert!(out.resumed, "second attempt must resume from NVRAM");

            let mut ref_fs = finished_state(seed);
            let mut ref_media = tape();
            let mut ref_scratch = NvScratch::new();
            job.run(&mut ref_fs, &mut ref_media, &mut ref_scratch)
                .expect("reference image dump");
            assert_stream_matches_uninterrupted(&mut media, &mut ref_media);

            let blocks = assert_image_restores_exactly(&mut fs, &mut media);
            format!(
                "{point}/image seed={seed} nth={nth} records={} blocks={blocks}",
                media.total_records()
            )
        }
        EngineKind::Logical => {
            let job = RestartableLogicalDump::new(DumpOptions::default()).checkpoint_every(2);
            let err = job.run(&mut fs, &mut media, &mut catalog, &mut scratch);
            assert!(err.is_err(), "armed logical dump must fail, got {err:?}");
            assert_eq!(crash::tripped(), Some(point), "wrong point tripped");

            let mut fs = reboot(fs);
            job.run(&mut fs, &mut media, &mut catalog, &mut scratch)
                .expect("resumed logical dump");

            let mut ref_fs = finished_state(seed);
            let mut ref_media = tape();
            let mut ref_scratch = NvScratch::new();
            let mut ref_catalog = DumpCatalog::new();
            job.run(
                &mut ref_fs,
                &mut ref_media,
                &mut ref_catalog,
                &mut ref_scratch,
            )
            .expect("reference logical dump");
            assert_stream_matches_uninterrupted(&mut media, &mut ref_media);

            let files = assert_logical_restores_exactly(&mut fs, &mut media);
            format!(
                "{point}/logical seed={seed} nth={nth} records={} files={files}",
                media.total_records()
            )
        }
    }
}

/// Restore: power loss mid-restore. Recovery is rerunning the restore
/// (paper footnote 2) — onto the same raw volume for the image engine,
/// into the rebooted target filer for the logical engine.
fn restore_cell(kind: EngineKind, seed: u64) -> String {
    let mut rng = cell_rng(seed, CrashPoint::Restore, kind);
    let mut fs = finished_state(seed);
    let mut media = tape();
    match kind {
        EngineKind::Image => {
            image_dump_full(&mut fs, &mut media, "m").expect("image dump");
            let nth = 1 + rng.range(0, 6);
            let mut raw = Volume::new(harness::geometry());
            let meter = Meter::new_shared();
            crash::arm(CrashPlan::new().trip_at(CrashPoint::Restore, nth));
            let err = image_restore(&mut media, &mut raw, &meter, &CostModel::zero());
            assert!(err.is_err(), "armed restore must fail, got {:?}", err.err());
            assert_eq!(crash::tripped(), Some(CrashPoint::Restore));
            crash::disarm();
            // Rerun the whole restore onto the partially written volume.
            let out = image_restore(&mut media, &mut raw, &meter, &CostModel::zero())
                .expect("restore rerun");
            let diffs = compare_used_blocks(&mut fs, &mut raw).expect("block compare");
            assert!(diffs.is_empty(), "rerun left differing blocks {diffs:?}");
            format!("restore/image seed={seed} nth={nth} blocks={}", out.blocks)
        }
        EngineKind::Logical => {
            let mut catalog = DumpCatalog::new();
            dump(&mut fs, &mut media, &mut catalog, &DumpOptions::default()).expect("logical dump");
            let nth = 1 + rng.range(0, 8);
            let mut fs2 = Wafl::format(Volume::new(harness::geometry()), WaflConfig::default())
                .expect("format");
            crash::arm(CrashPlan::new().trip_at(CrashPoint::Restore, nth));
            let err = restore(&mut fs2, &mut media, "/");
            assert!(err.is_err(), "armed restore must fail, got {:?}", err.err());
            assert_eq!(crash::tripped(), Some(CrashPoint::Restore));
            // Reboot the half-restored target filer, then restart the
            // restore: reconciliation converges on the dumped tree.
            let mut fs2 = reboot(fs2);
            let out = restore(&mut fs2, &mut media, "/").expect("restore rerun");
            let diffs = compare_trees(&mut fs, &mut fs2).expect("tree compare");
            assert!(diffs.is_empty(), "rerun left a differing tree: {diffs:?}");
            format!("restore/logical seed={seed} nth={nth} files={}", out.files)
        }
    }
}

/// One matrix cell, dispatched by point class.
fn run_cell(point: CrashPoint, kind: EngineKind, seed: u64) -> String {
    let summary = match point {
        CrashPoint::CpCommit | CrashPoint::NvramFlush => mutation_cell(point, kind, seed),
        CrashPoint::DumpRecord | CrashPoint::DumpCheckpoint | CrashPoint::NetTransfer => {
            dump_cell(point, kind, seed)
        }
        CrashPoint::Restore => restore_cell(kind, seed),
        other => panic!("unhandled crash point {other}"),
    };
    crash::disarm();
    summary
}

// ---------------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------------

#[test]
fn cp_commit_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::CpCommit, kind, seed);
        }
    }
}

#[test]
fn nvram_flush_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::NvramFlush, kind, seed);
        }
    }
}

#[test]
fn dump_checkpoint_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::DumpCheckpoint, kind, seed);
        }
    }
}

#[test]
fn dump_record_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::DumpRecord, kind, seed);
        }
    }
}

#[test]
fn restore_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::Restore, kind, seed);
        }
    }
}

#[test]
fn net_transfer_cells() {
    for seed in 0..SEEDS {
        for kind in EngineKind::BOTH {
            run_cell(CrashPoint::NetTransfer, kind, seed);
        }
    }
}

/// Determinism clause: every cell class, rerun with the same seed,
/// reports the identical summary (same trip, same hit counts, same
/// recovered shape). Iterating `CrashPoint::ALL` also pins the matrix to
/// the full enumeration — adding a point without a cell driver panics.
#[test]
fn replay_is_deterministic_per_seed() {
    for point in CrashPoint::ALL {
        for kind in EngineKind::BOTH {
            let first = run_cell(point, kind, 3);
            let second = run_cell(point, kind, 3);
            assert_eq!(first, second, "cell is not deterministic for {point}");
        }
    }
}

/// A mid-sync power loss on the replication channel: the next `sync_via`
/// call starts a fresh session (channel truncated, new anchor snapshot)
/// and converges on a bit-exact mirror.
#[test]
fn mirror_sync_recovers_from_net_crash() {
    for seed in 0..4 {
        let mut src = finished_state(seed);
        let mut dst = Volume::new(harness::geometry());
        let mut channel = NetTarget::new(LinkSpec::gbit1());
        let mut mirror = Mirror::new();
        let meter = Meter::new_shared();
        let mut rng = cell_rng(seed, CrashPoint::NetTransfer, EngineKind::Image);
        let nth = 2 + rng.range(0, 6);

        crash::arm(CrashPlan::new().trip_at(CrashPoint::NetTransfer, nth));
        let err = mirror.sync_via(&mut src, &mut dst, &meter, &CostModel::zero(), &mut channel);
        assert!(err.is_err(), "armed sync must fail, got {err:?}");
        assert_eq!(crash::tripped(), Some(CrashPoint::NetTransfer));
        crash::disarm();

        mirror
            .sync_via(&mut src, &mut dst, &meter, &CostModel::zero(), &mut channel)
            .expect("sync rerun");
        let diffs = compare_used_blocks(&mut src, &mut dst).expect("block compare");
        assert!(diffs.is_empty(), "mirror differs at blocks {diffs:?}");
    }
}

/// The crash subsystem surfaces its activity through `obs`: a trip bumps
/// `crash.trips` once (dead machines do not double-count), and the
/// recovering mount bumps `crash.replays` / `crash.replayed_ops`.
#[test]
fn crash_counters_surface_trips_and_replays() {
    let trips0 = obs::counter("crash.trips").get();
    let replays0 = obs::counter("crash.replays").get();
    let replayed0 = obs::counter("crash.replayed_ops").get();

    let mut fs = harness::base(&SHAPE, 7).expect("base");
    // Trip the very first consistency-point commit after arming: the ops
    // logged since the previous CP are in NVRAM and must be replayed.
    crash::arm(CrashPlan::new().trip_at(CrashPoint::CpCommit, 1));
    let mut k = 0usize;
    let res = harness::mutate(&mut fs, &SHAPE, 7, SHAPE.ops, &mut k);
    assert!(res.is_err());
    let fs = reboot(fs);
    drop(fs);

    assert_eq!(
        obs::counter("crash.trips").get(),
        trips0 + 1,
        "one power loss = one trip, even though later fires hit a dead machine"
    );
    assert_eq!(obs::counter("crash.replays").get(), replays0 + 1);
    assert!(
        obs::counter("crash.replayed_ops").get() >= replayed0 + SHAPE.cp_every as u64,
        "the ops logged before the tripped CP must all replay"
    );
}

/// Satellite regression: NvScratch checkpoint slots survive a *double*
/// crash — power loss during the resume of an already-crashed dump. The
/// third attempt still resumes from a live slot and completes a stream
/// byte-identical to an uninterrupted dump.
#[test]
fn nvscratch_slots_survive_double_crash() {
    for seed in 0..4u64 {
        for kind in EngineKind::BOTH {
            let mut rng = cell_rng(seed, CrashPoint::DumpRecord, kind);
            let nth1 = 3 + rng.range(0, 3);
            // Either re-trip before the resumed attempt checkpoints again
            // (attempt 3 reuses attempt 1's slot) or after (attempt 3 uses
            // attempt 2's newer slot) — both must recover.
            let nth2 = 1 + rng.range(0, 3);

            let mut fs = finished_state(seed);
            let mut media = tape();
            let mut scratch = NvScratch::new();
            let mut catalog = DumpCatalog::new();

            match kind {
                EngineKind::Image => {
                    let job = RestartableImageDump::new("m").checkpoint_every(2);
                    crash::arm(CrashPlan::new().trip_at(CrashPoint::DumpRecord, nth1));
                    assert!(job.run(&mut fs, &mut media, &mut scratch).is_err());
                    assert!(
                        scratch.load(job.scratch_key()).is_some(),
                        "first crash must leave a checkpoint slot"
                    );
                    let mut fs = reboot(fs);

                    crash::arm(CrashPlan::new().trip_at(CrashPoint::DumpRecord, nth2));
                    assert!(job.run(&mut fs, &mut media, &mut scratch).is_err());
                    assert!(
                        scratch.load(job.scratch_key()).is_some(),
                        "crash during resume must leave a checkpoint slot"
                    );
                    let mut fs = reboot(fs);

                    let out = job
                        .run(&mut fs, &mut media, &mut scratch)
                        .expect("third attempt completes");
                    assert!(out.resumed);
                    assert!(
                        scratch.load(job.scratch_key()).is_none(),
                        "a finished dump retires its slot"
                    );

                    let mut ref_fs = finished_state(seed);
                    let mut ref_media = tape();
                    let mut ref_scratch = NvScratch::new();
                    job.run(&mut ref_fs, &mut ref_media, &mut ref_scratch)
                        .expect("reference image dump");
                    assert_stream_matches_uninterrupted(&mut media, &mut ref_media);
                    assert_image_restores_exactly(&mut fs, &mut media);
                }
                EngineKind::Logical => {
                    let job =
                        RestartableLogicalDump::new(DumpOptions::default()).checkpoint_every(2);
                    let key = job.scratch_key();
                    crash::arm(CrashPlan::new().trip_at(CrashPoint::DumpRecord, nth1));
                    assert!(job
                        .run(&mut fs, &mut media, &mut catalog, &mut scratch)
                        .is_err());
                    assert!(
                        scratch.load(&key).is_some(),
                        "first crash must leave a checkpoint slot"
                    );
                    let mut fs = reboot(fs);

                    crash::arm(CrashPlan::new().trip_at(CrashPoint::DumpRecord, nth2));
                    assert!(job
                        .run(&mut fs, &mut media, &mut catalog, &mut scratch)
                        .is_err());
                    assert!(
                        scratch.load(&key).is_some(),
                        "crash during resume must leave a checkpoint slot"
                    );
                    let mut fs = reboot(fs);

                    job.run(&mut fs, &mut media, &mut catalog, &mut scratch)
                        .expect("third attempt completes");
                    assert!(
                        scratch.load(&key).is_none(),
                        "a finished dump retires its slot"
                    );

                    let mut ref_fs = finished_state(seed);
                    let mut ref_media = tape();
                    let mut ref_scratch = NvScratch::new();
                    let mut ref_catalog = DumpCatalog::new();
                    job.run(
                        &mut ref_fs,
                        &mut ref_media,
                        &mut ref_catalog,
                        &mut ref_scratch,
                    )
                    .expect("reference logical dump");
                    assert_stream_matches_uninterrupted(&mut media, &mut ref_media);
                    assert_logical_restores_exactly(&mut fs, &mut media);
                }
            }
            crash::disarm();
        }
    }
}
