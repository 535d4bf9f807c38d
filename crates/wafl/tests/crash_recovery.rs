//! Crash-consistency tests: the paper's §2.2 story.
//!
//! "When the filer restarts after a system failure or power loss, it
//! replays any NFS requests in the NVRAM that have not reached disk" — and
//! even mid-consistency-point crashes leave a self-consistent image (no
//! fsck).

use blockdev::Block;
use blockdev::DiskPerf;
use raid::Volume;
use raid::VolumeGeometry;
use simkit::meter::Meter;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;
use workload::crash::reboot;
use workload::crash::Nvram;

fn volume() -> Volume {
    Volume::new(VolumeGeometry::uniform(2, 4, 2048, DiskPerf::ideal()))
}

/// Every remount must yield a fully consistent image (no fsck, ever):
/// the shared harness's reboot refuses anything else.
fn remount(fs: Wafl) -> Wafl {
    reboot(fs, Nvram::Replayed).expect("remount after crash")
}

#[test]
fn clean_state_survives_remount() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let d = fs
        .create(INO_ROOT, "docs", FileType::Dir, Attrs::default())
        .unwrap();
    let f = fs
        .create(d, "paper.tex", FileType::File, Attrs::default())
        .unwrap();
    for i in 0..40 {
        fs.write_fbn(f, i, Block::Synthetic(i * 11)).unwrap();
    }
    fs.set_attrs(
        f,
        Attrs {
            perm: 0o640,
            uid: 7,
            dos_name: Some("PAPER~1.TEX".into()),
            nt_acl: Some(vec![9, 9, 9]),
            ..Attrs::default()
        },
    )
    .unwrap();
    fs.cp().unwrap();

    let mut fs = remount(fs);
    let f2 = fs.namei("/docs/paper.tex").unwrap();
    assert_eq!(f2, f);
    let st = fs.stat(f2).unwrap();
    assert_eq!(st.size, 40 * 4096);
    assert_eq!(st.attrs.perm, 0o640);
    assert_eq!(st.attrs.dos_name.as_deref(), Some("PAPER~1.TEX"));
    assert_eq!(st.attrs.nt_acl, Some(vec![9, 9, 9]));
    for i in 0..40 {
        assert!(fs
            .read_fbn(f2, i)
            .unwrap()
            .same_content(&Block::Synthetic(i * 11)));
    }
}

#[test]
fn nvram_replay_recovers_ops_since_last_cp() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let f = fs
        .create(INO_ROOT, "base", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
    fs.cp().unwrap();

    // Operations after the CP live only in NVRAM.
    let g = fs
        .create(INO_ROOT, "fresh", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(g, 0, Block::Synthetic(2)).unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(3)).unwrap();
    fs.remove(INO_ROOT, "base").unwrap();
    assert!(!fs.nvram().is_empty());

    // Crash without a CP; everything above must come back via replay.
    let mut fs = remount(fs);
    assert!(fs.namei("/base").is_err(), "remove must be replayed");
    let g2 = fs.namei("/fresh").unwrap();
    assert!(fs
        .read_fbn(g2, 0)
        .unwrap()
        .same_content(&Block::Synthetic(2)));
    assert!(fs.nvram().is_empty(), "replay ends with a commit");
}

#[test]
fn crash_without_nvram_loses_recent_ops_but_stays_consistent() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let f = fs
        .create(INO_ROOT, "durable", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
    fs.cp().unwrap();
    fs.create(INO_ROOT, "volatile", FileType::File, Attrs::default())
        .unwrap();

    // Simulate NVRAM loss: drop the log entirely (paper: "the only damage
    // is that a few seconds worth of NFS operations may be lost").
    let (vol, mut nv) = fs.crash();
    nv.drain_for_replay();
    let fs = Wafl::mount(
        vol,
        nv,
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )
    .unwrap();
    assert!(fs.namei("/durable").is_ok());
    assert!(fs.namei("/volatile").is_err());
}

#[test]
fn crash_mid_cp_falls_back_to_previous_cp() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let f = fs
        .create(INO_ROOT, "steady", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(10)).unwrap();
    fs.cp().unwrap();
    let committed_cp = fs.cp_count();

    // More work, then a CP that dies before the fsinfo write: all the new
    // metadata blocks are on disk, but the commit record never lands.
    let g = fs
        .create(INO_ROOT, "in-flight", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(g, 0, Block::Synthetic(20)).unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(11)).unwrap();
    fs.cp_without_fsinfo().unwrap();

    let (vol, mut nv) = fs.crash();
    // NVRAM also lost, to prove the *disk image alone* is consistent.
    nv.drain_for_replay();
    let mut fs = Wafl::mount(
        vol,
        nv,
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )
    .unwrap();
    assert_eq!(
        fs.cp_count(),
        committed_cp,
        "the torn CP must be invisible; the last committed CP wins"
    );
    assert!(fs.namei("/in-flight").is_err());
    let f2 = fs.namei("/steady").unwrap();
    assert!(
        fs.read_fbn(f2, 0)
            .unwrap()
            .same_content(&Block::Synthetic(10)),
        "must see the pre-CP content, not the torn write"
    );
}

#[test]
fn snapshots_survive_crash_and_remount() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let f = fs
        .create(INO_ROOT, "f", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
    let id = fs.snapshot_create("nightly.0").unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(2)).unwrap();
    fs.cp().unwrap();

    let mut fs = remount(fs);
    assert_eq!(fs.snapshots().len(), 1);
    assert_eq!(fs.snapshot_by_name("nightly.0").unwrap().id, id);
    let mut view = fs.snap_view(id).unwrap();
    let ino = view.namei("/f").unwrap();
    let di = view.read_inode(ino).unwrap().unwrap();
    let slots = view.file_slots(&di).unwrap();
    assert!(view
        .read_file_block(&slots, 0)
        .unwrap()
        .same_content(&Block::Synthetic(1)));
}

#[test]
fn repeated_crashes_are_idempotent() {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    for round in 0..5u64 {
        let name = format!("round{round}");
        let f = fs
            .create(INO_ROOT, &name, FileType::File, Attrs::default())
            .unwrap();
        fs.write_fbn(f, 0, Block::Synthetic(round)).unwrap();
        fs = remount(fs);
    }
    for round in 0..5u64 {
        let ino = fs.namei(&format!("/round{round}")).unwrap();
        assert!(fs
            .read_fbn(ino, 0)
            .unwrap()
            .same_content(&Block::Synthetic(round)));
    }
}

#[test]
fn auto_cp_triggers_at_nvram_watermark() {
    // A tiny NVRAM forces frequent consistency points during a write burst.
    let cfg = WaflConfig {
        nvram_bytes: 64 * 1024,
        auto_cp_on_watermark: true,
    };
    let mut fs = Wafl::format(volume(), cfg).unwrap();
    let before = fs.cp_count();
    let f = fs
        .create(INO_ROOT, "burst", FileType::File, Attrs::default())
        .unwrap();
    for i in 0..64 {
        fs.write_fbn(f, i, Block::Synthetic(i)).unwrap();
    }
    assert!(
        fs.cp_count() > before + 2,
        "expected several automatic CPs, got {}",
        fs.cp_count() - before
    );
    // And the data is all there after a crash even with a tiny log.
    let (vol, nv) = fs.crash();
    let mut fs = Wafl::mount(
        vol,
        nv,
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )
    .unwrap();
    let f2 = fs.namei("/burst").unwrap();
    for i in 0..64 {
        assert!(fs
            .read_fbn(f2, i)
            .unwrap()
            .same_content(&Block::Synthetic(i)));
    }
}

#[test]
fn mount_rejects_garbage_volume() {
    let vol = volume();
    let result = Wafl::mount(
        vol,
        nvram::NvramLog::new(1024),
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    );
    match result {
        Err(wafl::WaflError::BadImage { .. }) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("garbage volume must not mount"),
    }
}

/// Sets up the canonical armed-crash scenario: a committed "pre" file,
/// then an uncommitted "post" delta sitting in NVRAM.
fn pre_post_fs() -> wafl::Wafl {
    let mut fs = Wafl::format(volume(), WaflConfig::default()).unwrap();
    let f = fs
        .create(INO_ROOT, "pre", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(f, 0, Block::Synthetic(1)).unwrap();
    fs.cp().unwrap();
    let g = fs
        .create(INO_ROOT, "post", FileType::File, Attrs::default())
        .unwrap();
    fs.write_fbn(g, 0, Block::Synthetic(2)).unwrap();
    fs
}

/// Mounts the on-disk image alone (NVRAM contents discarded) — the disk
/// image must stand on its own at every crash depth.
fn mount_image_only(fs: wafl::Wafl) -> wafl::Wafl {
    reboot(fs, Nvram::Lost).expect("image-only mount")
}

/// A power loss at *every* enumerated depth inside the consistency point
/// (after dirty-data flush, after the inode-file rewrite, just before the
/// fsinfo commit, and between the two fsinfo copies): the disk image
/// alone must mount to exactly the pre-CP state or exactly the post-CP
/// state — never a blend.
#[test]
fn armed_crash_at_every_cp_depth_leaves_pre_or_post_image() {
    use simkit::crash::{self, CrashPlan, CrashPoint};

    for depth in 1..=4u64 {
        let mut fs = pre_post_fs();
        let committed_cp = fs.cp_count();

        crash::arm(CrashPlan::new().trip_at(CrashPoint::CpCommit, depth));
        match fs.cp() {
            Err(wafl::WaflError::PowerLoss { point }) => {
                assert_eq!(point, CrashPoint::CpCommit)
            }
            other => panic!("depth {depth}: expected power loss, got {other:?}"),
        }
        assert_eq!(crash::tripped(), Some(CrashPoint::CpCommit));

        let mut fs = mount_image_only(fs);
        let pre_ino = fs.namei("/pre").expect("committed file must survive");
        assert!(fs
            .read_fbn(pre_ino, 0)
            .unwrap()
            .same_content(&Block::Synthetic(1)));
        match fs.namei("/post") {
            // Pre-CP image: the torn CP is invisible in full.
            Err(_) => assert_eq!(
                fs.cp_count(),
                committed_cp,
                "depth {depth}: pre-CP image must carry the old cp_count"
            ),
            // Post-CP image (a torn fsinfo pair still holds one valid
            // copy of the *new* fsinfo): the delta is visible in full.
            Ok(post_ino) => {
                assert!(
                    fs.cp_count() > committed_cp,
                    "depth {depth}: post-CP image must carry the new cp_count"
                );
                assert!(fs
                    .read_fbn(post_ino, 0)
                    .unwrap()
                    .same_content(&Block::Synthetic(2)));
            }
        }
    }
}

/// Depths 1–3 die before any fsinfo write, so the image-only mount must
/// be exactly pre-CP; with NVRAM intact the same crash must recover to
/// exactly post-op state via replay.
#[test]
fn early_cp_depths_are_pre_cp_on_disk_but_replay_to_post_op() {
    use simkit::crash::{self, CrashPlan, CrashPoint};

    for depth in 1..=3u64 {
        // Disk image alone: pre-CP.
        let mut fs = pre_post_fs();
        let committed_cp = fs.cp_count();
        crash::arm(CrashPlan::new().trip_at(CrashPoint::CpCommit, depth));
        assert!(fs.cp().is_err());
        let fs = mount_image_only(fs);
        assert_eq!(fs.cp_count(), committed_cp, "depth {depth}");
        assert!(fs.namei("/post").is_err(), "depth {depth}");

        // NVRAM intact: replay restores the in-flight delta.
        let mut fs = pre_post_fs();
        crash::arm(CrashPlan::new().trip_at(CrashPoint::CpCommit, depth));
        assert!(fs.cp().is_err());
        crash::disarm();
        let mut fs = remount(fs);
        let post = fs.namei("/post").expect("replay must restore the delta");
        assert!(fs
            .read_fbn(post, 0)
            .unwrap()
            .same_content(&Block::Synthetic(2)));
        assert!(fs.nvram().is_empty(), "replay ends with a commit");
    }
}

/// A power loss during the NVRAM flush itself (fsinfo already committed,
/// log never cleared): the log still holds already-applied ops, and the
/// replay must be idempotent — same final state, no duplicated effects.
#[test]
fn crash_during_nvram_flush_replays_idempotently() {
    use simkit::crash::{self, CrashPlan, CrashPoint};

    let mut fs = pre_post_fs();
    let committed_cp = fs.cp_count();
    crash::arm(CrashPlan::new().trip_at(CrashPoint::NvramFlush, 1));
    match fs.cp() {
        Err(wafl::WaflError::PowerLoss { point }) => assert_eq!(point, CrashPoint::NvramFlush),
        other => panic!("expected power loss in the flush, got {other:?}"),
    }
    crash::disarm();

    // The CP itself landed: the on-disk image is already post-CP.
    assert!(
        !fs.nvram().is_empty(),
        "the log must survive a failed flush"
    );
    let mut fs = remount(fs);
    assert!(fs.cp_count() > committed_cp);
    let post = fs.namei("/post").unwrap();
    assert!(fs
        .read_fbn(post, 0)
        .unwrap()
        .same_content(&Block::Synthetic(2)));
    let pre = fs.namei("/pre").unwrap();
    assert!(fs
        .read_fbn(pre, 0)
        .unwrap()
        .same_content(&Block::Synthetic(1)));
    assert!(fs.nvram().is_empty(), "recovery ends with a committed log");
}
