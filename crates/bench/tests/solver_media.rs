//! The one solver entry, pinned per medium against the two solvers it
//! replaced: `simulate_on(Medium::Tape, ..)` must reproduce what
//! `simulate_op` returned before the merge, and `Medium::Link` what its
//! separate network twin returned, field for field — rows, windows,
//! utilization timelines, attribution and makespan.
//!
//! The golden files are the pretty `Debug` rendering of the `SimOp`s the
//! pre-merge functions produced for this fixture (`f64`'s `Debug` is the
//! shortest round-trip form, so equal text means equal bits).

use backup_core::report::StageProfile;
use bench::calibrate::FilerModel;
use bench::calibrate::OpKind;
use bench::experiments::simulate_on;
use bench::experiments::simulate_op;
use bench::experiments::Medium;

/// Three restore streams of unequal length: two run both stages, one only
/// fills, so streams contend in mixed stages and finish at different
/// times on either medium.
fn fixture() -> Vec<Vec<StageProfile>> {
    let create = |files: u64, cpu: f64| StageProfile {
        name: "creating files".into(),
        files,
        dirs: 25_000,
        cpu_secs: cpu,
        tape_bytes: 10 << 20,
        disk_rand_write: files * 4096,
        ..StageProfile::default()
    };
    let fill = |blocks: u64, cpu: f64| StageProfile {
        name: "filling in data".into(),
        blocks,
        cpu_secs: cpu,
        tape_bytes: blocks * 4096,
        disk_seq_write: blocks * 4096,
        ..StageProfile::default()
    };
    vec![
        vec![create(571_250, 385.0), fill(13_000_000, 2388.0)],
        vec![create(300_000, 200.0), fill(9_000_000, 1650.0)],
        vec![fill(4_000_000, 700.0)],
    ]
}

fn solve(medium: Medium) -> String {
    let sim = simulate_on(
        medium,
        "Logical Restore",
        &fixture(),
        31.0,
        OpKind::LogicalRestore,
        &FilerModel::f630(),
    );
    format!("{sim:#?}\n")
}

#[test]
fn private_drives_reproduce_the_tape_solver() {
    assert_eq!(solve(Medium::Tape), include_str!("golden/simop_tape.txt"));
    // One private drive per stream.
    assert!(solve(Medium::Tape).contains("\"tape2\""));
}

#[test]
fn a_shared_link_reproduces_the_net_solver() {
    let link = solve(Medium::Link(net::LinkSpec::mbit100()));
    assert_eq!(link, include_str!("golden/simop_link.txt"));
    // All three streams on the one wire, and no drive anywhere.
    assert!(link.contains("\"net\"") && !link.contains("\"tape0\""));
}

#[test]
fn the_five_argument_form_is_the_tape_medium() {
    let sim = simulate_op(
        "Logical Restore",
        &fixture(),
        31.0,
        OpKind::LogicalRestore,
        &FilerModel::f630(),
    );
    assert_eq!(format!("{sim:#?}\n"), solve(Medium::Tape));
}
