//! Every experiment the `bench` CLI exposes: the [`EXPERIMENTS`]
//! registry, the table [`pipeline`] most of them select views from, and
//! the bodies of the rest.
//!
//! A runner executes its experiment, writes its artifacts under
//! `cfg.out_dir`, and **returns** its stdout text instead of printing it.
//! That inversion is what makes the parallel runner deterministic: jobs
//! run on fresh threads (virgin thread-local obs state, exactly like a
//! standalone process) and the harness prints the returned text in
//! submission order, so `--jobs N` output is byte-identical to serial.
//!
//! The one deliberate exception to "every job starts from nothing": the
//! pipeline jobs of one invocation share one [`Pass`] through
//! [`RunCfg::pass`]. Whichever of them runs first measures and solves on
//! its own fresh thread; the others only render and emit from the result,
//! which is immutable by then and carries that thread's obs snapshot
//! inside its assembled artifacts — so what they write is what they would
//! have written after rebuilding the volume themselves.

use std::fmt::Write as _;
use std::path::Path;
use std::path::PathBuf;
use std::sync::Arc;

use backup_core::engine::BackupEngine;
use backup_core::engine::LogicalEngine;
use backup_core::engine::PhysicalEngine;
use backup_core::logical::catalog::DumpCatalog;
use backup_core::logical::dump::dump;
use backup_core::logical::dump::DumpOptions;
use backup_core::logical::restore::restore as logical_restore;
use backup_core::physical::dump::image_dump_full;
use backup_core::physical::incremental::image_dump_incremental;
use backup_core::physical::restore::image_restore;
use backup_core::verify::compare_trees;
use backup_core::verify::compare_used_blocks;
use backup_core::RestartableImageDump;
use backup_core::RestartableLogicalDump;
use blockdev::Block;
use blockdev::DiskPerf;
use nvram::NvScratch;
use raid::Volume;
use raid::VolumeGeometry;
use simkit::faults::FaultSpec;
use simkit::media::Media;
use simkit::meter::Meter;
use simkit::prelude::FluidSim;
use simkit::prelude::SimRng;
use simkit::prelude::Stream;
use simkit::retry::RetryPolicy;
use simkit::units::fmt_duration;
use tape::FaultProxy;
use tape::RetryMedia;
use tape::TapeDrive;
use tape::TapePerf;
use wafl::blkmap::Table1State;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;
use workload::age::age;
use workload::age::AgingOptions;
use workload::churn::churn;
use workload::churn::ChurnOptions;
use workload::crash as harness;
use workload::crash::Mutation;
use workload::crash::Nvram;
use workload::crash::Shape;
use workload::frag::fragmentation;
use workload::populate::populate;
use workload::profile::VolumeProfile;

use crate::build::build_home;
use crate::build::build_rlse;
use crate::calibrate::stage_to_fluid;
use crate::calibrate::FilerModel;
use crate::calibrate::OpKind;
use crate::calibrate::ResourceIds;
use crate::experiments::prepare;
use crate::experiments::run_basic;
use crate::experiments::run_net;
use crate::experiments::run_parallel;
use crate::experiments::run_scaling;
use crate::experiments::simulate_op;
use crate::experiments::BasicResults;
use crate::experiments::NetResults;
use crate::experiments::ParallelResults;
use crate::experiments::ScalePoint;
use crate::explain::Reports;
use crate::obsout;
use crate::pool::OnceMap;
use crate::tables::render_parallel_summary;
use crate::tables::render_scaling;
use crate::tables::render_stage_table;
use crate::tables::render_table2;
use crate::tables::PAPER_TABLE3;
use crate::tables::PAPER_TABLE4;
use crate::tables::PAPER_TABLE5;

/// The knobs an experiment run takes. Every experiment reads the ones
/// it has a use for: `table1` and `crash` run fixed tiny volumes and
/// ignore `scale`; only `chaos` opens a target or reads a fault spec.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Fraction of the paper's 188 GB (1.0 = full size).
    pub scale: f64,
    /// Workload (and fault / crash-plan) seed.
    pub seed: u64,
    /// Where artifacts land (`results` by default).
    pub out_dir: PathBuf,
    /// Optional TOML fault-spec override (`--spec`).
    pub spec_path: Option<String>,
    /// The medium faults are injected in front of (`--target`).
    pub target: backup_core::Target,
    /// The measured passes the pipeline jobs of this invocation share:
    /// clones of one `RunCfg` (and configurations built around the same
    /// `Arc`) measure each `(scale, seed, traced)` once between them.
    pub pass: Arc<PassCell>,
}

impl RunCfg {
    /// A run at `scale` and `seed` writing under `out_dir`, against tape,
    /// with no fault-spec override and passes of its own.
    pub fn new(scale: f64, seed: u64, out_dir: &Path) -> RunCfg {
        RunCfg {
            scale,
            seed,
            out_dir: out_dir.to_path_buf(),
            spec_path: None,
            target: backup_core::Target::default(),
            pass: Arc::default(),
        }
    }
}

/// One experiment the `bench` command line offers. [`EXPERIMENTS`] is the
/// only list of them: the CLI's dispatch, `bench all`, `bench explain`'s
/// targets and every usage message are read off it.
pub struct Experiment {
    /// Subcommand name (`bench <name>`).
    pub name: &'static str,
    /// Scale a standalone run uses when `--scale` is absent.
    pub scale: f64,
    /// Whether `bench all` runs it.
    pub in_all: bool,
    /// Whether its report is named after its seed (`chaos_seed7.txt`), so
    /// that `--seeds A,B,C` can fan it out without the runs colliding; the
    /// job label carries the seed too.
    pub per_seed: bool,
    /// The pipeline view `bench explain <name>` attributes, if it has one.
    pub explain: Option<View>,
    /// Runs it: writes artifacts under `cfg.out_dir`, returns its stdout.
    pub run: fn(&RunCfg) -> String,
}

impl Experiment {
    const fn new(name: &'static str, scale: f64, run: fn(&RunCfg) -> String) -> Experiment {
        Experiment {
            name,
            scale,
            in_all: false,
            per_seed: false,
            explain: None,
            run,
        }
    }

    const fn in_all(mut self) -> Experiment {
        self.in_all = true;
        self
    }

    const fn per_seed(mut self) -> Experiment {
        self.per_seed = true;
        self
    }

    const fn explains(mut self, view: View) -> Experiment {
        self.explain = Some(view);
        self
    }

    /// Looks an experiment up by subcommand name.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }
}

/// Default scale of everything solved off the table pipeline.
pub const TABLE_SCALE: f64 = 1.0 / 32.0;

/// Every experiment, in `bench all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("tables", TABLE_SCALE, tables).in_all(),
    Experiment::new("net", TABLE_SCALE, net)
        .in_all()
        .explains(View::Net),
    Experiment::new("table1", 1.0, table1).in_all(),
    Experiment::new("table2", TABLE_SCALE, |c| view(c, View::Table2)).explains(View::Table2),
    Experiment::new("table3", TABLE_SCALE, |c| view(c, View::Table3)).explains(View::Table3),
    Experiment::new("table4", TABLE_SCALE, |c| view(c, View::Table4)).explains(View::Table4),
    Experiment::new("table5", TABLE_SCALE, |c| view(c, View::Table5)).explains(View::Table5),
    Experiment::new("scaling", TABLE_SCALE, |c| view(c, View::Scaling)),
    Experiment::new("chaos", 1.0 / 1024.0, chaos)
        .in_all()
        .per_seed(),
    Experiment::new("crash", 1.0, crash_consistency)
        .in_all()
        .per_seed(),
    Experiment::new("degraded", 1.0 / 1024.0, degraded).in_all(),
    Experiment::new("concurrent_volumes", 1.0 / 64.0, concurrent_volumes).in_all(),
    Experiment::new("single_file_cost", 1.0 / 128.0, single_file_cost).in_all(),
    Experiment::new("incremental_economics", 1.0 / 128.0, incremental_economics).in_all(),
    Experiment::new(
        "ablation_fragmentation",
        1.0 / 128.0,
        ablation_fragmentation,
    )
    .in_all(),
    Experiment::new("ablation_readahead", 1.0 / 128.0, ablation_readahead).in_all(),
];

/// One selectable product of the table pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Single-drive summary.
    Table2,
    /// Single-drive stage details.
    Table3,
    /// Parallel run on 2 drives.
    Table4,
    /// Parallel run on 4 drives.
    Table5,
    /// The §5.3 drive-count scaling figure (text only).
    Scaling,
    /// Tape vs. network crossover table and link-bandwidth sweep.
    Net,
    /// The drive-count attribution sweep (report only).
    Sweep,
}

impl View {
    /// The name Tables 2–5's artifacts and reports go by: that of the
    /// experiment showing the table alone.
    fn name(self) -> &'static str {
        EXPERIMENTS
            .iter()
            .find(|e| e.explain == Some(self))
            .map(|e| e.name)
            .expect("every table view has its own experiment")
    }
}

/// What one pass through [`pipeline`] produced.
pub struct Product {
    /// The selected tables' text, in table order.
    pub text: String,
    /// Bottleneck attribution of everything the pass solved.
    pub reports: Reports,
}

const TABLE3_TITLE: &str = "Table 3: Dump and Restore Details (188 GB home, 1 DLT drive)";
const TABLE4_TITLE: &str = "Table 4: Parallel Backup and Restore Performance on 2 tape drives";
const TABLE5_TITLE: &str = "Table 5: Parallel Backup and Restore Performance on 4 tape drives";

/// Everything one measured pass over `home` solved, as plain data: the
/// volume and the functional runs are gone, and each artifact already
/// holds the obs snapshot of the thread that measured it.
#[derive(Debug)]
pub struct Pass {
    basic: BasicResults,
    table4: ParallelResults,
    table5: ParallelResults,
    scaling: Vec<ScalePoint>,
    net: NetResults,
    sweep: obs::SweepReport,
}

/// The passes of one invocation, keyed by `(scale.to_bits(), seed,
/// traced)`: a job can only ever be served the pass it would have measured
/// itself.
pub type PassCell = OnceMap<(u64, u64, bool), Pass>;

/// Builds `home`, runs the functional pass (traced or not) and solves
/// everything any view shows — the solves together cost milliseconds
/// against the seconds of the build, and none of them touches obs state,
/// so every artifact sees the metrics snapshot the functional pass left.
fn measure(scale: f64, seed: u64, traced: bool) -> Pass {
    if traced {
        obs::event::enable(obs::event::EventConfig::default());
    }
    let model = FilerModel::f630();
    let (mut home, runs) = prepare(scale, seed);
    Pass {
        basic: run_basic(&mut home, &runs, &model),
        table4: run_parallel(&mut home, &runs, &model, 2),
        table5: run_parallel(&mut home, &runs, &model, 4),
        scaling: run_scaling(&mut home, &runs, &model),
        net: run_net(&mut home, &runs, &model),
        sweep: crate::explain::sweep(&mut home, &runs, &model),
    }
}

/// The one path from a volume to a table, in two steps: measure and solve
/// once ([`measure`], by the first job of the invocation to need this
/// scale, seed and tracing; see [`RunCfg::pass`]), then render and emit
/// whichever `views` the caller selects.
///
/// With `traced` set the functional pass records events and every selected
/// table leaves its `obs_<name>.json` (Tables 2–5 also their Chrome trace,
/// `trace_<name>.json`) under `cfg.out_dir`; `bench explain` passes
/// `false` and reads only the returned reports.
pub fn pipeline(cfg: &RunCfg, views: &[View], traced: bool) -> Product {
    let key = (cfg.scale.to_bits(), cfg.seed, traced);
    let pass = cfg
        .pass
        .get_or_build(key, || measure(cfg.scale, cfg.seed, traced));

    let want = |v: View| views.contains(&v);
    let emit = |name: &str, artifact: &obs::Artifact, trace: Option<&[obs::TimedEvent]>| {
        if !traced {
            return;
        }
        let mut artifact = artifact.clone();
        artifact.experiment = name.into();
        obsout::emit_to(&cfg.out_dir, &artifact);
        if let Some(events) = trace {
            obsout::emit_trace_to(&cfg.out_dir, &artifact, events);
        }
    };
    fn attribute(reports: &mut Reports, name: &str, ops: &[obs::OpAttribution]) {
        let report = obs::AttribReport {
            experiment: name.to_string(),
            ops: ops.to_vec(),
        };
        reports.tables.insert(name.to_string(), report);
    }
    let mut text = String::new();
    let mut reports = Reports::default();

    let basic = &pass.basic;
    for v in [View::Table2, View::Table3] {
        if !want(v) {
            continue;
        }
        text.push_str(&match v {
            View::Table2 => render_table2(basic),
            _ => render_stage_table(TABLE3_TITLE, &basic.table3, PAPER_TABLE3, false),
        });
        emit(v.name(), &basic.obs, Some(&basic.trace_events));
        attribute(&mut reports, v.name(), &basic.attribs);
    }
    // Both single-drive tables together are the whole basic suite: its
    // artifact also goes out under the suite's own name.
    if want(View::Table2) && want(View::Table3) {
        emit("all", &basic.obs, None);
    }
    for (v, r, title, paper) in [
        (View::Table4, &pass.table4, TABLE4_TITLE, PAPER_TABLE4),
        (View::Table5, &pass.table5, TABLE5_TITLE, PAPER_TABLE5),
    ] {
        if !want(v) {
            continue;
        }
        text.push_str(&render_stage_table(title, &r.rows, paper, true));
        text.push_str(&render_parallel_summary(r));
        emit(v.name(), &r.obs, Some(&[]));
        attribute(&mut reports, v.name(), &r.attribs);
    }
    if want(View::Scaling) {
        text.push_str(&render_scaling(&pass.scaling));
    }
    if want(View::Net) {
        let r = &pass.net;
        text.push_str(&render_net(r));
        emit(&r.obs.experiment, &r.obs, None);
        reports
            .tables
            .insert(r.table.experiment.clone(), r.table.clone());
        reports
            .sweeps
            .insert(r.sweep.experiment.clone(), r.sweep.clone());
    }
    if want(View::Sweep) {
        let sweep = &pass.sweep;
        reports
            .sweeps
            .insert(sweep.experiment.clone(), sweep.clone());
    }
    Product { text, reports }
}

/// One view alone: its text, its obs artifacts.
fn view(cfg: &RunCfg, view: View) -> String {
    pipeline(cfg, &[view], true).text
}

/// The whole table 2–5 suite plus the §5.3 scaling figure off **one**
/// measured pass, emitting the same obs artifacts the standalone table
/// runs would, byte for byte — and the `ATTRIB_*` reports `bench explain`
/// writes, so the parallel-determinism net covers them on every
/// `bench all`.
pub fn tables(cfg: &RunCfg) -> String {
    let views = [
        View::Table2,
        View::Table3,
        View::Table4,
        View::Table5,
        View::Scaling,
        View::Sweep,
    ];
    let product = pipeline(cfg, &views, true);
    crate::explain::emit(&cfg.out_dir, &product.reports);
    product.text
}

/// The tape-vs-network crossover table: every operation against a DLT
/// drive and each preset link, with per-cell bottleneck attribution and
/// the link-bandwidth sweep's detected crossovers (and both as `ATTRIB_*`
/// reports). After `tables` in one `bench all` this is emission only: the
/// pass is already there.
pub fn net(cfg: &RunCfg) -> String {
    let product = pipeline(cfg, &[View::Net], true);
    crate::explain::emit(&cfg.out_dir, &product.reports);
    product.text
}

fn render_net(r: &NetResults) -> String {
    let fmt_bound = |dominant: &str, shares: &[(String, f64)]| {
        let detail = shares
            .iter()
            .filter(|(_, s)| *s >= 0.005)
            .map(|(c, s)| format!("{c} {:.0}%", s * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        format!("{dominant:<6} ({detail})")
    };
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "\nBackup and restore to tape vs. network replication (188 GB home volume)"
    );
    let _ = writeln!(w, "{}", "-".repeat(92));
    let _ = writeln!(
        w,
        "{:<18} {:>8} {:>12} {:>8}   bound by",
        "operation", "target", "elapsed", "MB/s"
    );
    let _ = writeln!(w, "{}", "-".repeat(92));
    let mut last_op = "";
    for row in &r.rows {
        if row.op != last_op && !last_op.is_empty() {
            let _ = writeln!(w);
        }
        last_op = row.op;
        let _ = writeln!(
            w,
            "{:<18} {:>8} {:>12} {:>8.1}   {}",
            row.op,
            row.target,
            fmt_duration(row.elapsed),
            row.mb_s,
            fmt_bound(&row.dominant, &row.class_shares)
        );
    }
    let _ = writeln!(w, "{}", "-".repeat(92));
    out.push_str(&crate::explain::render_crossovers(
        &r.sweep,
        "no crossovers detected along the link sweep",
    ));
    out
}

/// Table 1: block states for incremental image dump (fixed tiny volume,
/// no knobs — the demonstration is exact, not statistical).
pub fn table1(_cfg: &RunCfg) -> String {
    let vol = Volume::new(VolumeGeometry::uniform(1, 4, 8192, DiskPerf::ideal()));
    let mut fs = Wafl::format(vol, WaflConfig::default()).expect("format");

    // A dataset, then snapshot A (the full dump's anchor).
    let d = fs
        .create(INO_ROOT, "data", FileType::Dir, Attrs::default())
        .unwrap();
    let mut files = Vec::new();
    for i in 0..40u64 {
        let ino = fs
            .create(d, &format!("f{i}"), FileType::File, Attrs::default())
            .unwrap();
        for b in 0..10 {
            fs.write_fbn(ino, b, Block::Synthetic(i * 100 + b)).unwrap();
        }
        files.push(ino);
    }
    let a = fs.snapshot_create("A").unwrap();

    // Churn: delete some, overwrite some, create some. Then snapshot B.
    for &ino in &files[..10] {
        let name = fs
            .readdir(d)
            .unwrap()
            .into_iter()
            .find(|(_, i)| *i == ino)
            .map(|(n, _)| n)
            .unwrap();
        fs.remove(d, &name).unwrap();
    }
    for &ino in &files[10..20] {
        for b in 0..5 {
            fs.write_fbn(ino, b, Block::Synthetic(999_000 + ino as u64 * 10 + b))
                .unwrap();
        }
    }
    for i in 0..10u64 {
        let ino = fs
            .create(d, &format!("new{i}"), FileType::File, Attrs::default())
            .unwrap();
        for b in 0..10 {
            fs.write_fbn(ino, b, Block::Synthetic(555_000 + i * 100 + b))
                .unwrap();
        }
    }
    let b = fs.snapshot_create("B").unwrap();

    // Classify every block.
    let map = fs.blkmap();
    let mut counts = [0u64; 4];
    for bno in 0..map.nblocks() {
        let idx = match map.table1_state(bno, a, b) {
            Table1State::NotInEither => 0,
            Table1State::NewlyWritten => 1,
            Table1State::Deleted => 2,
            Table1State::Unchanged => 3,
        };
        counts[idx] += 1;
    }

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "Table 1: Block states for incremental image dump (A = full dump, B = incremental)"
    );
    let _ = writeln!(w, "{}", "-".repeat(80));
    let _ = writeln!(
        w,
        "Bit plane A  Bit plane B  Block state                                       count"
    );
    let _ = writeln!(w, "{}", "-".repeat(80));
    let _ = writeln!(
        w,
        "     0            0       not in either snapshot                        {:>10}",
        counts[0]
    );
    let _ = writeln!(
        w,
        "     0            1       newly written - include in incremental        {:>10}",
        counts[1]
    );
    let _ = writeln!(
        w,
        "     1            0       deleted, no need to include                   {:>10}",
        counts[2]
    );
    let _ = writeln!(
        w,
        "     1            1       needed, but not changed since full dump       {:>10}",
        counts[3]
    );
    let _ = writeln!(w, "{}", "-".repeat(80));

    // The incremental set must be exactly the NewlyWritten class.
    let diff: Vec<u64> = map.iter_diff(b, a).collect();
    assert_eq!(diff.len() as u64, counts[1], "B - A == newly written");
    let _ = writeln!(
        w,
        "verified: |B - A| = {} blocks = the 'newly written' class exactly",
        diff.len()
    );
    out
}

/// Degraded-mode table: dump elapsed time with 0 vs 1 failed disks per
/// RAID group.
pub fn degraded(cfg: &RunCfg) -> String {
    struct Row {
        op: &'static str,
        failed: usize,
        elapsed_h: f64,
        disk_util: f64,
    }

    let model = FilerModel::f630();
    let mut rows = Vec::new();

    for failed in [0usize, 1] {
        eprintln!("[degraded] building volume ({failed} failed disks per group)...");
        let mut home = build_home(cfg.scale, cfg.seed);
        if failed > 0 {
            let ngroups = home.fs.volume().ngroups();
            for g in 0..ngroups {
                home.fs
                    .volume_mut()
                    .group_mut(g)
                    .expect("group index")
                    .fail_disk(1)
                    .expect("fail member");
            }
            assert!(!home.fs.volume().is_healthy());
        }
        let factor = home.paper_factor();
        let arms =
            (home.profile.geometry.total_disks() - failed * home.fs.volume().ngroups()) as f64;
        let tape_blank = 64 * (1u64 << 30);

        eprintln!("[degraded] logical dump...");
        let mut tape = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
        let mut catalog = DumpCatalog::new();
        let ld = dump(
            &mut home.fs,
            &mut tape,
            &mut catalog,
            &DumpOptions::default(),
        )
        .expect("logical dump");

        eprintln!("[degraded] image dump...");
        let mut tape = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
        let pd = image_dump_full(&mut home.fs, &mut tape, "deg.base").expect("image dump");

        for (op, kind, stages) in [
            ("Logical Dump", OpKind::LogicalDump, ld.profiler.stages()),
            ("Physical Dump", OpKind::PhysicalDump, pd.profiler.stages()),
        ] {
            let scaled: Vec<_> = stages.iter().map(|p| p.scaled(factor)).collect();
            let sim = simulate_op(op, &[scaled], arms, kind, &model);
            let disk_util = sim
                .timelines
                .iter()
                .find(|t| t.resource == "disk")
                .map(|t| t.mean())
                .unwrap_or(0.0);
            rows.push(Row {
                op,
                failed,
                elapsed_h: sim.elapsed / 3600.0,
                disk_util,
            });
        }
    }

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "Degraded-mode dump performance (1 failed disk per RAID group)"
    );
    let _ = writeln!(
        w,
        "{:<16} {:>14} {:>12} {:>10}",
        "operation", "failed disks", "elapsed (h)", "disk util"
    );
    for r in &rows {
        let _ = writeln!(
            w,
            "{:<16} {:>14} {:>12.2} {:>10.2}",
            r.op, r.failed, r.elapsed_h, r.disk_util
        );
    }
    for op in ["Logical Dump", "Physical Dump"] {
        let healthy = rows
            .iter()
            .find(|r| r.op == op && r.failed == 0)
            .expect("healthy row");
        let deg = rows
            .iter()
            .find(|r| r.op == op && r.failed == 1)
            .expect("degraded row");
        let _ = writeln!(
            w,
            "{op}: degraded/healthy elapsed = {:.2}x",
            deg.elapsed_h / healthy.elapsed_h
        );
    }
    out
}

/// Concurrent home + rlse backups (§5.1's non-interference claim).
pub fn concurrent_volumes(cfg: &RunCfg) -> String {
    let model = FilerModel::f630();

    let mut home = build_home(cfg.scale, cfg.seed);
    let mut rlse = build_rlse(cfg.scale, cfg.seed + 1);

    // Functional dumps of both volumes.
    let mut catalog = DumpCatalog::new();
    let mut run_dump = |vol: &mut crate::BuiltVolume| {
        let mut tape = TapeDrive::new(TapePerf::dlt7000(), 64 * (1 << 30));
        let out = dump(
            &mut vol.fs,
            &mut tape,
            &mut catalog,
            &DumpOptions {
                volume_name: vol.profile.name.clone(),
                ..DumpOptions::default()
            },
        )
        .expect("dump");
        let factor = vol.paper_factor();
        out.profiler
            .stages()
            .iter()
            .map(|p| p.scaled(factor))
            .collect::<Vec<_>>()
    };
    let home_stages = run_dump(&mut home);
    let rlse_stages = run_dump(&mut rlse);

    // Isolated and concurrent fluid runs.
    let solo = |stages: &[backup_core::StageProfile], arms: f64| {
        simulate_op(
            "dump",
            &[stages.to_vec()],
            arms,
            OpKind::LogicalDump,
            &model,
        )
        .elapsed
    };
    let home_arms = home.profile.geometry.total_disks() as f64;
    let rlse_arms = rlse.profile.geometry.total_disks() as f64;
    let home_alone = solo(&home_stages, home_arms);
    let rlse_alone = solo(&rlse_stages, rlse_arms);

    // Concurrent: shared CPU, independent disk arrays and drives.
    let mut sim = FluidSim::new();
    let cpu = sim.add_resource("cpu", 1.0);
    let disk_home = sim.add_resource("disk:home", home_arms);
    let disk_rlse = sim.add_resource("disk:rlse", rlse_arms);
    let tape0 = sim.add_resource("tape0", 1.0);
    let tape1 = sim.add_resource("tape1", 1.0);
    let meta = sim.add_resource("meta", 1.0);
    let ids_h = ResourceIds {
        cpu,
        disk: disk_home,
        tape: tape0,
        meta,
    };
    let ids_r = ResourceIds {
        cpu,
        disk: disk_rlse,
        tape: tape1,
        meta,
    };
    let sh = sim.add_stream(Stream {
        name: "home".into(),
        start_at: 0.0,
        stages: home_stages
            .iter()
            .map(|p| stage_to_fluid(p, &model, &ids_h, 2, OpKind::LogicalDump))
            .collect(),
    });
    let sr = sim.add_stream(Stream {
        name: "rlse".into(),
        start_at: 0.0,
        stages: rlse_stages
            .iter()
            .map(|p| stage_to_fluid(p, &model, &ids_r, 2, OpKind::LogicalDump))
            .collect(),
    });
    let trace = sim.run().expect("solvable");
    let home_conc = {
        let (t0, t1) = trace.stream_span(sh).unwrap();
        t1 - t0
    };
    let rlse_conc = {
        let (t0, t1) = trace.stream_span(sr).unwrap();
        t1 - t0
    };

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "\nConcurrent logical backups of home (188 GB) and rlse (129 GB):"
    );
    let _ = writeln!(
        w,
        "------------------------------------------------------------------"
    );
    let _ = writeln!(
        w,
        "home:  alone {:>12}   concurrent {:>12}   slowdown {:+.1}%",
        fmt_duration(home_alone),
        fmt_duration(home_conc),
        (home_conc / home_alone - 1.0) * 100.0
    );
    let _ = writeln!(
        w,
        "rlse:  alone {:>12}   concurrent {:>12}   slowdown {:+.1}%",
        fmt_duration(rlse_alone),
        fmt_duration(rlse_conc),
        (rlse_conc / rlse_alone - 1.0) * 100.0
    );
    let _ = writeln!(
        w,
        "paper: \"each executed in exactly the same amount of time as they had in isolation\""
    );
    out
}

/// Single-file ("stupidity") recovery cost under each strategy.
pub fn single_file_cost(cfg: &RunCfg) -> String {
    let model = FilerModel::f630();
    let mut home = build_home(cfg.scale, cfg.seed);
    let factor = home.paper_factor();

    // Functional dumps to measure stream sizes.
    let mut ltape = TapeDrive::new(TapePerf::dlt7000(), 64 << 30);
    let mut catalog = DumpCatalog::new();
    let lout = dump(
        &mut home.fs,
        &mut ltape,
        &mut catalog,
        &DumpOptions::default(),
    )
    .expect("logical dump");
    let mut ptape = TapeDrive::new(TapePerf::dlt7000(), 64 << 30);
    let pout = image_dump_full(&mut home.fs, &mut ptape, "snap").expect("image dump");

    let logical_bytes = lout.tape_bytes as f64 * factor;
    let physical_bytes = pout.tape_bytes as f64 * factor;
    // Head (maps + directories) is everything before the first file.
    let head_bytes = lout
        .profiler
        .stage_named("dumping directories")
        .map(|s| (s.tape_bytes as f64) * factor)
        .unwrap_or(0.0);

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "\nSingle-file (\"stupidity\") recovery cost, 188 GB home volume, 1 drive"
    );
    let _ = writeln!(w, "{}", "-".repeat(86));
    let _ = writeln!(
        w,
        "{:<44} {:>18} {:>18}",
        "file position on tape", "logical restore", "physical restore"
    );
    let _ = writeln!(w, "{}", "-".repeat(86));
    // Physical: the whole volume must come back first (tape-bound), no
    // matter which file is wanted.
    let physical_secs = physical_bytes / model.tape_rate;
    for (label, frac) in [
        ("first file after the directories", 0.0),
        ("middle of the tape", 0.5),
        ("last file on the tape", 1.0),
    ] {
        // Logical: read the head (maps + dirs), then scan forward to the
        // file. Tape scan-at-speed; the extract itself is negligible.
        let logical_secs = (head_bytes + frac * (logical_bytes - head_bytes)) / model.tape_rate;
        let _ = writeln!(
            w,
            "{:<44} {:>18} {:>18}",
            label,
            fmt_duration(logical_secs.max(30.0)),
            fmt_duration(physical_secs)
        );
    }
    let _ = writeln!(w, "{}", "-".repeat(86));
    let _ = writeln!(
        w,
        "average asymmetry: {:.0}x — and snapshots (free, online) beat both for recent files",
        physical_secs / ((head_bytes + 0.5 * (logical_bytes - head_bytes)) / model.tape_rate)
    );
    out
}

/// Incremental dump size vs. nightly churn rate.
pub fn incremental_economics(cfg: &RunCfg) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "\nIncremental dump size vs. nightly churn (fraction of files modified)"
    );
    let _ = writeln!(w, "{}", "-".repeat(92));
    let _ = writeln!(
        w,
        "{:<10} {:>14} {:>18} {:>18} {:>14}",
        "churn", "blocks written", "logical incr (blk)", "physical incr (blk)", "log/phys"
    );
    let _ = writeln!(w, "{}", "-".repeat(92));

    for modify in [0.01f64, 0.05, 0.15, 0.40] {
        let profile = VolumeProfile::home(cfg.scale);
        let (mut fs, _) =
            populate(&profile, cfg.seed, Meter::new_shared(), CostModel::zero()).expect("populate");

        // Baselines: full dumps of both kinds.
        let mut catalog = DumpCatalog::new();
        let mut tape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        dump(&mut fs, &mut tape, &mut catalog, &DumpOptions::default()).expect("full dump");
        let mut img_tape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        image_dump_full(&mut fs, &mut img_tape, "base").expect("full image");

        // One night of churn.
        let c = churn(
            &mut fs,
            &profile,
            &ChurnOptions {
                modify_fraction: modify,
                delete_fraction: modify / 5.0,
                create_fraction: modify / 2.0,
            },
            cfg.seed ^ 77,
        )
        .expect("churn");

        // Both incrementals.
        let mut ltape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        let lout = dump(
            &mut fs,
            &mut ltape,
            &mut catalog,
            &DumpOptions {
                level: 1,
                ..DumpOptions::default()
            },
        )
        .expect("logical incremental");
        let mut ptape = TapeDrive::new(TapePerf::ideal(), u64::MAX);
        let pout =
            image_dump_incremental(&mut fs, &mut ptape, "base", "incr").expect("image incremental");

        let _ = writeln!(
            w,
            "{:<10} {:>14} {:>18} {:>18} {:>13.1}x",
            format!("{:.0}%", modify * 100.0),
            c.blocks_written,
            lout.data_blocks,
            pout.blocks,
            lout.data_blocks as f64 / pout.blocks.max(1) as f64,
        );
    }
    let _ = writeln!(w, "{}", "-".repeat(92));
    let _ = writeln!(
        w,
        "logical incrementals re-dump whole changed files; physical incrementals ship the"
    );
    let _ = writeln!(
        w,
        "changed blocks (plus fixed metadata) — the gap widens as big files see small edits."
    );
    out
}

/// Ablation: what fragmentation (file system maturity) costs logical dump.
pub fn ablation_fragmentation(cfg: &RunCfg) -> String {
    let model = FilerModel::f630();
    let factor = 1.0 / cfg.scale;

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "\nAblation: fragmentation vs. logical dump performance");
    let _ = writeln!(w, "{}", "-".repeat(96));
    let _ = writeln!(
        w,
        "{:<22} {:>8} {:>12} {:>14} {:>16} {:>16}",
        "volume state", "frag", "rand-read %", "1-drive files", "4-drive files", "4-drive GB/h"
    );
    let _ = writeln!(w, "{}", "-".repeat(96));

    for rounds in [0u32, 1, 3, 6] {
        let profile = VolumeProfile::home(cfg.scale);
        let (mut fs, _) =
            populate(&profile, cfg.seed, Meter::new_shared(), CostModel::f630()).expect("populate");
        if rounds > 0 {
            let opts = AgingOptions {
                rounds,
                delete_fraction: profile.aging_delete_fraction,
                overwrite_fraction: 0.35,
                overwrite_blocks: 0.5,
            };
            age(&mut fs, &profile, &opts, cfg.seed ^ 0xfa6).expect("age");
        }
        let frag = fragmentation(&fs, 2000).expect("frag");

        let mut tape = TapeDrive::new(TapePerf::dlt7000(), 64 << 30);
        let mut catalog = DumpCatalog::new();
        let dout = dump(&mut fs, &mut tape, &mut catalog, &DumpOptions::default()).expect("dump");
        let files_stage = dout
            .profiler
            .stage_named("dumping files")
            .expect("files stage")
            .scaled(factor);
        let rand_pct = files_stage.disk_rand_read as f64
            / (files_stage.disk_rand_read + files_stage.disk_seq_read).max(1) as f64
            * 100.0;

        let arms = profile.geometry.total_disks() as f64;
        let one = simulate_op(
            "dump",
            &[vec![files_stage.clone()]],
            arms,
            OpKind::LogicalDump,
            &model,
        );
        let four_streams: Vec<_> = (0..4).map(|_| vec![files_stage.scaled(0.25)]).collect();
        let four = simulate_op("dump4", &four_streams, arms, OpKind::LogicalDump, &model);
        let gb = files_stage.tape_bytes as f64 / (1 << 30) as f64;
        let _ = writeln!(
            w,
            "{:<22} {:>8.3} {:>11.1}% {:>14} {:>16} {:>16.1}",
            if rounds == 0 {
                "fresh".to_string()
            } else {
                format!("aged {rounds} rounds")
            },
            frag,
            rand_pct,
            fmt_duration(one.elapsed),
            fmt_duration(four.elapsed),
            gb / (four.elapsed / 3600.0),
        );
    }
    let _ = writeln!(w, "{}", "-".repeat(96));
    let _ = writeln!(
        w,
        "paper: a mature 188 GB volume dumped at 25.4 GB/h on one drive and ~70 GB/h on four;"
    );
    let _ = writeln!(
        w,
        "the fresher the volume, the closer 4-drive logical dump gets to tape speed."
    );
    out
}

/// Ablation: the dump's private read-ahead chain length.
pub fn ablation_readahead(cfg: &RunCfg) -> String {
    let model = FilerModel::f630();
    let mut home = build_home(cfg.scale, cfg.seed);
    let factor = home.paper_factor();
    let arms = home.profile.geometry.total_disks() as f64;

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "\nAblation: dump read-ahead chain length (phase IV)");
    let _ = writeln!(w, "{}", "-".repeat(78));
    let _ = writeln!(
        w,
        "{:<18} {:>14} {:>14} {:>16} {:>12}",
        "chain (blocks)", "seq reads", "rand reads", "1-drive files", "vs 64 KiB"
    );
    let _ = writeln!(w, "{}", "-".repeat(78));

    let mut baseline = None;
    for chain in [1usize, 4, 16, 64] {
        let mut tape = TapeDrive::new(TapePerf::dlt7000(), 64 << 30);
        let mut catalog = DumpCatalog::new();
        let dout = dump(
            &mut home.fs,
            &mut tape,
            &mut catalog,
            &DumpOptions {
                read_chain: chain,
                ..DumpOptions::default()
            },
        )
        .expect("dump");
        let files = dout
            .profiler
            .stage_named("dumping files")
            .expect("files stage")
            .scaled(factor);
        let sim = simulate_op(
            "dump",
            &[vec![files.clone()]],
            arms,
            OpKind::LogicalDump,
            &model,
        );
        if chain == 16 {
            baseline = Some(sim.elapsed);
        }
        let rel = baseline
            .map(|b| format!("{:+.0}%", (sim.elapsed / b - 1.0) * 100.0))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            w,
            "{:<18} {:>13.1}G {:>13.1}G {:>16} {:>12}",
            format!("{chain} ({} KiB)", chain * 4),
            files.disk_seq_read as f64 / (1u64 << 30) as f64,
            files.disk_rand_read as f64 / (1u64 << 30) as f64,
            fmt_duration(sim.elapsed),
            rel
        );
    }
    let _ = writeln!(w, "{}", "-".repeat(78));
    let _ = writeln!(
        w,
        "note: chains only batch reads *within* a file; on this workload most files are"
    );
    let _ = writeln!(
        w,
        "smaller than one 64 KiB chain, so the paper's read-ahead win comes mainly from"
    );
    let _ = writeln!(
        w,
        "keeping the tape streaming, which the timing model's efficiency factor covers."
    );
    out
}

/// The default chaos mix: frequent-enough transient faults that every
/// run exercises the retry path, plus a mid-dump RAID member failure.
fn default_chaos_spec(seed: u64) -> FaultSpec {
    FaultSpec::builder()
        .seed(seed)
        .tape_media_soft(0.01)
        .tape_stacker_jam(0.002)
        .tape_drive_offline(0.001, 2)
        .raid_fail_disk_after(2000)
        .raid_reconstruct_after(20000)
        .build()
}

/// FNV-1a over the drained obs events: a compact determinism witness for
/// the whole trace (kind, label, stream, bytes, ops of every event).
fn event_digest() -> (usize, u64) {
    let drained = obs::event::drain();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for e in &drained.events {
        fold(e.kind.name().as_bytes());
        fold(e.label.as_bytes());
        fold(&e.stream.to_le_bytes());
        fold(&e.bytes.to_le_bytes());
        fold(&e.ops.to_le_bytes());
    }
    (drained.events.len(), h)
}

fn chaos_counters() -> (u64, u64, u64, u64) {
    (
        obs::counter("media.retries").get(),
        obs::counter("tape.injected_faults").get(),
        obs::counter("raid.retries").get(),
        obs::counter("raid.degraded_reads").get(),
    )
}

/// Writes a per-seed report as `out_dir/<name>_seed<N>.txt` and hands it
/// back as the run's stdout.
fn write_report(cfg: &RunCfg, name: &str, report: String) -> String {
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let path = cfg.out_dir.join(format!("{name}_seed{}.txt", cfg.seed));
    std::fs::write(&path, &report).expect("write report");
    eprintln!("[{name}] report written to {}", path.display());
    report
}

/// One deterministic chaos run: injects a seeded [`FaultSpec`] into both
/// backup engines and reports whether the recovery machinery held. The
/// report — returned and written to `out_dir/chaos_seed<N>.txt` — is a
/// pure function of the seed, scale, target, and spec.
pub fn chaos(cfg: &RunCfg) -> String {
    let seed = cfg.seed;
    let scale = cfg.scale;
    let spec = match &cfg.spec_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).expect("read --spec file");
            let mut s = FaultSpec::from_toml(&text).expect("parse --spec file");
            if s.seed == 0 {
                s.seed = seed;
            }
            s
        }
        None => default_chaos_spec(seed),
    };

    obs::event::enable(obs::event::EventConfig::default());
    let mut report = String::new();
    let w = &mut report;
    writeln!(
        w,
        "chaos report (seed={seed} scale={scale} target={})",
        cfg.target.label()
    )
    .unwrap();
    writeln!(
        w,
        "spec: tape(media_soft={} jam={} offline={}/{}) raid(fail_after={:?} rebuild_after={:?})",
        spec.tape.media_soft,
        spec.tape.stacker_jam,
        spec.tape.drive_offline,
        spec.tape.offline_ops,
        spec.raid.fail_disk_after,
        spec.raid.reconstruct_after,
    )
    .unwrap();

    eprintln!("[chaos] building volume at scale {scale}...");
    let mut home = build_home(scale, seed);
    let geometry = home.profile.geometry.clone();
    home.fs.volume_mut().arm_faults(&spec);
    home.fs
        .volume_mut()
        .set_retry_policy(RetryPolicy::media_default());
    let _ = obs::event::drain(); // shed build-phase events

    // One roundtrip per strategy under the same injection. The physical
    // pass draws its faults from a decorrelated stream of the same seed.
    let engines: [(Box<dyn BackupEngine>, u64); 2] = [
        (Box::new(LogicalEngine::new(DumpOptions::default())), 0),
        (
            Box::new(PhysicalEngine::new("chaos.base")),
            0x9e3779b97f4a7c15,
        ),
    ];
    for (mut engine, salt) in engines {
        let kind = engine.name();
        let logical = kind == "logical";
        eprintln!("[chaos] {kind} dump/restore under injection...");
        let proxy = FaultProxy::new(
            cfg.target.open(),
            &spec.tape,
            SimRng::seed_from_u64(spec.seed ^ salt),
        );
        let mut media = RetryMedia::new(proxy, RetryPolicy::media_default());
        let before = chaos_counters();
        let permanent = |e: &backup_core::engine::BackupError| {
            assert!(!e.is_transient(), "surfaced error must be permanent: {e}");
        };
        match engine.dump(&mut home.fs, &mut media) {
            Ok(out) => {
                let moved = if logical {
                    format!(
                        "files={} dirs={} blocks={}",
                        out.files, out.dirs, out.blocks
                    )
                } else {
                    format!("blocks={}", out.blocks)
                };
                writeln!(
                    w,
                    "{kind} dump: ok {moved} retries={} degraded={}",
                    out.retries, out.degraded
                )
                .unwrap();
                let mut target = Wafl::format_with(
                    Volume::new(geometry.clone()),
                    WaflConfig::default(),
                    home.fs.meter(),
                    CostModel::f630(),
                )
                .expect("format restore target");
                match engine.restore(&mut target, &mut media) {
                    Ok(rout) => {
                        let (moved, ndiffs) = if logical {
                            let diffs = compare_trees(&mut home.fs, &mut target).expect("compare");
                            assert!(diffs.is_empty(), "logical verify failed: {diffs:?}");
                            (format!("files={}", rout.files), diffs.len())
                        } else {
                            let diffs = compare_used_blocks(&mut home.fs, target.volume_mut())
                                .expect("compare blocks");
                            assert!(diffs.is_empty(), "physical verify failed: {diffs:?}");
                            (format!("blocks={}", rout.blocks), diffs.len())
                        };
                        writeln!(
                            w,
                            "{kind} restore: ok {moved} retries={} verify_diffs={ndiffs}",
                            rout.retries
                        )
                        .unwrap();
                    }
                    Err(e) => {
                        permanent(&e);
                        writeln!(w, "{kind} restore: permanent error: {e}").unwrap();
                    }
                }
            }
            Err(e) => {
                permanent(&e);
                writeln!(w, "{kind} dump: permanent error: {e}").unwrap();
            }
        }
        let after = chaos_counters();
        let (events, digest) = event_digest();
        writeln!(
            w,
            "{kind} counters: media_retries={} injected={} raid_retries={} degraded_reads={}",
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            after.3 - before.3
        )
        .unwrap();
        writeln!(w, "{kind} trace: events={events} digest={digest:016x}").unwrap();
    }

    write_report(cfg, "chaos", report)
}

// ---------------------------------------------------------------------------
// Crash-consistency runner (`bench crash`)
// ---------------------------------------------------------------------------

/// `bench crash`'s scenario on the shared harness: a smaller volume and
/// a shorter, attribute-free mutation stream than the test matrix runs.
const CRASH_SHAPE: Shape = Shape {
    files: 8,
    extra_blocks: 4,
    big_blocks: 24,
    ops: 16,
    cp_every: 4,
    mix: &[Mutation::Overwrite, Mutation::Create, Mutation::Extend],
};

/// The fully mutated, committed state the dump/restore scenarios use.
fn crash_finished(seed: u64) -> Wafl {
    harness::state_after(&CRASH_SHAPE, seed, CRASH_SHAPE.ops).expect("mutated state")
}

/// Reboots a crashed filer (NVRAM intact) through the harness's
/// invariant check.
fn crash_reboot(fs: Wafl) -> Wafl {
    harness::reboot(fs, Nvram::Replayed).expect("clean reboot after power loss")
}

fn crash_counter_state() -> (u64, u64, u64, u64) {
    (
        obs::counter("crash.trips").get(),
        obs::counter("crash.replays").get(),
        obs::counter("crash.replayed_ops").get(),
        obs::counter("backup.resumes").get(),
    )
}

/// One deterministic crash-consistency run: for every enumerated crash
/// point, kill the machine mid-operation, reboot, recover (NVRAM replay,
/// checkpoint resume, or rerun), verify the result bit-exactly, and
/// report the crash/replay counters. The report — returned and written
/// to `out_dir/crash_seed<N>.txt` — is a pure function of the seed.
pub fn crash_consistency(cfg: &RunCfg) -> String {
    use simkit::crash;
    use simkit::crash::CrashPlan;
    use simkit::crash::CrashPoint;

    let seed = cfg.seed;
    obs::event::enable(obs::event::EventConfig::default());
    let mut report = String::new();
    let w = &mut report;
    writeln!(w, "crash report (seed={seed})").unwrap();

    // ---- Mutation-phase points: CP commit and NVRAM flush ---------------
    for point in [CrashPoint::CpCommit, CrashPoint::NvramFlush] {
        let mut rng = SimRng::seed_from_u64(
            seed.wrapping_mul(31)
                .wrapping_add(point.name().len() as u64),
        );
        let plan = match point {
            CrashPoint::CpCommit => CrashPlan::new().trip_within(point, 12, &mut rng),
            _ => CrashPlan::new().trip_within(point, 4, &mut rng),
        };
        let (t0, r0, o0, _) = crash_counter_state();
        let mut fs = harness::base(&CRASH_SHAPE, seed).expect("base");
        crash::arm(plan);
        let mut acked = 0usize;
        let died =
            harness::mutate(&mut fs, &CRASH_SHAPE, seed, CRASH_SHAPE.ops, &mut acked).is_err();
        assert!(died, "armed mutation run must lose power");
        assert_eq!(crash::tripped(), Some(point), "wrong point tripped");
        let hits = crash::hits(point);
        drop(crash_reboot(fs));
        let (t1, r1, o1, _) = crash_counter_state();
        writeln!(
            w,
            "{point}: tripped hits={hits} acked={acked}; reboot clean; \
             trips=+{} replays=+{} replayed_ops=+{}",
            t1 - t0,
            r1 - r0,
            o1 - o0
        )
        .unwrap();
    }

    // ---- Dump-phase and restore points, per engine ----------------------
    for image in [false, true] {
        let kind = if image { "physical" } else { "logical" };
        eprintln!("[crash] {kind} dump/restore scenarios...");
        for point in [
            CrashPoint::DumpRecord,
            CrashPoint::DumpCheckpoint,
            CrashPoint::NetTransfer,
        ] {
            let mut rng = SimRng::seed_from_u64(
                seed.wrapping_mul(0x9e37_79b9)
                    ^ ((point.name().len() as u64) << 8 | kind.len() as u64),
            );
            // Lower bounds keep the first NVRAM checkpoint stored before
            // the power dies, so the second attempt resumes.
            let nth = match point {
                CrashPoint::DumpRecord => 3 + rng.range(0, 3),
                CrashPoint::DumpCheckpoint => 2 + rng.range(0, 2),
                _ => 4 + rng.range(0, 3),
            };
            let mut fs = crash_finished(seed);
            let mut media: Box<dyn Media> = if point == CrashPoint::NetTransfer {
                backup_core::Target::Net(backup_core::target::LinkSpec::gbit1()).open()
            } else {
                Box::new(TapeDrive::new(TapePerf::ideal(), 1 << 30))
            };
            let mut scratch = NvScratch::new();
            let (t0, _, _, s0) = crash_counter_state();
            crash::arm(CrashPlan::new().trip_at(point, nth));
            let diffs = if image {
                let job = RestartableImageDump::new("m").checkpoint_every(2);
                assert!(
                    job.run(&mut fs, &mut media, &mut scratch).is_err(),
                    "armed dump must fail"
                );
                assert_eq!(crash::tripped(), Some(point), "wrong point tripped");
                let mut fs = crash_reboot(fs);
                let out = job
                    .run(&mut fs, &mut media, &mut scratch)
                    .expect("resumed image dump");
                assert!(out.resumed, "second attempt must resume");
                let mut raw = Volume::new(harness::geometry());
                image_restore(&mut media, &mut raw, &fs.meter(), fs.costs())
                    .expect("image restore");
                compare_used_blocks(&mut fs, &mut raw)
                    .expect("block compare")
                    .len()
            } else {
                let job = RestartableLogicalDump::new(DumpOptions::default()).checkpoint_every(2);
                let mut catalog = DumpCatalog::new();
                assert!(
                    job.run(&mut fs, &mut media, &mut catalog, &mut scratch)
                        .is_err(),
                    "armed dump must fail"
                );
                assert_eq!(crash::tripped(), Some(point), "wrong point tripped");
                let mut fs = crash_reboot(fs);
                job.run(&mut fs, &mut media, &mut catalog, &mut scratch)
                    .expect("resumed logical dump");
                let mut target =
                    Wafl::format(Volume::new(harness::geometry()), WaflConfig::default())
                        .expect("format restore target");
                logical_restore(&mut target, &mut media, "/").expect("logical restore");
                compare_trees(&mut fs, &mut target).expect("compare").len()
            };
            assert_eq!(diffs, 0, "resumed stream must restore bit-exactly");
            let (t1, _, _, s1) = crash_counter_state();
            writeln!(
                w,
                "[{kind}] {point}: tripped nth={nth}; resumed; records={} \
                 verify_diffs={diffs} trips=+{} resumes=+{}",
                media.total_records(),
                t1 - t0,
                s1 - s0
            )
            .unwrap();
        }

        // Restore: recovery is rerunning the restore (paper footnote 2).
        let mut rng = SimRng::seed_from_u64(
            seed.wrapping_mul(0x51_7c_c1)
                .wrapping_add(kind.len() as u64),
        );
        let nth = 1 + rng.range(0, 5);
        let mut fs = crash_finished(seed);
        let mut media = TapeDrive::new(TapePerf::ideal(), 1 << 30);
        let (t0, _, _, _) = crash_counter_state();
        let diffs = if image {
            image_dump_full(&mut fs, &mut media, "m").expect("image dump");
            let mut raw = Volume::new(harness::geometry());
            crash::arm(CrashPlan::new().trip_at(CrashPoint::Restore, nth));
            assert!(
                image_restore(&mut media, &mut raw, &fs.meter(), fs.costs()).is_err(),
                "armed restore must fail"
            );
            assert_eq!(crash::tripped(), Some(CrashPoint::Restore));
            crash::disarm();
            image_restore(&mut media, &mut raw, &fs.meter(), fs.costs()).expect("rerun");
            compare_used_blocks(&mut fs, &mut raw)
                .expect("block compare")
                .len()
        } else {
            let mut catalog = DumpCatalog::new();
            dump(&mut fs, &mut media, &mut catalog, &DumpOptions::default()).expect("dump");
            let mut target = Wafl::format(Volume::new(harness::geometry()), WaflConfig::default())
                .expect("format restore target");
            crash::arm(CrashPlan::new().trip_at(CrashPoint::Restore, nth));
            assert!(
                logical_restore(&mut target, &mut media, "/").is_err(),
                "armed restore must fail"
            );
            assert_eq!(crash::tripped(), Some(CrashPoint::Restore));
            let mut target = crash_reboot(target);
            logical_restore(&mut target, &mut media, "/").expect("rerun");
            compare_trees(&mut fs, &mut target).expect("compare").len()
        };
        assert_eq!(diffs, 0, "rerun restore must converge bit-exactly");
        let (t1, _, _, _) = crash_counter_state();
        writeln!(
            w,
            "[{kind}] restore: tripped nth={nth}; rerun converged; \
             verify_diffs={diffs} trips=+{}",
            t1 - t0
        )
        .unwrap();
    }

    let (events, digest) = event_digest();
    writeln!(w, "trace: events={events} digest={digest:016x}").unwrap();

    write_report(cfg, "crash", report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_calls_on_one_cfg_measure_once_per_key() {
        let cfg = RunCfg::new(1.0 / 1024.0, 7, &std::env::temp_dir());
        let net = pipeline(&cfg, &[View::Net], false);
        assert!(net.text.contains("tape vs. network"));
        assert!(net.reports.tables.contains_key("table_net"));

        // The pass is under the key this configuration stands for, so a
        // second selection renders without building anything.
        let key = (cfg.scale.to_bits(), cfg.seed, false);
        let pass = cfg
            .pass
            .get_or_build(key, || panic!("the first call left no pass under its key"));
        let both = pipeline(&cfg, &[View::Table2, View::Net], false);
        assert!(both.text.ends_with(&net.text), "same pass, same net table");
        let same = cfg.pass.get_or_build(key, || panic!("measured twice"));
        assert!(Arc::ptr_eq(&pass, &same));
    }
}
