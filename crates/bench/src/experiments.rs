//! The functional pass and the solves behind every table.
//!
//! [`functional_runs`] executes the real backup engines against a built
//! volume and keeps what each of the paper's four operations measured as
//! one [`OpRun`]; [`simulate_on`] re-scales nothing and knows no table — it
//! solves the fluid model for one operation on one [`Medium`]; and
//! [`run_basic`], [`run_parallel`], [`run_net`] and [`run_scaling`] are
//! loops over the four operations that shape their streams for a drive
//! count or a link and return rows shaped like the paper's tables.

use backup_core::logical::catalog::DumpCatalog;
use backup_core::logical::dump::dump;
use backup_core::logical::dump::DumpOptions;
use backup_core::logical::restore::restore;
use backup_core::physical::dump::image_dump_full;
use backup_core::physical::restore::image_restore;
use backup_core::report::Profiler;
use backup_core::report::StageProfile;
use net::LinkSpec;
use obs::attrib::SweepPoint;
use raid::Volume;
use simkit::prelude::FluidSim;
use simkit::prelude::Stream;
use simkit::units::MIB;
use tape::TapeDrive;
use tape::TapePerf;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;

use crate::build::build_home;
use crate::build::BuiltVolume;
use crate::calibrate::stage_to_fluid;
use crate::calibrate::FilerModel;
use crate::calibrate::OpKind;
use crate::calibrate::ResourceIds;

/// One row of a stage-detail table (Tables 3–5).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Operation group ("Logical Dump", "Physical Restore", ...).
    pub op: &'static str,
    /// Stage label.
    pub stage: String,
    /// Elapsed seconds (window over all streams).
    pub elapsed: f64,
    /// Mean CPU utilization over the window.
    pub cpu_util: f64,
    /// Aggregate disk throughput over the window, MB/s.
    pub disk_mb_s: f64,
    /// Aggregate tape throughput over the window, MB/s.
    pub tape_mb_s: f64,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// Operation name.
    pub name: &'static str,
    /// Total elapsed seconds.
    pub elapsed: f64,
    /// Data moved / elapsed, MB/s.
    pub mb_s: f64,
    /// Data moved / elapsed, GB/hour.
    pub gb_h: f64,
}

/// Results for the single-drive experiments (Tables 2 and 3).
#[derive(Debug)]
pub struct BasicResults {
    /// Table 2 rows.
    pub table2: Vec<OpSummary>,
    /// Table 3 rows.
    pub table3: Vec<StageRow>,
    /// Logical data bytes at paper scale.
    pub logical_bytes: u64,
    /// Physical (image) bytes at paper scale.
    pub physical_bytes: u64,
    /// File count at paper scale.
    pub files: u64,
    /// Fragmentation of the source volume.
    pub frag: f64,
    /// The observability artifact: measured spans stamped with simulated
    /// times, plus per-resource utilization. The runners name and write
    /// it (`results/obs_<experiment>.json`).
    pub obs: obs::Artifact,
    /// Trace events mapped onto the artifact's time axis (empty unless
    /// tracing was enabled for the functional pass).
    pub trace_events: Vec<obs::TimedEvent>,
    /// Per-operation bottleneck attribution, in table order (Logical
    /// Dump, Logical Restore, Physical Dump, Physical Restore).
    pub attribs: Vec<obs::OpAttribution>,
}

/// Result of simulating one operation (one or more concurrent streams).
#[derive(Debug)]
pub struct SimOp {
    /// Aggregated per-stage rows.
    pub rows: Vec<StageRow>,
    /// Per-stage `(name, t0, t1)` windows over all streams, in stage
    /// order — the simulated times the obs artifact stamps onto spans.
    pub windows: Vec<(String, f64, f64)>,
    /// Per-resource utilization timelines from the solve.
    pub timelines: Vec<obs::UtilizationTimeline>,
    /// Bottleneck attribution folded from the solver's binding records.
    pub attribution: obs::OpAttribution,
    /// Makespan in seconds.
    pub elapsed: f64,
}

/// What an operation's streams land on — the one structural choice in
/// the resource layout.
#[derive(Debug, Clone, Copy)]
pub enum Medium {
    /// Every stream gets a private DLT drive (`tape0`, `tape1`, ...).
    Tape,
    /// All streams share one `net` resource: a link is a shared channel
    /// (dslab-style), and stage demands charged to the "tape" slot land
    /// on it at the link's effective rate.
    Link(LinkSpec),
}

/// Bytes per framed wire record the net time model charges: 64 blocks
/// (256 KiB), so every record pays the link's per-message latency on
/// top of serialization. Matches the dump engines' data-run framing.
pub const NET_RECORD_BYTES: u64 = 64 * 4096;

/// The filer model rebased onto a replication link: the "tape" pipeline
/// becomes the wire. The effective rate folds per-record latency into
/// bandwidth ([`LinkSpec::transfer_secs`] over [`NET_RECORD_BYTES`]);
/// a link has no start/stop streaming loss and no striping loss — those
/// are tape-mechanism artifacts.
fn net_model(model: &FilerModel, link: &LinkSpec) -> FilerModel {
    let mut m = *model;
    m.tape_rate = NET_RECORD_BYTES as f64 / link.transfer_secs(NET_RECORD_BYTES);
    m.logical_tape_eff = 1.0;
    m.stripe_loss_per_drive = 0.0;
    m
}

/// Solves the fluid model for one operation against tape drives: the
/// single-medium form of [`simulate_on`] the tables (and the repo
/// benchmark) use.
pub fn simulate_op(
    op: &'static str,
    streams: &[Vec<StageProfile>],
    arms: f64,
    kind: OpKind,
    model: &FilerModel,
) -> SimOp {
    simulate_on(Medium::Tape, op, streams, arms, kind, model)
}

/// Solves the fluid model for one operation on `medium`.
///
/// `streams` holds, per concurrent stream, the paper-scaled stage
/// profiles. All streams share the CPU, the metadata pipeline and the
/// volume's `arms` disk arms; the medium decides whether they also share
/// what they write to. The solved trace is folded per stage name
/// (first-appearance order) into rows, windows, timelines and
/// attribution.
pub fn simulate_on(
    medium: Medium,
    op: &'static str,
    streams: &[Vec<StageProfile>],
    arms: f64,
    kind: OpKind,
    model: &FilerModel,
) -> SimOp {
    let n = streams.len();
    let model = match medium {
        Medium::Tape => *model,
        Medium::Link(link) => net_model(model, &link),
    };
    let mut sim = FluidSim::new();
    let cpu = sim.add_resource("cpu", 1.0);
    let disk = sim.add_resource("disk", arms);
    let meta = sim.add_resource("meta", 1.0);
    let link = matches!(medium, Medium::Link(_)).then(|| sim.add_resource("net", 1.0));
    for (i, stages) in streams.iter().enumerate() {
        let tape = link.unwrap_or_else(|| sim.add_resource(format!("tape{i}"), 1.0));
        let ids = ResourceIds {
            cpu,
            disk,
            tape,
            meta,
        };
        sim.add_stream(Stream {
            name: format!("{op} #{i}"),
            start_at: 0.0,
            stages: stages
                .iter()
                .map(|p| stage_to_fluid(p, &model, &ids, n, kind))
                .collect(),
        });
    }
    let trace = sim.run().expect("fluid model solvable");

    let mut order: Vec<&str> = Vec::new();
    for s in streams.iter().flatten() {
        if !order.contains(&s.name.as_str()) {
            order.push(&s.name);
        }
    }
    let mut rows = Vec::new();
    let mut windows = Vec::new();
    for name in order {
        let Some((t0, t1)) = trace.window(name) else {
            continue;
        };
        windows.push((name.to_string(), t0, t1));
        let named = || streams.iter().flatten().filter(|p| p.name == name);
        let disk_bytes: u64 = named().map(|p| p.disk_bytes()).sum();
        let tape_bytes: u64 = named().map(|p| p.tape_bytes).sum();
        let window = (t1 - t0).max(1e-9);
        rows.push(StageRow {
            op,
            stage: name.to_string(),
            elapsed: t1 - t0,
            cpu_util: trace.utilization(cpu, t0, t1),
            disk_mb_s: disk_bytes as f64 / MIB as f64 / window,
            tape_mb_s: tape_bytes as f64 / MIB as f64 / window,
        });
    }
    SimOp {
        rows,
        windows,
        timelines: obs::timelines_from_trace(&trace),
        attribution: obs::attribute(op, &trace),
        elapsed: trace.makespan(),
    }
}

/// Scales a profiler's stages to paper size.
fn scaled_stages(stages: &[StageProfile], factor: f64) -> Vec<StageProfile> {
    stages.iter().map(|p| p.scaled(factor)).collect()
}

/// One of the paper's four operations as the functional pass measured it.
pub struct OpRun {
    /// Row label in Tables 2, 4 and 5 and the network table
    /// ("Logical Backup").
    pub name: &'static str,
    /// Row label in Table 3, which names the program ("Logical Dump").
    pub program: &'static str,
    /// Which calibration the solver applies.
    pub kind: OpKind,
    /// Whole-volume stage profiles, unscaled.
    pub stages: Vec<StageProfile>,
    /// Whole-volume span forest (for the obs artifact).
    pub spans: Vec<obs::Span>,
    /// Trace events drained after the operation (empty when tracing is
    /// off; span ids refer to `spans`).
    pub events: Vec<obs::event::Event>,
    /// Data moved, in bytes at paper scale.
    pub bytes: u64,
    /// Per-qtree stage profiles: what the parallel tables distribute over
    /// drives for the logical operations (empty for the physical ones,
    /// whose image stream is striped instead).
    pub parts: Vec<Vec<StageProfile>>,
}

impl OpRun {
    /// An operation that just finished: takes its profile and drains the
    /// trace events it left behind.
    fn finished(
        name: &'static str,
        program: &'static str,
        kind: OpKind,
        profiler: &Profiler,
        bytes: u64,
    ) -> OpRun {
        OpRun {
            name,
            program,
            kind,
            stages: profiler.stages(),
            spans: profiler.spans(),
            events: obs::event::drain().events,
            bytes,
            parts: Vec::new(),
        }
    }

    fn is_logical(&self) -> bool {
        matches!(self.kind, OpKind::LogicalDump | OpKind::LogicalRestore)
    }
}

/// Everything measured from one functional pass over a built volume.
pub struct FunctionalRuns {
    /// Logical backup, logical restore, physical backup, physical
    /// restore — the row order of every table.
    pub ops: [OpRun; 4],
    /// Files dumped.
    pub files: u64,
}

/// Runs every functional backup/restore pass the tables need.
pub fn functional_runs(home: &mut BuiltVolume) -> FunctionalRuns {
    let geometry = home.profile.geometry.clone();
    let factor = home.paper_factor();
    let paper_bytes = |blocks: u64| (blocks as f64 * 4096.0 * factor) as u64;
    let mut catalog = DumpCatalog::new();
    let tape_blank = 64 * (1u64 << 30);

    // Shed anything the build phase emitted: the per-operation drains
    // below must only see their own operation's events.
    let _ = obs::event::drain();

    eprintln!("[run] logical dump (whole volume)...");
    let mut tape_l = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
    let ld = dump(
        &mut home.fs,
        &mut tape_l,
        &mut catalog,
        &DumpOptions {
            volume_name: home.profile.name.clone(),
            ..DumpOptions::default()
        },
    )
    .expect("logical dump");
    let logical_bytes = paper_bytes(ld.data_blocks);
    let mut logical_dump = OpRun::finished(
        "Logical Backup",
        "Logical Dump",
        OpKind::LogicalDump,
        &ld.profiler,
        logical_bytes,
    );

    eprintln!("[run] logical restore (whole volume)...");
    let mut fresh = Wafl::format_with(
        Volume::new(geometry.clone()),
        WaflConfig::default(),
        home.fs.meter(),
        CostModel::f630(),
    )
    .expect("format restore target");
    let lr = restore(&mut fresh, &mut tape_l, "/").expect("logical restore");
    drop(fresh);
    drop(tape_l);
    let mut logical_restore = OpRun::finished(
        "Logical Restore",
        "Logical Restore",
        OpKind::LogicalRestore,
        &lr.profiler,
        logical_bytes,
    );

    eprintln!("[run] image dump...");
    let mut tape_p = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
    let pd = image_dump_full(&mut home.fs, &mut tape_p, "image.base").expect("image dump");
    let physical_bytes = paper_bytes(pd.blocks);
    let physical_dump = OpRun::finished(
        "Physical Backup",
        "Physical Dump",
        OpKind::PhysicalDump,
        &pd.profiler,
        physical_bytes,
    );

    eprintln!("[run] image restore...");
    let mut fresh_vol = Volume::new(geometry.clone());
    let meter = home.fs.meter();
    let pr = image_restore(&mut tape_p, &mut fresh_vol, &meter, &CostModel::f630())
        .expect("image restore");
    drop(fresh_vol);
    drop(tape_p);
    let physical_restore = OpRun::finished(
        "Physical Restore",
        "Physical Restore",
        OpKind::PhysicalRestore,
        &pr.profiler,
        physical_bytes,
    );

    // Per-qtree passes for the parallel tables.
    if !home.outcome.qtree_paths.is_empty() {
        let mut target = Wafl::format_with(
            Volume::new(geometry),
            WaflConfig::default(),
            home.fs.meter(),
            CostModel::f630(),
        )
        .expect("format qtree restore target");
        for (i, q) in home.outcome.qtree_paths.clone().iter().enumerate() {
            eprintln!("[run] logical dump + restore of {q}...");
            obs::event::set_stream(i as u32);
            let mut tape = TapeDrive::new(TapePerf::dlt7000(), tape_blank);
            let out = dump(
                &mut home.fs,
                &mut tape,
                &mut catalog,
                &DumpOptions {
                    subtree: q.clone(),
                    volume_name: home.profile.name.clone(),
                    ..DumpOptions::default()
                },
            )
            .expect("qtree dump");
            let scratch = format!("q{i}");
            target
                .create(INO_ROOT, &scratch, FileType::Dir, Attrs::default())
                .expect("scratch dir");
            let rout = restore(&mut target, &mut tape, &scratch).expect("qtree restore");
            logical_dump.parts.push(out.profiler.stages());
            logical_restore.parts.push(rout.profiler.stages());
        }
        // The per-qtree spans do not survive into the merged parallel
        // streams, so their events have nothing to attach to; discard.
        obs::event::set_stream(0);
        let _ = obs::event::drain();
    }

    FunctionalRuns {
        ops: [
            logical_dump,
            logical_restore,
            physical_dump,
            physical_restore,
        ],
        files: ld.files,
    }
}

/// Runs the single-drive experiments (Tables 2 and 3).
pub fn run_basic(
    home: &mut BuiltVolume,
    runs: &FunctionalRuns,
    model: &FilerModel,
) -> BasicResults {
    let factor = home.paper_factor();
    let arms = home.profile.geometry.total_disks() as f64;

    let sims: Vec<SimOp> = runs
        .ops
        .iter()
        .map(|op| {
            let streams = [scaled_stages(&op.stages, factor)];
            simulate_op(op.program, &streams, arms, op.kind, model)
        })
        .collect();
    let (obs, trace_events) = crate::obsout::assemble("basic", factor, &runs.ops, &sims);
    let table2 = runs
        .ops
        .iter()
        .zip(&sims)
        .map(|(op, sim)| OpSummary {
            name: op.name,
            elapsed: sim.elapsed,
            mb_s: simkit::units::mib_per_sec(op.bytes, sim.elapsed),
            gb_h: simkit::units::gib_per_hour(op.bytes, sim.elapsed),
        })
        .collect();

    BasicResults {
        table2,
        attribs: sims.iter().map(|s| s.attribution.clone()).collect(),
        table3: sims.into_iter().flat_map(|s| s.rows).collect(),
        logical_bytes: runs.ops[0].bytes,
        physical_bytes: runs.ops[2].bytes,
        files: (runs.files as f64 * factor) as u64,
        frag: home.frag,
        obs,
        trace_events,
    }
}

/// Results for a parallel experiment (Tables 4 and 5).
#[derive(Debug)]
pub struct ParallelResults {
    /// Tape drives used.
    pub n_drives: usize,
    /// Stage rows across all four operations.
    pub rows: Vec<StageRow>,
    /// Logical backup throughput, GB/h.
    pub logical_gb_h: f64,
    /// Physical backup throughput, GB/h.
    pub physical_gb_h: f64,
    /// Logical restore makespan, seconds.
    pub logical_restore_elapsed: f64,
    /// Physical restore makespan, seconds.
    pub physical_restore_elapsed: f64,
    /// Spans-only observability artifact (operation roots with their
    /// solved stage windows; the runners rename and write it).
    pub obs: obs::Artifact,
    /// Per-operation bottleneck attribution, in table order (Logical
    /// Backup, Logical Restore, Physical Backup, Physical Restore).
    pub attribs: Vec<obs::OpAttribution>,
}

/// Distributes `parts` (per-qtree stage lists) over `n` streams, merging
/// the qtrees assigned to one drive into a single combined dump (the
/// operator makes "n equal sized independent pieces": with 2 drives each
/// piece is two qtrees dumped as one stream).
fn merge_into_streams(
    parts: &[Vec<StageProfile>],
    n: usize,
    factor: f64,
) -> Vec<Vec<StageProfile>> {
    let mut streams: Vec<Vec<StageProfile>> = vec![Vec::new(); n];
    for (i, part) in parts.iter().enumerate() {
        let target = &mut streams[i % n];
        for p in scaled_stages(part, factor) {
            if let Some(existing) = target.iter_mut().find(|e| e.name == p.name) {
                existing.cpu_secs += p.cpu_secs;
                existing.disk_seq_read += p.disk_seq_read;
                existing.disk_rand_read += p.disk_rand_read;
                existing.disk_seq_write += p.disk_seq_write;
                existing.disk_rand_write += p.disk_rand_write;
                existing.tape_bytes += p.tape_bytes;
                existing.files += p.files;
                existing.dirs += p.dirs;
                existing.blocks += p.blocks;
            } else {
                target.push(p);
            }
        }
    }
    streams
}

/// Runs a parallel experiment with `n` tape drives.
///
/// Logical work is the volume's qtrees distributed over the drives (the
/// paper's "4 equal sized independent pieces"); physical work is the image
/// stream striped evenly. Either way the per-dump snapshot rows drop out
/// (the paper's parallel tables omit them too).
pub fn run_parallel(
    home: &mut BuiltVolume,
    runs: &FunctionalRuns,
    model: &FilerModel,
    n: usize,
) -> ParallelResults {
    assert!(n >= 1);
    let factor = home.paper_factor();
    let arms = home.profile.geometry.total_disks() as f64;

    let sims: Vec<SimOp> = runs
        .ops
        .iter()
        .map(|op| {
            let mut streams = if op.is_logical() {
                merge_into_streams(&op.parts, n, factor)
            } else {
                vec![scaled_stages(&op.stages, factor / n as f64); n]
            };
            for s in &mut streams {
                s.retain(|p| !p.name.contains("snapshot"));
            }
            simulate_op(op.name, &streams, arms, op.kind, model)
        })
        .collect();

    let named: Vec<(&str, &SimOp)> = runs.ops.iter().map(|op| op.name).zip(&sims).collect();
    let obs = crate::obsout::assemble_sim_only(&format!("parallel{n}"), &named);
    ParallelResults {
        n_drives: n,
        logical_gb_h: simkit::units::gib_per_hour(runs.ops[0].bytes, sims[0].elapsed),
        physical_gb_h: simkit::units::gib_per_hour(runs.ops[2].bytes, sims[2].elapsed),
        logical_restore_elapsed: sims[1].elapsed,
        physical_restore_elapsed: sims[3].elapsed,
        obs,
        attribs: sims.iter().map(|s| s.attribution.clone()).collect(),
        rows: sims.into_iter().flat_map(|s| s.rows).collect(),
    }
}

/// One point of the scaling study (§5.3 summary).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Strategy name.
    pub strategy: &'static str,
    /// Tape drives.
    pub drives: usize,
    /// Backup throughput, GB/h.
    pub gb_h: f64,
    /// Per-drive throughput, GB/h.
    pub per_tape: f64,
}

/// Sweeps drive counts for both strategies.
pub fn run_scaling(
    home: &mut BuiltVolume,
    runs: &FunctionalRuns,
    model: &FilerModel,
) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for n in [1usize, 2, 4] {
        let r = run_parallel(home, runs, model, n);
        points.push(ScalePoint {
            strategy: "logical",
            drives: n,
            gb_h: r.logical_gb_h,
            per_tape: r.logical_gb_h / n as f64,
        });
    }
    for n in 1..=6usize {
        let r = run_parallel(home, runs, model, n);
        points.push(ScalePoint {
            strategy: "physical",
            drives: n,
            gb_h: r.physical_gb_h,
            per_tape: r.physical_gb_h / n as f64,
        });
    }
    points
}

/// Convenience: build `home` and run everything the single-volume tables
/// need.
pub fn prepare(scale: f64, seed: u64) -> (BuiltVolume, FunctionalRuns) {
    let mut home = build_home(scale, seed);
    let runs = functional_runs(&mut home);
    (home, runs)
}

/// The network links the crossover table and sweep evaluate, as
/// `(target label, decimal Mbit/s)`. Labels are the same names
/// [`backup_core::Target::parse`] accepts.
pub const NET_LINKS: &[(&str, f64)] =
    &[("100mbit", 100.0), ("1gbit", 1000.0), ("10gbit", 10_000.0)];

/// The preset [`LinkSpec`] behind one of the [`NET_LINKS`] labels.
fn link_for(label: &str) -> LinkSpec {
    match backup_core::Target::parse(label) {
        Some(backup_core::Target::Net(spec)) => spec,
        _ => unreachable!("NET_LINKS entries are net targets"),
    }
}

/// One row of the tape-vs-network crossover table.
#[derive(Debug, Clone)]
pub struct NetRow {
    /// Operation name.
    pub op: &'static str,
    /// Target label ("tape", "100mbit", "1gbit", "10gbit").
    pub target: String,
    /// Makespan, seconds.
    pub elapsed: f64,
    /// Data moved / elapsed, MB/s.
    pub mb_s: f64,
    /// Dominant binding class over the run ("tape", "net", "disk", ...).
    pub dominant: String,
    /// Class critical-path shares, for the per-cell attribution column.
    pub class_shares: Vec<(String, f64)>,
}

/// Results of the tape-vs-network experiment (`bench net`).
#[derive(Debug)]
pub struct NetResults {
    /// Crossover-table rows, operation-major then target in
    /// tape-first, ascending-bandwidth order.
    pub rows: Vec<NetRow>,
    /// Per-cell attribution under the "table_net" name; ops are
    /// labelled `"<op> @ <target>"` so a claim can pin one cell.
    pub table: obs::AttribReport,
    /// The link-bandwidth sweep (param = decimal Mbit/s, base op
    /// labels) driving crossover detection and the claims gate.
    pub sweep: obs::SweepReport,
    /// Spans-only obs artifact ("table_net"), one root span per cell.
    pub obs: obs::Artifact,
}

/// Runs every operation against tape and each [`NET_LINKS`] link off
/// the same functional pass the other tables use: the tape cells are
/// the exact single-drive solves of [`run_basic`], the net cells swap
/// the drive for a shared link ([`Medium::Link`]).
pub fn run_net(home: &mut BuiltVolume, runs: &FunctionalRuns, model: &FilerModel) -> NetResults {
    let factor = home.paper_factor();
    let arms = home.profile.geometry.total_disks() as f64;

    let mut rows = Vec::new();
    let mut sims: Vec<(String, SimOp)> = Vec::new();
    let mut sweep_ops: Vec<Vec<obs::OpAttribution>> = vec![Vec::new(); NET_LINKS.len()];
    let links = NET_LINKS
        .iter()
        .map(|(label, _)| (*label, Medium::Link(link_for(label))));
    let media: Vec<(&str, Medium)> = [("tape", Medium::Tape)].into_iter().chain(links).collect();
    for op in &runs.ops {
        let streams = [scaled_stages(&op.stages, factor)];
        for (mi, &(target, medium)) in media.iter().enumerate() {
            let sim = simulate_on(medium, op.name, &streams, arms, op.kind, model);
            rows.push(NetRow {
                op: op.name,
                target: target.to_string(),
                elapsed: sim.elapsed,
                mb_s: simkit::units::mib_per_sec(op.bytes, sim.elapsed),
                dominant: sim.attribution.dominant(),
                class_shares: sim.attribution.class_shares.clone(),
            });
            // media[0] is the drive; the sweep runs over the links after it.
            if mi > 0 {
                sweep_ops[mi - 1].push(sim.attribution.clone());
            }
            sims.push((format!("{} @ {target}", op.name), sim));
        }
    }

    let table = obs::AttribReport {
        experiment: "table_net".to_string(),
        ops: sims
            .iter()
            .map(|(label, sim)| {
                let mut a = sim.attribution.clone();
                a.op = label.clone();
                a
            })
            .collect(),
    };
    let sweep = obs::SweepReport {
        experiment: "net_sweep".to_string(),
        param: "link_mbit".to_string(),
        points: NET_LINKS
            .iter()
            .zip(sweep_ops)
            .map(|((_, mbit), ops)| SweepPoint { param: *mbit, ops })
            .collect(),
    };
    let named: Vec<(&str, &SimOp)> = sims.iter().map(|(l, s)| (l.as_str(), s)).collect();
    let obs = crate::obsout::assemble_sim_only("table_net", &named);

    NetResults {
        rows,
        table,
        sweep,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared tiny prepared volume for the shape tests (building it is
    /// the expensive part).
    fn prepared() -> (BuiltVolume, FunctionalRuns) {
        prepare(1.0 / 1024.0, 7)
    }

    #[test]
    fn paper_shape_holds_end_to_end() {
        let (mut home, runs) = prepared();
        let model = FilerModel::f630();
        let basic = run_basic(&mut home, &runs, &model);

        let get = |name: &str| {
            basic
                .table2
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        let lb = get("Logical Backup");
        let lr = get("Logical Restore");
        let pb = get("Physical Backup");
        let pr = get("Physical Restore");

        // Table 2 shape: physical backup beats logical by roughly 20 %;
        // physical restore clearly beats logical restore.
        let backup_ratio = pb.mb_s / lb.mb_s;
        assert!(
            (1.05..1.6).contains(&backup_ratio),
            "backup ratio = {backup_ratio:.2}"
        );
        assert!(
            pr.mb_s > lr.mb_s * 1.2,
            "physical restore {:.2} must beat logical {:.2}",
            pr.mb_s,
            lr.mb_s
        );

        // Table 3 shape: CPU ratios. Logical dump's file pass uses several
        // times the CPU of physical dump's block pass.
        let stage = |op: &str, st: &str| {
            basic
                .table3
                .iter()
                .find(|r| r.op == op && r.stage == st)
                .unwrap_or_else(|| panic!("{op}/{st} missing"))
                .clone()
        };
        let files = stage("Logical Dump", "dumping files");
        let blocks = stage("Physical Dump", "dumping blocks");
        let cpu_ratio = files.cpu_util / blocks.cpu_util;
        assert!(
            (3.0..8.0).contains(&cpu_ratio),
            "cpu ratio = {cpu_ratio:.2}"
        );
        let fill = stage("Logical Restore", "filling in data");
        let rblocks = stage("Physical Restore", "restoring blocks");
        let restore_cpu_ratio = fill.cpu_util / rblocks.cpu_util;
        assert!(
            (2.0..6.0).contains(&restore_cpu_ratio),
            "restore cpu ratio = {restore_cpu_ratio:.2}"
        );

        // Both single-drive backups are tape-bound: tape throughput near
        // the drive's streaming rate.
        assert!(
            blocks.tape_mb_s > 7.5,
            "physical tape MB/s = {}",
            blocks.tape_mb_s
        );
        assert!(
            files.tape_mb_s > 6.0,
            "logical tape MB/s = {}",
            files.tape_mb_s
        );
    }

    #[test]
    fn obs_artifact_round_trips_and_covers_all_operations() {
        let (mut home, runs) = prepared();
        let basic = run_basic(&mut home, &runs, &FilerModel::f630());
        let mut artifact = basic.obs;
        artifact.experiment = "unit".into();

        // One root span per operation, plus the stage spans under them.
        for root in [
            "logical dump",
            "logical restore",
            "image dump",
            "image restore",
        ] {
            assert!(
                artifact
                    .spans
                    .iter()
                    .any(|s| s.parent.is_none() && s.name == root),
                "missing root span {root}"
            );
        }
        assert!(
            artifact.spans.len() >= 6,
            "only {} spans",
            artifact.spans.len()
        );

        // Operations are laid end to end on one monotonic time axis, and
        // every child span sits inside its parent's window.
        let total: f64 = artifact
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.t1 - s.t0)
            .sum();
        for s in &artifact.spans {
            assert!(
                s.t1 >= s.t0 && s.t0 >= 0.0 && s.t1 <= total + 1e-6,
                "{}: bad window",
                s.name
            );
            if let Some(p) = s.parent {
                let parent = &artifact.spans[p];
                assert!(
                    s.t0 >= parent.t0 - 1e-9 && s.t1 <= parent.t1 + 1e-9,
                    "{} outside parent {}",
                    s.name,
                    parent.name
                );
            }
        }

        // Per-resource utilization is present and covers the whole axis.
        assert!(artifact.timelines.iter().any(|t| t.resource == "cpu"));
        assert!(artifact.timelines.iter().any(|t| t.resource == "disk"));
        assert!(artifact.timelines.iter().any(|t| t.resource == "tape0"));
        for tl in &artifact.timelines {
            assert!(tl.peak() <= 1.0 + 1e-9, "{} over capacity", tl.resource);
        }

        // The whole document survives the dependency-free JSON round trip.
        let text = artifact.to_json().render();
        let back = obs::Artifact::from_json(&obs::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn trace_events_land_inside_their_spans() {
        // Tracing state is thread-local, so enabling here cannot leak into
        // the other tests.
        obs::event::enable(obs::event::EventConfig::default());
        let (mut home, runs) = prepared();
        let basic = run_basic(&mut home, &runs, &FilerModel::f630());
        obs::event::disable();

        assert!(
            !basic.trace_events.is_empty(),
            "a traced run must surface events"
        );
        let spans = &basic.obs.spans;
        let mut seen_kinds = std::collections::BTreeSet::new();
        for te in &basic.trace_events {
            let id = te.event.span.expect("assign_times drops spanless events");
            let span = spans.get(id).expect("event span id resolves");
            assert!(
                te.t >= span.t0 - 1e-9 && te.t <= span.t1 + 1e-9,
                "{} event at t={} outside span {} [{}, {}]",
                te.event.kind.name(),
                te.t,
                span.name,
                span.t0,
                span.t1
            );
            seen_kinds.insert(te.event.kind.name());
        }
        // The four operations exercise disk, tape, and the phase markers.
        for kind in ["block_read", "tape_write", "phase_begin", "phase_end"] {
            assert!(
                seen_kinds.contains(kind),
                "no {kind} events: {seen_kinds:?}"
            );
        }

        // Tracing also feeds the size/latency histograms.
        assert!(
            basic
                .obs
                .histograms
                .iter()
                .any(|h| h.name == "disk.service_secs" && h.count > 0),
            "histograms: {:?}",
            basic
                .obs
                .histograms
                .iter()
                .map(|h| &h.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_scaling_matches_the_paper() {
        let (mut home, runs) = prepared();
        let model = FilerModel::f630();
        let one = run_parallel(&mut home, &runs, &model, 1);
        let four = run_parallel(&mut home, &runs, &model, 4);

        // Physical scales nearly linearly; logical saturates.
        let phys_speedup = four.physical_gb_h / one.physical_gb_h;
        assert!(
            (3.2..4.05).contains(&phys_speedup),
            "physical x{phys_speedup:.2}"
        );
        let log_speedup = four.logical_gb_h / one.logical_gb_h;
        assert!(
            log_speedup < phys_speedup - 0.4,
            "logical x{log_speedup:.2} should trail physical x{phys_speedup:.2}"
        );

        // §5.3: at 4 drives physical per-tape beats logical per-tape by
        // ~1.6x (27.6 vs 17.4 GB/h/tape).
        let ratio = four.physical_gb_h / four.logical_gb_h;
        assert!((1.25..2.2).contains(&ratio), "4-drive ratio = {ratio:.2}");

        // The 4-drive logical file pass: high CPU, tape well under
        // streaming speed — "the bottleneck in this case must be the
        // disks".
        let files = four
            .rows
            .iter()
            .find(|r| r.op == "Logical Backup" && r.stage == "dumping files")
            .expect("files row");
        assert!(files.cpu_util > 0.6, "cpu = {:.2}", files.cpu_util);
        let per_tape = files.tape_mb_s / 4.0;
        assert!(per_tape < 7.5, "per-tape MB/s = {per_tape:.2}");
    }
}
