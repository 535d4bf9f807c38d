//! The layer ladder of a traced run: after the cycles, the block list of
//! the image dump (`iter_used()` order, sequential) and of the logical
//! dump (every file's extents in inode order, fragmented) is replayed
//! directly against each layer in turn — a standalone `SimDisk`, a
//! `Raid4Group`, `Volume::read_block`, the `snap_view` read path, then
//! the engines themselves — so that each layer's own cost is the
//! difference from the rung below, in host ns per 4 KiB block and, from
//! `busy_secs`, in simulated MB/s. The same pass measures the write-side
//! rungs, one incremental generation, and the `bench` pipeline one call
//! at a time.

use std::hint::black_box;
use std::path::Path;

use bench::experiments::functional_runs;
use bench::experiments::run_basic;
use bench::experiments::run_net;
use bench::experiments::run_parallel;
use bench::experiments::run_scaling;
use bench::obsout;
use bench::BuiltVolume;
use bench::FilerModel;
use blockdev::Block;
use blockdev::BlockDevice;
use blockdev::SimDisk;
use blockdev::BLOCK_SIZE;
use nvram::NvSized;
use nvram::NvramLog;
use obs::Artifact;
use obs::Json;
use raid::Raid4Group;
use raid::Volume;
use simkit::media::Chunk;
use simkit::media::Record;
use simkit::prelude::FluidSim;
use simkit::prelude::Stage;
use simkit::prelude::Stream;
use tape::TapeDrive;
use tape::TapePerf;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::INO_FIRST_USER;
use wafl::types::INO_ROOT;

use crate::host;
use crate::metrics::median;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workloads;
use crate::workloads::Cfg;
use crate::workloads::Chain;
use crate::workloads::Ops;
use crate::workloads::Sample;

/// Blocks per data record in both dump formats.
const BLOCKS_PER_RECORD: usize = 64;

fn ns_per(secs: f64, n: usize) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// Simulated MB/s of `bytes` moved in `busy` spindle-seconds spread over
/// `arms` spindles working in parallel.
fn sim_mb_s(bytes: f64, busy: f64, arms: f64) -> f64 {
    bytes / (1 << 20) as f64 / (busy / arms)
}

/// Read passes per rung: at least [`MIN_PASSES`], and on a small volume
/// as many more as fit in [`PASS_BUDGET_S`].
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 400;
const PASS_BUDGET_S: f64 = 0.2;

/// Reads `list` through `read`, several times over, keeping what came
/// back; returns the blocks and the wall seconds of the *fastest* pass.
/// The rungs are compared by subtraction and stand tens of ns a block
/// apart; interference only ever adds time, so the fastest pass is the
/// estimate of each rung that keeps their order.
fn replay<E: std::fmt::Debug>(
    t: &mut Tracer,
    span: &str,
    list: &[u64],
    mut read: impl FnMut(u64) -> Result<Block, E>,
) -> (Vec<Block>, f64) {
    let mut blocks = Vec::new();
    let (mut best, mut total, mut passes) = (f64::INFINITY, 0.0, 0);
    while passes < MIN_PASSES || (total < PASS_BUDGET_S && passes < MAX_PASSES) {
        let (out, secs) = t.span(span, |t| {
            let mut out = Vec::with_capacity(list.len());
            for &bno in list {
                out.push(read(bno).expect("ladder read"));
            }
            t.count("blocks", list.len() as f64);
            out
        });
        blocks = out;
        best = best.min(secs);
        total += secs;
        passes += 1;
    }
    (blocks, best)
}

/// The data blocks of every regular file, in inode order: the order the
/// logical dump reads an aged volume in.
fn logical_block_list(home: &BuiltVolume) -> Vec<u64> {
    let fs = &home.fs;
    let mut list = Vec::new();
    for ino in INO_FIRST_USER..fs.max_ino() {
        if !fs.inode_exists(ino) {
            continue;
        }
        if let Ok(extents) = fs.file_extents(ino) {
            list.extend(extents.into_iter().filter(|&b| b != 0).map(u64::from));
        }
    }
    list
}

/// Rungs 1–3: blockdev, RAID group, volume. Leaves `raid.*`,
/// `blockdev.*` and the simulated disk and volume rates in `v`.
fn device_rungs(home: &mut BuiltVolume, t: &mut Tracer, v: &mut Values) {
    let geometry = home.profile.geometry.clone();
    let capacity = geometry.capacity();
    let data_disks = geometry.data_disks() as f64;

    let ((seq, rand), secs) = t.span("ladder.block_lists", |t| {
        let (seq, secs) = t.span("wafl.blkmap.iter_used", |_| {
            home.fs.blkmap().iter_used().collect::<Vec<u64>>()
        });
        v.set("wafl.blkmap_iter_used_ms", secs * 1e3);
        (seq, logical_block_list(home))
    });
    eprintln!(
        "[ladder] {} used blocks, {} file blocks in inode order ({secs:.2}s)",
        seq.len(),
        rand.len()
    );

    // Rung 3 first: the built volume is where the real blocks are. What
    // it returns is what the rungs below are then filled with, so every
    // rung replays the same content.
    let vol = home.fs.volume_mut();
    let before = vol.data_stats();
    let (blocks, secs) = replay(t, "raid.volume.read_block[seq]", &seq, |b| {
        vol.read_block(b)
    });
    let d = vol.data_stats().since(&before);
    v.set("raid.volume_read_ns", ns_per(secs, seq.len()));
    v.set(
        "sim.volume_seq_mb_s",
        sim_mb_s(d.reads().bytes as f64, d.busy_secs, data_disks),
    );
    let before = vol.data_stats();
    let (_, _) = replay(t, "raid.volume.read_block[rand]", &rand, |b| {
        vol.read_block(b)
    });
    let d = vol.data_stats().since(&before);
    v.set(
        "sim.volume_rand_mb_s",
        sim_mb_s(d.reads().bytes as f64, d.busy_secs, data_disks),
    );

    // Rung 1: one standalone spindle as large as the volume.
    let perf = geometry.perf;
    let heap0 = host::alloc_totals().1;
    let mut disk = SimDisk::new(capacity, perf);
    let (_, secs) = t.span("blockdev.write", |_| {
        for (&bno, block) in seq.iter().zip(blocks) {
            disk.write(bno, block).expect("ladder write");
        }
    });
    v.set("blockdev.write_ns", ns_per(secs, seq.len()));
    // Heap the spindle asked for per block it now holds (the ladder runs
    // with allocation counting on).
    v.set(
        "blockdev.bytes_per_block",
        (host::alloc_totals().1 - heap0) as f64 / seq.len() as f64,
    );
    let before = disk.stats();
    let (blocks, secs) = replay(t, "blockdev.read[seq]", &seq, |b| disk.read(b));
    let d = disk.stats().since(&before);
    v.set("blockdev.seq_read_ns", ns_per(secs, seq.len()));
    v.set(
        "sim.disk_seq_mb_s",
        sim_mb_s(d.reads().bytes as f64, d.busy_secs, 1.0),
    );
    let before = disk.stats();
    let (_, secs) = replay(t, "blockdev.read[rand]", &rand, |b| disk.read(b));
    let d = disk.stats().since(&before);
    v.set("blockdev.rand_read_ns", ns_per(secs, rand.len()));
    v.set(
        "sim.disk_rand_mb_s",
        sim_mb_s(d.reads().bytes as f64, d.busy_secs, 1.0),
    );
    drop(disk);

    // Rung 2: one RAID-4 group as large as the volume, shaped like the
    // volume's first group.
    let ndata = geometry.groups[0].0;
    let mut group = Raid4Group::new(ndata, capacity.div_ceil(ndata as u64), perf);
    let (_, secs) = t.span("raid.group.write+flush", |_| {
        for (&bno, block) in seq.iter().zip(blocks) {
            group.write(bno, block).expect("ladder write");
        }
        group.flush().expect("ladder flush");
    });
    v.set("raid.group_write_ns", ns_per(secs, seq.len()));
    let (blocks, secs) = replay(t, "raid.group.read[seq]", &seq, |b| group.read(b));
    v.set("raid.group_read_ns", ns_per(secs, seq.len()));
    drop(group);

    // Rung 3, write side: a fresh volume of the same geometry.
    let mut fresh = Volume::new(geometry);
    let (_, secs) = t.span("raid.volume.write_block+sync", |_| {
        for (&bno, block) in seq.iter().zip(blocks) {
            fresh.write_block(bno, block).expect("ladder write");
        }
        fresh.sync().expect("ladder sync");
    });
    v.set("raid.volume_write_ns", ns_per(secs, seq.len()));
}

/// Rung 4, read side: every file block through a snapshot view, in inode
/// order, exactly as the logical dump's phase IV reaches it.
fn wafl_read_rung(home: &mut BuiltVolume, t: &mut Tracer, ops: &mut Ops, v: &mut Values) {
    let (r, secs) = t.span("wafl.snapshot_create", |_| {
        home.fs.snapshot_create("ladder.view")
    });
    let Some(id) = ops.check("ladder snapshot_create", r) else {
        return;
    };
    v.set("wafl.snap_create_ms", secs * 1e3);

    let (r, secs) = t.span("wafl.snap_view.read", |t| -> Result<u64, wafl::WaflError> {
        let mut view = home.fs.snap_view(id)?;
        let mut blocks = 0u64;
        for ino in INO_FIRST_USER..view.max_ino() {
            let Some(di) = view.read_inode(ino)? else {
                continue;
            };
            if di.ftype != Some(FileType::File) {
                continue;
            }
            let slots = view.file_slots(&di)?;
            for (fbn, &slot) in slots.iter().enumerate() {
                if slot != 0 {
                    black_box(view.read_file_block(&slots, fbn as u64)?);
                    blocks += 1;
                }
            }
        }
        t.count("blocks", blocks as f64);
        Ok(blocks)
    });
    if let Some(blocks) = ops.check("ladder snap_view read", r) {
        v.set("wafl.read_ns", ns_per(secs, blocks as usize));
    }

    let (r, secs) = t.span("wafl.snapshot_delete", |_| home.fs.snapshot_delete(id));
    if ops.check("ladder snapshot_delete", r).is_some() {
        v.set("wafl.snap_delete_ms", secs * 1e3);
    }
}

/// Rung 4, write side: `create`, `write_fbn` and `cp` on a fresh file
/// system of the workload's geometry.
fn wafl_write_rung(home: &BuiltVolume, t: &mut Tracer, ops: &mut Ops, v: &mut Values) {
    const FILES: usize = 2048;
    const ROUNDS: usize = 32;
    // 2048 blocks stay under the NVRAM watermark, so the only consistency
    // points are the explicit ones; a small volume is filled to a quarter.
    let blocks_per_round = (home.profile.geometry.capacity() as usize / (4 * ROUNDS)).min(2048);

    let r = wafl::Wafl::format_with(
        Volume::new(home.profile.geometry.clone()),
        wafl::types::WaflConfig::default(),
        home.fs.meter(),
        wafl::cost::CostModel::f630(),
    );
    let Some(mut fs) = ops.check("ladder format", r) else {
        return;
    };
    let cps0 = obs::counter("wafl.consistency_points").get();

    let (r, secs) = t.span("wafl.create", |_| {
        (0..FILES)
            .map(|i| {
                fs.create(
                    INO_ROOT,
                    &format!("f{i:05}"),
                    FileType::File,
                    Attrs::default(),
                )
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let Some(inos) = ops.check("ladder create", r) else {
        return;
    };
    v.set("wafl.create_us", secs * 1e6 / FILES as f64);

    let mut write_secs = 0.0;
    let mut cp_ms = Vec::new();
    for round in 0..ROUNDS {
        let (r, secs) = t.span("wafl.write_fbn", |_| {
            (0..blocks_per_round).try_for_each(|i| {
                let n = round * blocks_per_round + i;
                fs.write_fbn(
                    inos[n % FILES],
                    (n / FILES) as u64,
                    Block::Synthetic(n as u64),
                )
            })
        });
        if ops.check("ladder write_fbn", r).is_none() {
            return;
        }
        let (r, cp_secs) = t.span("wafl.cp", |_| fs.cp());
        if ops.check("ladder cp", r).is_none() {
            return;
        }
        write_secs += secs + cp_secs;
        cp_ms.push(cp_secs * 1e3);
    }
    v.set(
        "wafl.write_ns",
        ns_per(write_secs, ROUNDS * blocks_per_round),
    );
    v.set("wafl.cp_ms", median(&cp_ms));
    v.set(
        "wafl.cps",
        (obs::counter("wafl.consistency_points").get() - cps0) as f64,
    );
}

/// An NVRAM entry the size of one logged block write.
struct LoggedBlock;

impl NvSized for LoggedBlock {
    fn nv_bytes(&self) -> u64 {
        BLOCK_SIZE as u64 + 64
    }
}

/// `NvramLog::append` until full, `commit`, repeat.
fn nvram_rung(t: &mut Tracer, v: &mut Values) {
    const APPENDS: usize = 1 << 20;
    let mut log: NvramLog<LoggedBlock> = NvramLog::new(32 << 20);
    let (_, secs) = t.span("nvram.append+commit", |_| {
        for _ in 0..APPENDS {
            if log.append(LoggedBlock).is_err() {
                log.commit();
                log.append(LoggedBlock)
                    .expect("an empty log takes one entry");
            }
        }
        black_box(log.len());
    });
    v.set("nvram.append_ns", ns_per(secs, APPENDS));
}

/// `write_record`/`read_record` of 64-block synthetic records, as many as
/// the image dump of this volume writes.
fn tape_rung(records: usize, t: &mut Tracer, v: &mut Values) {
    let mut drive = TapeDrive::new(TapePerf::dlt7000(), 64 << 30);
    let record = |i: usize| {
        Record::from_chunks(
            (0..BLOCKS_PER_RECORD)
                .map(|b| Chunk::Synthetic {
                    seed: (i * BLOCKS_PER_RECORD + b) as u64,
                    len: BLOCK_SIZE as u32,
                })
                .collect(),
        )
    };
    let (_, secs) = t.span("tape.write_record", |_| {
        for i in 0..records {
            drive.write_record(record(i)).expect("ladder tape write");
        }
    });
    v.set("tape.write_ns", ns_per(secs, records));
    drive.rewind();
    let (_, secs) = t.span("tape.read_record", |_| {
        for _ in 0..records {
            black_box(drive.read_record().expect("ladder tape read"));
        }
    });
    v.set("tape.read_ns", ns_per(secs, records));
}

/// Rung 5: the engines. One incremental chain of two generations on the
/// built volume gives every `core.*` span, the churn cost, the bit-plane
/// difference scan and the simulated ratios the paper's argument rests on.
fn engine_rungs(
    home: &mut BuiltVolume,
    seed: u64,
    t: &mut Tracer,
    ops: &mut Ops,
    v: &mut Values,
) -> Option<()> {
    let mark = t.spans().len();
    let mut base = Sample::default();
    let mut chain = Chain::base(home, "rung", t, ops, &mut base)?;
    // Seconds and a count from the newest span of a name.
    let last = |t: &Tracer, from: usize, name: &str, key: &str| {
        let s = t.spans()[from..].iter().rev().find(|s| s.name == name)?;
        let n = s.counts.iter().find(|(k, _)| k == key).map(|(_, n)| *n);
        Some(((s.end_ns - s.start_ns) as f64 / 1e9, n))
    };
    let per_block = |t: &Tracer, name: &str, blocks: Option<f64>| {
        let (secs, counted) = last(t, mark, name, "blocks")?;
        Some(secs * 1e9 / blocks.or(counted)?)
    };
    let image_blocks = last(t, mark, "core.image_dump_full", "blocks")?.1;
    let file_blocks = last(t, mark, "core.logical_dump", "blocks")?.1;
    v.set_opt(
        "core.image_dump_ns",
        per_block(t, "core.image_dump_full", None),
    );
    v.set_opt(
        "core.image_restore_ns",
        per_block(t, "core.image_restore", None),
    );
    v.set_opt(
        "core.logical_dump_ns",
        per_block(t, "core.logical_dump", None),
    );
    v.set_opt(
        "core.logical_restore_ns",
        per_block(t, "core.logical_restore", None),
    );
    v.set_opt(
        "core.verify_blocks_ns",
        per_block(t, "core.compare_used_blocks", image_blocks),
    );
    v.set_opt(
        "core.verify_trees_ns",
        per_block(t, "core.compare_trees", file_blocks),
    );
    v.set_opt(
        "tape.records",
        last(t, mark, "core.image_dump_full", "media.records")?.1,
    );

    let stages = |op: &str| base.sim.ops.iter().find(|(o, _)| *o == op).map(|(_, s)| s);
    if let (Some(logical), Some(image)) = (stages("logical dump"), stages("image dump")) {
        let cpu =
            |s: &[backup_core::report::StageProfile]| -> f64 { s.iter().map(|p| p.cpu_secs).sum() };
        v.set("sim.logical_cpu_ratio", cpu(logical) / cpu(image));
        if let Some(p) = logical.iter().find(|p| p.name == "dumping files") {
            let (rand, seq) = (p.disk_rand_read as f64, p.disk_seq_read as f64);
            v.set("sim.logical_rand_share", rand / (rand + seq));
        }
    }

    let mark = t.spans().len();
    let mut incr = Sample::default();
    chain.generation(home, seed, 1, t, ops, &mut incr)?;
    v.set_opt(
        "workload.churn_s",
        last(t, mark, "workload.churn", "blocks_written").map(|(s, _)| s),
    );
    let (image_s, shipped) = last(t, mark, "core.image_dump_incremental", "blocks")?;
    v.set("core.incr_image_dump_ms", image_s * 1e3);
    v.set_opt(
        "core.incr_logical_dump_ms",
        last(t, mark, "core.logical_dump", "blocks").map(|(s, _)| s * 1e3),
    );
    let churned = last(t, mark, "workload.churn", "blocks_written")?.1;
    if let (Some(churned), Some(shipped)) = (churned, shipped) {
        v.set("core.incr_useful_ratio", churned / shipped);
    }

    // The full-map difference scan the next incremental would open with.
    if let Some(cur) = home.fs.snapshot_by_name("rung1").map(|s| s.id) {
        let (n, secs) = t.span("wafl.blkmap.iter_used_not_in", |_| {
            home.fs.blkmap().iter_used_not_in(cur).count()
        });
        black_box(n);
        v.set("wafl.blkmap_iter_diff_ms", secs * 1e3);
    }
    let r = chain.release(home, 1);
    ops.check("ladder snapshot_delete", r)?;
    Some(())
}

/// The 16-stream × 3-stage solve from `crates/bench/benches/micro.rs`.
fn fluid_rung(t: &mut Tracer, v: &mut Values) {
    let solve = || {
        let mut sim = FluidSim::new();
        let cpu = sim.add_resource("cpu", 1.0);
        let disk = sim.add_resource("disk", 31.0);
        for i in 0..16 {
            let tape = sim.add_resource(format!("t{i}"), 1.0);
            sim.add_stream(Stream {
                name: format!("s{i}"),
                start_at: i as f64 * 0.1,
                stages: vec![
                    Stage::new("a", 100.0, vec![(cpu, 0.002), (disk, 0.01)]),
                    Stage::new("b", 500.0, vec![(tape, 0.01), (cpu, 0.0005)]),
                    Stage::new("c", 50.0, vec![(disk, 0.02)]),
                ],
            });
        }
        sim.run().expect("fluid model solvable")
    };
    let ms: Vec<f64> = (0..9)
        .map(|_| {
            let (trace, secs) = t.span("simkit.fluid.run", |_| solve());
            black_box(trace);
            secs * 1e3
        })
        .collect();
    v.set("simkit.fluid_run_ms", median(&ms));
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// The `bench tables` + `bench net` pipeline one call at a time on the
/// built volume: functional pass (with and without event tracing), the
/// solves, artifact rendering and emission.
fn bench_rungs(home: &mut BuiltVolume, cfg: &Cfg, t: &mut Tracer, ops: &mut Ops, v: &mut Values) {
    // The functional pass keeps its image snapshot; release it between
    // the two passes and afterwards.
    let mut release = |home: &mut BuiltVolume| {
        let r = home
            .fs
            .snapshot_by_name("image.base")
            .map(|s| s.id)
            .ok_or_else(|| "functional_runs kept no image.base".to_string())
            .and_then(|id| home.fs.snapshot_delete(id).map_err(|e| e.to_string()));
        ops.check("ladder snapshot_delete", r);
    };
    let (plain, plain_s) = t.span("bench.functional_runs[events off]", |_| {
        functional_runs(home)
    });
    drop(plain);
    release(home);
    obs::event::enable(obs::event::EventConfig::default());
    let (runs, traced_s) = t.span("bench.functional_runs", |_| functional_runs(home));
    obs::event::disable();
    release(home);
    v.set("bench.functional_s", traced_s);
    v.set("obs.event_overhead_pct", (traced_s / plain_s - 1.0) * 100.0);

    let model = FilerModel::f630();
    let ((basic, t4, t5, net), secs) = t.span("bench.solve", |t| {
        let (basic, _) = t.span("bench.run_basic", |_| run_basic(home, &runs, &model));
        let (t4, _) = t.span("bench.run_parallel[2]", |_| {
            run_parallel(home, &runs, &model, 2)
        });
        let (t5, _) = t.span("bench.run_parallel[4]", |_| {
            run_parallel(home, &runs, &model, 4)
        });
        t.span("bench.run_scaling", |_| {
            black_box(run_scaling(home, &runs, &model))
        });
        t.span("bench.explain.sweep", |_| {
            black_box(bench::explain::sweep(home, &runs, &model))
        });
        let (net, _) = t.span("bench.run_net", |_| run_net(home, &runs, &model));
        (basic, t4, t5, net)
    });
    v.set("bench.solve_s", secs);

    let dir = cfg.out_dir.join(format!("ladder_{}", cfg.workload));
    let _ = std::fs::remove_dir_all(&dir);
    let named = |a: &Artifact, name: &str| {
        let mut a = a.clone();
        a.experiment = name.into();
        a
    };
    let (_, secs) = t.span("bench.emit", |_| {
        for name in ["table2", "table3"] {
            let a = named(&basic.obs, name);
            obsout::emit_to(&dir, &a);
            obsout::emit_trace_to(&dir, &a, &basic.trace_events);
        }
        for (r, name) in [(&t4, "table4"), (&t5, "table5")] {
            let a = named(&r.obs, name);
            obsout::emit_to(&dir, &a);
            obsout::emit_trace_to(&dir, &a, &[]);
        }
        obsout::emit_to(&dir, &net.obs);
    });
    v.set("bench.emit_s", secs);
    match dir_bytes(&dir) {
        Ok(bytes) => v.set("bench.artifact_mb", bytes as f64 / 1e6),
        Err(e) => eprintln!("[ledger] bench.artifact_mb omitted: {e}"),
    }

    let table2 = named(&basic.obs, "table2");
    let (text, secs) = t.span("obs.artifact.render", |_| table2.to_json().render());
    v.set("obs.render_ms", secs * 1e3);
    let (parsed, secs) = t.span("obs.artifact.parse", |_| {
        Json::parse(&text)
            .map_err(|e| format!("{e:?}"))
            .and_then(|doc| Artifact::from_json(&doc))
    });
    v.set("obs.parse_ms", secs * 1e3);
    let round_trip = parsed.and_then(|a| {
        if a == table2 {
            Ok(())
        } else {
            Err("artifact changed in a render/parse round trip".to_string())
        }
    });
    ops.check("ladder artifact round trip", round_trip);
}

/// Walks the ladder on `home` (or, for `tables`, on a volume built here)
/// and derives each layer's own cost. A negative one fails the run.
pub fn run(
    cfg: &Cfg,
    home: Option<&mut BuiltVolume>,
    t: &mut Tracer,
    ops: &mut Ops,
    v: &mut Values,
) {
    let mut own;
    let home = match home {
        Some(home) => home,
        None => {
            own = workloads::build(cfg, t);
            &mut own
        }
    };
    // The build spans were recorded during set-up, or just now.
    let secs_of = |t: &Tracer, name: &str| {
        t.spans()
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    };
    v.set_opt("workload.populate_s", secs_of(t, "workload.populate"));
    v.set_opt("workload.age_s", secs_of(t, "workload.age"));
    v.set_opt("bench.build_s", secs_of(t, "bench.build_home"));

    t.span("ladder.devices", |t| device_rungs(home, t, v));
    t.span("ladder.wafl", |t| {
        wafl_read_rung(home, t, ops, v);
        wafl_write_rung(home, t, ops, v);
    });
    t.span("ladder.nvram", |t| nvram_rung(t, v));
    t.span("ladder.engines", |t| {
        engine_rungs(home, cfg.seed, t, ops, v);
    });
    let records = v.get("tape.records").unwrap_or(0.0) as usize;
    t.span("ladder.tape", |t| tape_rung(records.max(1), t, v));
    t.span("ladder.fluid", |t| fluid_rung(t, v));
    t.span("ladder.bench", |t| bench_rungs(home, cfg, t, ops, v));

    // Each layer's own cost: the rung minus the rungs it stands on.
    let tape_per_block = v
        .get("tape.write_ns")
        .map(|ns| ns / BLOCKS_PER_RECORD as f64);
    let derived: [(&'static str, Option<f64>); 3] = [
        (
            "raid.self_read_ns",
            v.get("raid.volume_read_ns")
                .zip(v.get("blockdev.seq_read_ns"))
                .map(|(a, b)| a - b),
        ),
        (
            "core.image_self_ns",
            v.get("core.image_dump_ns")
                .zip(v.get("raid.volume_read_ns"))
                .zip(tape_per_block)
                .map(|((a, b), c)| a - b - c),
        ),
        (
            "core.logical_self_ns",
            v.get("core.logical_dump_ns")
                .zip(v.get("wafl.read_ns"))
                .zip(tape_per_block)
                .map(|((a, b), c)| a - b - c),
        ),
    ];
    for (name, value) in derived {
        v.set_opt(name, value);
        let sign = match value {
            Some(x) if x < 0.0 => Err(format!(
                "{name} = {x:.1} ns: a rung costs less than the one below"
            )),
            _ => Ok(()),
        };
        ops.check("ladder self cost", sign);
    }
    if let (Some(build), Some(functional), Some(solve), Some(emit)) = (
        v.get("bench.build_s"),
        v.get("bench.functional_s"),
        v.get("bench.solve_s"),
        v.get("bench.emit_s"),
    ) {
        // `tables` and `net` each build and run the functional pass; the
        // second build is the share a shared volume would save.
        let cycle = 2.0 * (build + functional) + solve + emit;
        v.set("bench.rebuild_share", build / cycle);
    }
}
