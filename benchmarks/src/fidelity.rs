//! Simulated-clock fidelity: every elapsed-time cell the repository holds
//! from the paper (`bench::tables::PAPER_TABLE2..5`), paired with the time
//! the simulator gives for it. The model is validated, not merely
//! self-consistent, so the error is stated beside every simulated number.

use std::collections::BTreeMap;
use std::path::Path;

use bench::calibrate::OpKind;
use bench::diff::diff;
use bench::diff::DiffOptions;
use bench::experiments::simulate_op;
use bench::tables::PAPER_TABLE2;
use bench::tables::PAPER_TABLE3;
use bench::tables::PAPER_TABLE4;
use bench::tables::PAPER_TABLE5;
use bench::BuiltVolume;
use bench::FilerModel;
use obs::Artifact;
use obs::Json;

use crate::workloads::Cfg;
use crate::workloads::Ops;
use crate::workloads::SimRecord;

/// One paper cell and its simulated counterpart, both in seconds.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `tableN: op / stage`.
    pub name: String,
    /// Simulated elapsed seconds.
    pub sim: f64,
    /// The paper's elapsed seconds.
    pub paper: f64,
}

impl Cell {
    /// |simulated − paper| ÷ paper, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.sim - self.paper).abs() / self.paper * 100.0
    }

    /// The factor by which the simulated time misses the paper's, in
    /// whichever direction: `max(sim/paper, paper/sim)`, 1 = exact.
    ///
    /// This, not the percent error, is the gated form. The error of a
    /// good cell is the small difference of two nearly equal numbers and
    /// moves 13–47 % (interquartile, ten seeds) when the seed changes the
    /// volume by 1 %; the ratio moves 0.4–3 %.
    pub fn ratio(&self) -> f64 {
        (self.sim / self.paper).max(self.paper / self.sim)
    }
}

/// The shape of `PAPER_TABLE3..5`: operation, stage, elapsed seconds, CPU.
type StageCells = &'static [(&'static str, &'static str, f64, f64)];

/// The one paper cell with no simulated counterpart: the image dump keeps
/// its snapshot as the base of the next incremental, so it has no
/// "deleting snapshot" stage. Any other unpaired cell is an error.
const UNPAIRED: &[(&str, &str)] = &[("Physical Dump", "deleting snapshot")];

/// The four full operations: engine span name, Table 2 row, Table 3
/// operation group, solver kind.
const FULL_OPS: &[(&str, &str, &str, OpKind)] = &[
    (
        "logical dump",
        "Logical Backup",
        "Logical Dump",
        OpKind::LogicalDump,
    ),
    (
        "logical restore",
        "Logical Restore",
        "Logical Restore",
        OpKind::LogicalRestore,
    ),
    (
        "image dump",
        "Physical Backup",
        "Physical Dump",
        OpKind::PhysicalDump,
    ),
    (
        "image restore",
        "Physical Restore",
        "Physical Restore",
        OpKind::PhysicalRestore,
    ),
];

fn load(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    Artifact::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Span path → simulated elapsed (`t1 − t0`), with paths formed exactly
/// as `bench::diff::StageDelta` forms them (a self-diff yields them).
fn elapsed_by_path(a: &Artifact) -> BTreeMap<String, f64> {
    diff(a, a, DiffOptions::default())
        .stages
        .into_iter()
        .map(|s| (s.path, s.new_elapsed))
        .collect()
}

/// Pairs every paper cell with the emitted `obs_table{2,3,4,5}.json`
/// under `dir`.
pub fn cells_from_artifacts(dir: &Path) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    let table = |n: u8| load(&dir.join(format!("obs_table{n}.json"))).map(|a| elapsed_by_path(&a));

    // Table 2 by operation totals: the root span of each full operation.
    let t2 = table(2)?;
    for (row, paper) in PAPER_TABLE2 {
        let span = FULL_OPS
            .iter()
            .find(|(_, t2_row, _, _)| t2_row == row)
            .map(|(span, ..)| *span)
            .ok_or_else(|| format!("no engine operation for Table 2 row {row:?}"))?;
        let sim = t2
            .get(span)
            .ok_or_else(|| format!("obs_table2.json has no span {span:?}"))?;
        cells.push(Cell {
            name: format!("table2: {row}"),
            sim: *sim,
            paper: *paper,
        });
    }

    // Tables 3–5 by `op / stage` path. Table 3's artifact carries the
    // engines' own operation names, Tables 4–5 the paper's.
    let stage_tables: [(u8, StageCells); 3] =
        [(3, PAPER_TABLE3), (4, PAPER_TABLE4), (5, PAPER_TABLE5)];
    for (n, paper_rows) in stage_tables {
        let spans = table(n)?;
        for (op, stage, paper, _cpu) in paper_rows {
            let engine_op = FULL_OPS
                .iter()
                .find(|(_, _, t3_op, _)| t3_op == op)
                .map(|(span, ..)| *span);
            let sim = spans.get(&format!("{op} / {stage}")).or_else(|| {
                engine_op.and_then(|engine_op| spans.get(&format!("{engine_op} / {stage}")))
            });
            match sim {
                Some(sim) => cells.push(Cell {
                    name: format!("table{n}: {op} / {stage}"),
                    sim: *sim,
                    paper: *paper,
                }),
                None if UNPAIRED.contains(&(op, stage)) => {}
                None => return Err(format!("obs_table{n}.json has no span for {op} / {stage}")),
            }
        }
    }
    Ok(cells)
}

/// Pairs the Table 2 and Table 3 cells of whichever full operations
/// `rec` holds, by putting their measured stage profiles (scaled to paper
/// size) through the same single-drive solve `bench tables` uses.
pub fn cells_from_profiles(home: &BuiltVolume, rec: &SimRecord, ops: &mut Ops) -> Vec<Cell> {
    let model = FilerModel::f630();
    let arms = home.profile.geometry.total_disks() as f64;
    let mut cells = Vec::new();
    for (span, t2_row, t3_op, kind) in FULL_OPS {
        let Some((_, stages)) = rec.ops.iter().find(|(op, _)| op == span) else {
            continue;
        };
        let scaled = stages
            .iter()
            .map(|p| p.scaled(home.paper_factor()))
            .collect();
        let sim = simulate_op(t3_op, &[scaled], arms, *kind, &model);
        if let Some((_, paper)) = PAPER_TABLE2.iter().find(|(row, _)| row == t2_row) {
            cells.push(Cell {
                name: format!("table2: {t2_row}"),
                sim: sim.elapsed,
                paper: *paper,
            });
        }
        for (op, stage, paper, _cpu) in PAPER_TABLE3.iter().filter(|(op, ..)| op == t3_op) {
            match sim.rows.iter().find(|r| r.stage == *stage) {
                Some(row) => cells.push(Cell {
                    name: format!("table3: {op} / {stage}"),
                    sim: row.elapsed,
                    paper: *paper,
                }),
                None if UNPAIRED.contains(&(op, stage)) => {}
                None => {
                    ops.check::<(), _>(
                        "paper cell pairing",
                        Err(format!("{span} produced no stage {stage:?}")),
                    );
                }
            }
        }
    }
    if cells.is_empty() {
        ops.check::<(), _>("paper cell pairing", Err("no full operation to pair"));
    }
    cells
}

/// The artifacts benchdiff gates, as `(emitted, committed baseline)`.
const BASELINED: &[(&str, &str)] = &[
    ("obs_table2.json", "BENCH_table2.json"),
    ("obs_table3.json", "BENCH_table3.json"),
    ("obs_table4.json", "BENCH_table4.json"),
    ("obs_table5.json", "BENCH_table5.json"),
    ("obs_table_net.json", "BENCH_table_net.json"),
];

/// The seed and scale the committed baselines were produced with.
const BASELINE_SEED: u64 = 1999;
const BASELINE_SCALE: f64 = 1.0 / 32.0;

/// Compares each emitted artifact with its committed baseline at
/// benchdiff's default ±1 %. Only meaningful at the baselines' own seed
/// and scale; anywhere else the comparison is reported as skipped.
pub fn diff_against_baselines(cfg: &Cfg, dir: &Path, ops: &mut Ops) {
    if cfg.seed != BASELINE_SEED || cfg.scale != BASELINE_SCALE {
        ops.skip(format!(
            "baseline comparison (baselines are seed {BASELINE_SEED}, scale 1/32)"
        ));
        return;
    }
    for (emitted, baseline) in BASELINED {
        // A comparison that cannot run is a failed operation.
        let r = load(&dir.join(emitted)).and_then(|new| {
            let base = load(&cfg.baselines.join(baseline))?;
            let report = diff(&new, &base, DiffOptions::default());
            let worst = report
                .stages
                .iter()
                .map(|s| s.elapsed_rel.abs())
                .fold(0.0, f64::max);
            eprintln!(
                "[ledger] benchdiff {emitted}: largest stage delta {:+.4} %",
                worst * 100.0
            );
            if report.ok() {
                Ok(())
            } else {
                Err(report.problems.join("; "))
            }
        });
        ops.check(&format!("benchdiff {emitted}"), r);
    }
}
