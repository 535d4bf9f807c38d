//! `bench explain`: render bottleneck timelines, detect crossovers, and
//! run the machine-checked claims gate.
//!
//! ```text
//! bench explain <target> [--check FILE] [--scale F] [--seed N] [--out-dir DIR]
//! ```
//!
//! A target is any experiment with an attributable view (see
//! [`targets`]), `sweep`, or `all`. The subcommand runs the same
//! [`pipeline`] the table runners select from (one measured pass,
//! untraced, on the calling thread), prints the per-stream bottleneck
//! timelines folded from the solver's binding records ([`obs::attrib`]),
//! and writes the machine-readable artifacts:
//!
//! - `results/ATTRIB_<table>.json` per requested table (the `net`
//!   target produces "table_net", per-cell `"<op> @ <target>"` labels),
//! - `results/ATTRIB_<name>.json` per computed sweep — the drive-count
//!   sweep ("sweep") and the link-bandwidth sweep ("net_sweep"),
//! - `results/metrics_explain.om` — the OpenMetrics exposition of the
//!   registry plus the attribution gauges.
//!
//! With `--check claims.toml` the paper's qualitative claims are
//! evaluated against the reports ([`crate::claims`]); any failure makes
//! the process exit 1, so CI can gate on "the reproduction still shows
//! what the paper showed" the same way `benchdiff` gates on throughput.
//!
//! Attribution is read-only over the solved traces: `explain` runs the
//! exact sims the tables run and tables 2–5 stay byte-identical.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use obs::attrib::SweepPoint;
use obs::AttribReport;
use obs::SweepReport;
use simkit::units::fmt_duration;

use crate::build::BuiltVolume;
use crate::calibrate::FilerModel;
use crate::claims;
use crate::cli::Args;
use crate::experiments::run_parallel;
use crate::experiments::FunctionalRuns;
use crate::obsout::write_text;
use crate::obsout::wrote;
use crate::runners::pipeline;
use crate::runners::Experiment;
use crate::runners::RunCfg;
use crate::runners::View;
use crate::runners::EXPERIMENTS;
use crate::runners::TABLE_SCALE;

/// Drive counts the crossover sweep evaluates (a superset of the
/// parallel tables' 2 and 4 drives).
pub const SWEEP_DRIVES: &[usize] = &[1, 2, 3, 4, 6];

/// The experiments whose view `bench explain <name>` attributes.
fn explainable() -> impl Iterator<Item = (&'static str, View)> {
    EXPERIMENTS
        .iter()
        .filter_map(|e| Some((e.name, e.explain?)))
}

/// Every target name `bench explain` accepts: the explainable
/// experiments, then the drive-count `sweep`, then `all` of those.
pub fn targets() -> Vec<&'static str> {
    explainable()
        .map(|(name, _)| name)
        .chain(["sweep", "all"])
        .collect()
}

/// The pipeline views a target name selects.
pub fn views_for(target: &str) -> Option<Vec<View>> {
    match target {
        "sweep" => Some(vec![View::Sweep]),
        "all" => Some(
            explainable()
                .map(|(_, view)| view)
                .chain([View::Sweep])
                .collect(),
        ),
        name => Some(vec![Experiment::find(name)?.explain?]),
    }
}

/// Everything `bench explain` computes: attribution reports keyed by
/// table name, plus the sweeps keyed by sweep name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reports {
    /// Per-table attribution ("table2" .. "table5", "table_net").
    pub tables: BTreeMap<String, AttribReport>,
    /// Computed sweeps by name ("sweep" = drive count, "net_sweep" =
    /// link bandwidth).
    pub sweeps: BTreeMap<String, SweepReport>,
}

/// Runs the drive-count sweep: every operation of the parallel
/// experiment at each of [`SWEEP_DRIVES`].
pub fn sweep(home: &mut BuiltVolume, runs: &FunctionalRuns, model: &FilerModel) -> SweepReport {
    let points = SWEEP_DRIVES
        .iter()
        .map(|&n| SweepPoint {
            param: n as f64,
            ops: run_parallel(home, runs, model, n).attribs,
        })
        .collect();
    SweepReport {
        experiment: "sweep".to_string(),
        param: "drives".to_string(),
        points,
    }
}

fn fmt_utils(utils: &[(String, f64)]) -> String {
    let mut parts = Vec::new();
    for (name, u) in utils {
        if *u >= 0.005 {
            parts.push(format!("{name} {:.0}%", u * 100.0));
        }
    }
    if parts.is_empty() {
        "(idle)".to_string()
    } else {
        parts.join("  ")
    }
}

fn fmt_shares(shares: &[(String, f64)]) -> String {
    shares
        .iter()
        .filter(|(_, s)| *s >= 0.0005)
        .map(|(label, s)| format!("{label} {:.1}%", s * 100.0))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders one table's bottleneck timelines as text.
pub fn render_report(r: &AttribReport) -> String {
    let mut out = String::new();
    let title = format!("Bottleneck attribution: {}", r.experiment);
    out.push_str(&format!("\n{title}\n{}\n", "-".repeat(title.len())));
    for a in &r.ops {
        out.push_str(&format!(
            "{:<18} makespan {:>12}   dominant: {}\n",
            a.op,
            fmt_duration(a.makespan),
            a.dominant()
        ));
        out.push_str(&format!(
            "  critical-path shares: {}\n",
            fmt_shares(&a.shares)
        ));
        for st in &a.streams {
            out.push_str(&format!("  {}\n", st.stream));
            for seg in &st.segments {
                out.push_str(&format!(
                    "    {:>12} .. {:<12}  {:<8} {}\n",
                    fmt_duration(seg.t0),
                    fmt_duration(seg.t1),
                    seg.binding.label(),
                    fmt_utils(&seg.utils)
                ));
            }
        }
    }
    out
}

/// Renders the sweep: the dominant binding of every op at every point,
/// plus the detected crossovers.
pub fn render_sweep(s: &SweepReport) -> String {
    let mut out = String::new();
    let title = format!(
        "Crossover sweep over {} ({})",
        s.param,
        s.points
            .iter()
            .map(|p| format!("{}", p.param))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str(&format!("\n{title}\n{}\n", "-".repeat(title.len())));
    out.push_str(&format!("{:<18}", "op \\ dominant"));
    for p in &s.points {
        out.push_str(&format!(" {:>10}", format!("{}={}", s.param, p.param)));
    }
    out.push('\n');
    for op in s.op_names() {
        out.push_str(&format!("{op:<18}"));
        for p in &s.points {
            let dom = p
                .ops
                .iter()
                .find(|a| a.op == op)
                .map(|a| a.dominant())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(" {dom:>10}"));
        }
        out.push('\n');
    }
    out.push_str(&render_crossovers(s, "no crossovers detected"));
    out
}

/// One line per detected crossover along the sweep, or `none` alone.
pub fn render_crossovers(s: &SweepReport, none: &str) -> String {
    let mut out = String::new();
    for op in s.op_names() {
        for x in s.crossovers(&op) {
            out.push_str(&format!(
                "crossover: {op}: {} -> {} between {}={} and {}\n",
                x.from, x.to, s.param, x.param_lo, x.param_hi
            ));
        }
    }
    if out.is_empty() {
        out = format!("{none}\n");
    }
    out
}

/// Renders every computed report, tables first (sorted by name), then
/// the sweeps (sorted by name).
pub fn render(reports: &Reports) -> String {
    let mut out = String::new();
    for r in reports.tables.values() {
        out.push_str(&render_report(r));
    }
    for s in reports.sweeps.values() {
        out.push_str(&render_sweep(s));
    }
    out
}

/// Writes the `ATTRIB_*.json` artifacts for every computed report; a
/// write that fails fails the run ([`wrote`]).
pub fn emit(out_dir: &Path, reports: &Reports) {
    for r in reports.tables.values() {
        let name = format!("ATTRIB_{}.json", r.experiment);
        wrote(&name, out_dir, r.write(out_dir));
    }
    for s in reports.sweeps.values() {
        let name = format!("ATTRIB_{}.json", s.experiment);
        wrote(&name, out_dir, s.write(out_dir));
    }
}

/// Writes `metrics_explain.om`: the OpenMetrics exposition of the full
/// metrics registry plus every computed attribution gauge.
fn emit_openmetrics(out_dir: &Path, reports: &Reports) {
    let mut gauges = Vec::new();
    for r in reports.tables.values() {
        gauges.extend(obs::openmetrics::attrib_gauges(r));
    }
    gauges.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
    let text = obs::openmetrics::render(
        &obs::metrics::typed_snapshot(),
        &obs::metrics::histogram_snapshots(),
        &gauges,
    );
    let name = "metrics_explain.om";
    wrote(name, out_dir, write_text(out_dir, name, text));
}

/// CLI entry point for `bench explain`. Exit codes: 0 = rendered (and
/// all claims passed), 1 = at least one claim failed; `Err` = usage or
/// claims-file parse error (exit 2).
pub fn run(a: &Args) -> Result<ExitCode, String> {
    let target = a.positional.first().ok_or("explain needs a target")?;
    let views = views_for(target).ok_or_else(|| format!("unknown explain target {target:?}"))?;

    // Parse the claims file *before* the expensive run.
    let gate = match &a.check {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let claims = claims::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            Some((path, claims))
        }
        None => None,
    };

    // The pass is measured here, on this thread: `emit_openmetrics` below
    // reads the registry the functional pass filled.
    let cfg = RunCfg::new(
        a.scale.unwrap_or(TABLE_SCALE),
        a.seed.unwrap_or(1999),
        &a.out_dir(),
    );
    let reports = pipeline(&cfg, &views, false).reports;
    print!("{}", render(&reports));
    emit(&cfg.out_dir, &reports);
    emit_openmetrics(&cfg.out_dir, &reports);

    if let Some((path, cs)) = gate {
        let results = claims::evaluate(&cs, &reports.tables, &reports.sweeps);
        let (text, failed) = claims::render(&results);
        println!("\nclaims gate ({}):", path.display());
        print!("{text}");
        if failed > 0 {
            return Ok(ExitCode::from(1));
        }
    }
    Ok(ExitCode::SUCCESS)
}
