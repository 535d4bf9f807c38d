//! The perf-regression gate's command line: diffs observability
//! artifacts against committed baselines (see [`crate::diff`]).
//!
//! ```text
//! bench benchdiff [OPTIONS] NEW BASELINE  compare two artifact files
//! bench benchdiff [OPTIONS] --dir DIR     compare every obs_<name>.json in
//!                                         DIR against its BENCH_<name>.json
//!
//! --tolerance PCT   per-stage relative tolerance in percent (default 1.0)
//! --bless           accept the drift: copy NEW over BASELINE and exit 0
//! --json PATH       also write the report(s) as JSON (CI artifact)
//! ```
//!
//! Exit status: 0 within tolerance (or blessed), 1 drift detected,
//! 2 usage or I/O error.

use std::path::Path;
use std::path::PathBuf;
use std::process::ExitCode;

use obs::Artifact;
use obs::Json;

use crate::cli::Args;
use crate::diff::diff;
use crate::diff::DiffOptions;
use crate::diff::DiffReport;

fn load(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc =
        Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    Artifact::from_json(&doc).map_err(|e| format!("{} is not an artifact: {e}", path.display()))
}

/// Compares one (new, baseline) pair; on `--bless` copies new over the
/// baseline instead of judging. Returns the report unless blessed away.
fn run_pair(
    new_path: &Path,
    base_path: &Path,
    options: DiffOptions,
    bless: bool,
) -> Result<Option<DiffReport>, String> {
    if bless {
        std::fs::copy(new_path, base_path).map_err(|e| {
            format!(
                "cannot bless {} -> {}: {e}",
                new_path.display(),
                base_path.display()
            )
        })?;
        eprintln!(
            "[benchdiff] blessed {} from {}",
            base_path.display(),
            new_path.display()
        );
        return Ok(None);
    }
    let new = load(new_path)?;
    let base = load(base_path)?;
    let report = diff(&new, &base, options);
    print!("{}", report.render());
    Ok(Some(report))
}

/// `BENCH_<name>.json` baselines in `dir`, each paired with its
/// `obs_<name>.json` sibling.
fn dir_pairs(dir: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    let mut pairs = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix("BENCH_") {
            pairs.push((dir.join(format!("obs_{rest}")), entry.path()));
        }
    }
    pairs.sort();
    if pairs.is_empty() {
        return Err(format!("no BENCH_*.json baselines under {}", dir.display()));
    }
    Ok(pairs)
}

/// Runs benchdiff on parsed arguments. Exit codes: 0 within tolerance
/// (or blessed), 1 drift detected; `Err` = usage or I/O error (exit 2).
pub fn run(a: &Args) -> Result<ExitCode, String> {
    let options = DiffOptions {
        tolerance: a.tolerance_pct.unwrap_or(1.0) / 100.0,
        ..DiffOptions::default()
    };
    let pairs = match (&a.dir, a.positional.as_slice()) {
        (Some(dir), []) => dir_pairs(dir)?,
        (None, [new, base]) => vec![(PathBuf::from(new), PathBuf::from(base))],
        _ => return Err("benchdiff expects either NEW BASELINE or --dir DIR".into()),
    };
    let mut reports = Vec::new();
    for (new_path, base_path) in &pairs {
        if let Some(report) = run_pair(new_path, base_path, options, a.bless)? {
            reports.push(report);
        }
    }
    if let Some(path) = &a.json {
        let doc = Json::Arr(reports.iter().map(DiffReport::to_json).collect());
        let mut text = doc.render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("[benchdiff] wrote {}", path.display());
    }
    Ok(if reports.iter().all(DiffReport::ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
