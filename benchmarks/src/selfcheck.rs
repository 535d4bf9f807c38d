//! `BENCHMARK.json` as the harness reads it, and `--selfcheck`: the
//! evidence that two sets of runs of the same code agree within the
//! benchmark's own bounds.

use std::path::Path;
use std::process::Command;

use obs::Json;

use crate::run::WORKLOADS;
use crate::workloads::Cfg;

/// One end-to-end metric of the contract.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The parsed `BENCHMARK.json`.
pub struct Contract {
    /// `end_to_end`, in file order.
    pub end_to_end: Vec<Metric>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

impl Contract {
    /// Reads `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{}: no {key} list", path.display()))
        };
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: a metric lacks {key}", path.display()))
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            end_to_end.push(Metric {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("{}: a metric lacks bound", path.display()))?,
            });
        }
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{}: no run_seconds", path.display()))?;
        Ok(Contract {
            end_to_end,
            run_seconds,
        })
    }

    /// The regression bound of an end-to-end metric.
    pub fn bound(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.bound)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no end-to-end metric {name}"))
    }
}

/// What one child run printed.
struct RunResult {
    metrics: Json,
    digest: String,
    failed: f64,
}

fn child(
    cfg: &Cfg,
    root: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    eprintln!("[selfcheck] {workload} seed {seed} ...");
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &cfg.scale.to_string()])
        .arg("--root")
        .arg(root)
        .arg("--out")
        .arg(cfg.out_dir.join("selfcheck"))
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .ok_or("no sim_digest line")?
        .to_string();
    Ok(RunResult {
        metrics: doc.get("metrics").cloned().ok_or("no metrics")?,
        digest,
        failed: doc
            .get("failed")
            .and_then(Json::as_num)
            .ok_or("no failed")?,
    })
}

/// Runs all four workloads twice with one seed and once with another (7);
/// prints, per workload and end-to-end metric, both values, their ratio
/// and PASS/FAIL against the bound. Simulated-clock metrics (`sim_*`)
/// must be bit-equal across the two sets, `sim_digest` equal across them
/// and different at the other seed. `Ok(true)` when everything passed.
pub fn run(cfg: &Cfg, root: &Path) -> Result<bool, String> {
    let other_seed: u64 = if cfg.seed == 7 { 1999 } else { 7 };
    let contract = Contract::load(root)?;
    let mut all_ok = true;
    println!(
        "{:<13} {:<19} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "ratio", "bound"
    );
    for workload in WORKLOADS {
        let a = child(cfg, root, workload, cfg.seed, contract.run_seconds)?;
        let b = child(cfg, root, workload, cfg.seed, contract.run_seconds)?;
        let c = child(cfg, root, workload, other_seed, contract.run_seconds)?;
        for m in &contract.end_to_end {
            let value = |r: &RunResult| {
                r.metrics
                    .get(&m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("{workload}: {} was not reported", m.name))
            };
            let (va, vb) = (value(&a)?, value(&b)?);
            let ratio = vb / va;
            let exact = m.name.starts_with("sim_");
            let ok = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                (ratio - 1.0).abs() <= m.bound
            };
            all_ok &= ok;
            println!(
                "{:<13} {:<19} {:>14.6} {:>14.6} {:>8.4} {:>7}  {}",
                workload,
                format!("{} [{}]", m.name, m.unit),
                va,
                vb,
                ratio,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.4}", m.bound)
                },
                if ok { "PASS" } else { "FAIL" }
            );
        }
        let same = a.digest == b.digest;
        let differs = a.digest != c.digest;
        let clean = a.failed + b.failed + c.failed == 0.0;
        all_ok &= same && differs && clean;
        println!(
            "{:<13} sim_digest    {:>16} {:>16}  seed {other_seed}: {}  {}",
            workload,
            a.digest,
            b.digest,
            c.digest,
            if same && differs { "PASS" } else { "FAIL" }
        );
        println!(
            "{:<13} ops_failed          {:>14} {:>14}  seed {other_seed}: {}  {}",
            workload,
            a.failed,
            b.failed,
            c.failed,
            if clean { "PASS" } else { "FAIL" }
        );
    }
    println!("selfcheck {}", if all_ok { "PASS" } else { "FAIL" });
    Ok(all_ok)
}
