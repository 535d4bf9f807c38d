//! The unified `bench` command line: one binary, one subcommand per
//! [`EXPERIMENTS`] entry, one flag parser, and a deterministic parallel
//! runner. [`usage`] prints the subcommands and the flags each accepts;
//! anything else — an unknown name, an unknown or inapplicable flag, a
//! stray argument — is a usage error (exit status 2).
//!
//! Every job — even a single subcommand — runs on a fresh thread through
//! [`crate::pool`], so thread-local obs state is always virgin and a
//! parallel `bench all --jobs 8` writes byte-identical artifacts and
//! stdout to a serial run. (Host wall-clock is measured from outside, by
//! `benchmarks/run.sh`; stdout stays deterministic.) The jobs of one
//! command line are handed one [`PassCell`], the single thing they share:
//! in `bench all`, `tables` measures the `home` volume and `net` renders
//! from the same pass instead of building it again.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use crate::pool;
use crate::pool::Job;
use crate::pool::JobResult;
use crate::runners::Experiment;
use crate::runners::PassCell;
use crate::runners::RunCfg;
use crate::runners::EXPERIMENTS;

/// Everything the command line can say after the subcommand. Each
/// subcommand accepts a subset of the flags (`RUN_FLAGS`,
/// `EXPLAIN_FLAGS`, `DIFF_FLAGS`) and reads only those fields.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--scale F`: fraction of the paper's 188 GB.
    pub scale: Option<f64>,
    /// `--seed N` (default 1999).
    pub seed: Option<u64>,
    /// `--seeds A,B,C`: one job per seed, for the per-seed experiments.
    pub seeds: Option<Vec<u64>>,
    /// `--out-dir DIR`; see [`Args::out_dir`].
    pub out_dir: Option<PathBuf>,
    /// `--jobs N`: experiments in flight at once (default 1).
    pub jobs: Option<usize>,
    /// `--spec FILE`: chaos fault-spec override.
    pub spec: Option<String>,
    /// `--target tape|100mbit|1gbit|10gbit`: the medium chaos runs against.
    pub target: Option<backup_core::Target>,
    /// `--check FILE`: the claims file `explain` gates on.
    pub check: Option<PathBuf>,
    /// `--tolerance PCT`: benchdiff's per-stage relative tolerance
    /// (default 1.0).
    pub tolerance_pct: Option<f64>,
    /// `--bless`: benchdiff copies NEW over BASELINE instead of judging.
    pub bless: bool,
    /// `--json PATH`: benchdiff also writes its report(s) as JSON.
    pub json: Option<PathBuf>,
    /// `--dir DIR`: benchdiff pairs every baseline under DIR.
    pub dir: Option<PathBuf>,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Where artifacts land: `--out-dir`, else `results`.
    pub fn out_dir(&self) -> PathBuf {
        self.out_dir.clone().unwrap_or_else(|| "results".into())
    }
}

/// Flags of `bench <experiment>` and `bench all`.
const RUN_FLAGS: &[&str] = &[
    "--scale",
    "--seed",
    "--seeds",
    "--jobs",
    "--out-dir",
    "--spec",
    "--target",
];
/// Flags of `bench explain <target>`.
const EXPLAIN_FLAGS: &[&str] = &["--check", "--scale", "--seed", "--out-dir"];
/// Flags of `bench benchdiff`.
const DIFF_FLAGS: &[&str] = &["--tolerance", "--bless", "--json", "--dir"];

/// The one flag-parsing loop: `allowed` is the subcommand's flag set and
/// `positionals` how many bare arguments it takes at most.
fn parse_args(args: &[String], allowed: &[&str], positionals: usize) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {flag} value: {v}"))
    }
    let mut a = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            if a.positional.len() == positionals {
                return Err(format!("unexpected argument {flag:?}"));
            }
            a.positional.push(arg.clone());
            continue;
        }
        if !allowed.contains(&flag) {
            return Err(format!("unknown flag: {flag}"));
        }
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--scale" => a.scale = Some(value(flag, v)?),
            "--seed" => a.seed = Some(value(flag, v)?),
            "--seeds" => {
                let seeds: Result<Vec<u64>, String> =
                    v.split(',').map(|s| value(flag, s.trim())).collect();
                a.seeds = Some(seeds?);
            }
            "--out-dir" => a.out_dir = Some(PathBuf::from(v)),
            "--jobs" => match value(flag, v)? {
                0 => return Err("--jobs must be at least 1".into()),
                n => a.jobs = Some(n),
            },
            "--spec" => a.spec = Some(v.clone()),
            "--target" => {
                a.target = Some(backup_core::Target::parse(v).ok_or_else(|| {
                    format!("--target takes tape, 100mbit, 1gbit, or 10gbit (got {v:?})")
                })?);
            }
            "--check" => a.check = Some(PathBuf::from(v)),
            "--tolerance" => match value::<f64>(flag, v)? {
                pct if pct.is_finite() && pct >= 0.0 => a.tolerance_pct = Some(pct),
                _ => return Err(format!("bad --tolerance value: {v}")),
            },
            "--json" => a.json = Some(PathBuf::from(v)),
            "--dir" => a.dir = Some(PathBuf::from(v)),
            _ => unreachable!("every allowed flag is parsed above"),
        }
    }
    Ok(a)
}

/// One job running `exp` with the flags in `a` and the given seed,
/// sharing `pass` with the other jobs of its command line.
fn job(exp: &'static Experiment, a: &Args, seed: u64, pass: &Arc<PassCell>) -> Job {
    let cfg = RunCfg {
        scale: a.scale.unwrap_or(exp.scale),
        seed,
        out_dir: a.out_dir(),
        spec_path: a.spec.clone(),
        target: a.target.unwrap_or_default(),
        pass: Arc::clone(pass),
    };
    Job {
        label: if exp.per_seed {
            format!("{} seed={seed}", exp.name)
        } else {
            exp.name.to_string()
        },
        run: Box::new(move || (exp.run)(&cfg)),
    }
}

/// The full experiment matrix for `bench all`. `--scale`/`--seed`
/// override every job; otherwise each keeps its standalone default.
/// Public so the parallel-determinism test (and the repo benchmark) can
/// run the exact job set in-process.
pub fn all_jobs(scale: Option<f64>, seed: Option<u64>, out_dir: &std::path::Path) -> Vec<Job> {
    let a = Args {
        scale,
        out_dir: Some(out_dir.to_path_buf()),
        ..Args::default()
    };
    let pass = Arc::default();
    EXPERIMENTS
        .iter()
        .filter(|e| e.in_all)
        .map(|e| job(e, &a, seed.unwrap_or(1999), &pass))
        .collect()
}

/// The jobs `bench <name>` stands for: the whole matrix for `all`, else
/// one experiment — fanned out over `--seeds` if its reports are
/// per-seed.
fn jobs_for(name: &str, a: &Args) -> Result<Vec<Job>, String> {
    let exp = Experiment::find(name);
    let seeds = match &a.seeds {
        Some(seeds) if exp.is_some_and(|e| e.per_seed) => seeds.clone(),
        Some(_) => {
            let seeded: Vec<&str> = per_seed_names().collect();
            return Err(format!("--seeds applies only to {}", seeded.join(", ")));
        }
        None => vec![a.seed.unwrap_or(1999)],
    };
    let pass = Arc::default();
    match exp {
        Some(exp) => Ok(seeds
            .into_iter()
            .map(|seed| job(exp, a, seed, &pass))
            .collect()),
        None if name == "all" => Ok(all_jobs(a.scale, a.seed, &a.out_dir())),
        None => Err(format!("unknown experiment {name:?}")),
    }
}

fn per_seed_names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().filter(|e| e.per_seed).map(|e| e.name)
}

/// Concatenates job outputs in submission order, each under a banner —
/// what `bench all` prints and what the determinism test compares.
pub fn render_results(results: &[JobResult]) -> String {
    let mut out = String::new();
    for r in results {
        if results.len() > 1 {
            out.push_str(&format!("\n===== bench {} =====\n", r.label));
        }
        out.push_str(&r.output);
    }
    out
}

/// The usage text, generated from the registry.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let seeded: Vec<&str> = per_seed_names().collect();
    format!(
        "usage: bench <experiment|all> [--scale F] [--seed N] [--jobs N] [--out-dir DIR]\n\
         \x20      bench <{}> [--seeds A,B,C] [--spec FILE] [--target tape|100mbit|1gbit|10gbit]\n\
         \x20      bench explain <{}> [--check FILE] [--scale F] [--seed N] [--out-dir DIR]\n\
         \x20      bench benchdiff [--tolerance PCT] [--bless] [--json PATH] (NEW BASELINE | --dir DIR)\n\
         experiments: {}",
        seeded.join("|"),
        crate::explain::targets().join("|"),
        names.join(" ")
    )
}

/// Runs one command line; `Err` is a usage error.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.replace('-', "_").as_str() {
        "benchdiff" => crate::diffcli::run(&parse_args(rest, DIFF_FLAGS, 2)?),
        "explain" => crate::explain::run(&parse_args(rest, EXPLAIN_FLAGS, 1)?),
        name => {
            let a = parse_args(rest, RUN_FLAGS, 0)?;
            let results = pool::run_jobs(jobs_for(name, &a)?, a.jobs.unwrap_or(1));
            print!("{}", render_results(&results));
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Entry point for the `bench` binary.
pub fn main_with_args(args: Vec<String>) -> ExitCode {
    run(&args).unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        eprintln!("{}", usage());
        ExitCode::from(2)
    })
}
