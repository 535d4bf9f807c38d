//! Pins the API the repo benchmark (`benchmarks/`, a cargo package of its
//! own that no tier-1 command builds) compiles against. Nothing here runs
//! an experiment: each item is bound to the exact type the benchmark's
//! calls assume, so a signature that drifts stops *this* crate's tests
//! from compiling instead of surfacing when `benchmarks/run.sh` next runs.

use std::path::Path;
use std::rc::Rc;

use backup_core::report::StageProfile;
use bench::build::build_home;
use bench::calibrate::OpKind;
use bench::cli;
use bench::diff::diff;
use bench::diff::DiffOptions;
use bench::diff::DiffReport;
use bench::experiments;
use bench::experiments::BasicResults;
use bench::experiments::FunctionalRuns;
use bench::experiments::NetResults;
use bench::experiments::ParallelResults;
use bench::experiments::ScalePoint;
use bench::experiments::SimOp;
use bench::obsout;
use bench::pool;
use bench::pool::Job;
use bench::pool::JobResult;
use bench::tables::PAPER_TABLE2;
use bench::tables::PAPER_TABLE3;
use bench::tables::PAPER_TABLE4;
use bench::tables::PAPER_TABLE5;
// The crate-root re-exports are part of the pin.
use bench::BuiltVolume;
use bench::FilerModel;
use obs::Artifact;
use obs::TimedEvent;
use simkit::meter::Meter;
use wafl::Wafl;
use workload::populate::PopulateOutcome;
use workload::profile::VolumeProfile;

type Solve<R> = fn(&mut BuiltVolume, &FunctionalRuns, &FilerModel) -> R;

/// The benchmark builds a `BuiltVolume` with a struct literal: exactly
/// these six fields, of these types.
#[allow(dead_code)]
fn built_volume_fields(home: BuiltVolume) {
    let BuiltVolume {
        fs,
        profile,
        outcome,
        frag,
        scale,
        meter,
    } = home;
    let _: (Wafl, VolumeProfile, PopulateOutcome, f64, f64, Rc<Meter>) =
        (fs, profile, outcome, frag, scale, meter);
}

/// The fields the benchmark reads off the solves' results.
#[allow(dead_code)]
fn result_fields<'a>(
    basic: &'a BasicResults,
    parallel: &'a ParallelResults,
    net: &'a NetResults,
    job: JobResult,
) -> [&'a Artifact; 3] {
    let _: &Vec<TimedEvent> = &basic.trace_events;
    let JobResult {
        label,
        output,
        wall_secs,
    } = job;
    let _: (String, String, f64) = (label, output, wall_secs);
    [&basic.obs, &parallel.obs, &net.obs]
}

#[test]
fn the_functions_the_benchmark_calls_keep_their_signatures() {
    let _: fn(Option<f64>, Option<u64>, &Path) -> Vec<Job> = cli::all_jobs;
    let _: fn(Vec<Job>, usize) -> Vec<JobResult> = pool::run_jobs;
    let _: fn(&[JobResult]) -> String = cli::render_results;
    let _: fn(f64, u64) -> BuiltVolume = build_home;
    let _: fn(&BuiltVolume) -> f64 = BuiltVolume::paper_factor;
    let _: fn(&mut BuiltVolume) -> FunctionalRuns = experiments::functional_runs;
    let _: Solve<BasicResults> = experiments::run_basic;
    let _: fn(&mut BuiltVolume, &FunctionalRuns, &FilerModel, usize) -> ParallelResults =
        experiments::run_parallel;
    let _: Solve<Vec<ScalePoint>> = experiments::run_scaling;
    let _: Solve<NetResults> = experiments::run_net;
    let _: Solve<obs::SweepReport> = bench::explain::sweep;
    let _: fn(&'static str, &[Vec<StageProfile>], f64, OpKind, &FilerModel) -> SimOp =
        experiments::simulate_op;
    let _: fn(&Path, &Artifact) = obsout::emit_to;
    let _: fn(&Path, &Artifact, &[TimedEvent]) = obsout::emit_trace_to;
    let _: fn(&Artifact, &Artifact, DiffOptions) -> DiffReport = diff;
    let _: DiffOptions = DiffOptions::default();
    let _: fn() -> FilerModel = FilerModel::f630;
    let _: &[(&str, f64)] = PAPER_TABLE2;
    let _: [&[(&str, &str, f64, f64)]; 3] = [PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5];
}

#[test]
fn all_jobs_offers_tables_then_net() {
    let jobs = cli::all_jobs(Some(1.0 / 64.0), Some(7), &std::env::temp_dir());
    let picked: Vec<&str> = jobs
        .iter()
        .map(|j| j.label.as_str())
        .filter(|label| ["tables", "net"].contains(label))
        .collect();
    assert_eq!(picked, ["tables", "net"]);
}
