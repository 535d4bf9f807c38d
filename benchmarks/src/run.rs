//! One benchmark run: memory conditioning, set-up, warm-up, timed cycles
//! with verification inside them, the steady-state check, and the report.
//! Closed loop, one client, one thread.

use std::process::Command;
use std::time::Instant;

use obs::Json;

use crate::host;
use crate::ladder;
use crate::metrics::median;
use crate::metrics::Values;
use crate::metrics::END_TO_END;
use crate::metrics::PER_LAYER;
use crate::trace::Tracer;
use crate::workloads::Cfg;
use crate::workloads::ImageFull;
use crate::workloads::IncrChain;
use crate::workloads::LogicalFull;
use crate::workloads::Ops;
use crate::workloads::RepPlan;
use crate::workloads::SimRecord;
use crate::workloads::Tables;
use crate::workloads::Workload;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["image_full", "logical_full", "incr_chain", "tables"];

/// How a run ended.
pub enum Outcome {
    /// Result printed.
    Done,
    /// The timed cycles drifted every time they were measured: the
    /// numbers are not a steady state.
    Drift,
    /// An operation failed before any cycle could be timed.
    NoSamples,
}

/// One timed cycle.
struct Timed {
    cycle_s: f64,
    backup_s: f64,
    restore_s: f64,
    /// Whether spans were recorded around it (traced runs alternate).
    traced: bool,
}

/// Set-up plus timed cycles, measured once.
struct Measured {
    workload: Box<dyn Workload>,
    tracer: Tracer,
    setup_s: f64,
    timed: Vec<Timed>,
    /// Simulated statistics of set-up and the first timed cycle.
    first: SimRecord,
    /// User and system CPU seconds per timed cycle.
    cpu_per_cycle: Option<(f64, f64)>,
}

fn setup(cfg: &Cfg, t: &mut Tracer, ops: &mut Ops) -> Option<Box<dyn Workload>> {
    Some(match cfg.workload.as_str() {
        "image_full" => Box::new(ImageFull::setup(cfg, t)),
        "logical_full" => Box::new(LogicalFull::setup(cfg, t)),
        "incr_chain" => Box::new(IncrChain::setup(cfg, t, ops)?),
        "tables" => Box::new(Tables::setup(cfg, t, ops)?),
        other => unreachable!("workload {other:?} passed argument checking"),
    })
}

/// Whether another timed cycle is due.
fn more(cfg: &Cfg, plan: &RepPlan, done: usize, elapsed: f64) -> bool {
    // A traced run needs a recorded and a plain cycle at the least.
    let pair = if cfg.trace { 2 } else { 1 };
    match (cfg.reps, cfg.seconds) {
        (Some(n), _) => done < (n * pair).min(plan.timed.max(pair)),
        (None, Some(s)) => done < plan.min_timed.max(pair) || (elapsed < s && done < plan.timed),
        (None, None) => done < plan.timed,
    }
}

/// Peak RSS per unit of scale, rounded up: 2.1 GB were measured at 1/32.
const CONDITION_MB_PER_SCALE: f64 = 96.0 * 1024.0;

/// Touches and releases, in a throw-away helper process, a buffer larger
/// than the run's peak RSS. The first touch of sandbox memory is served by
/// the hypervisor (3.2 s for 1.5 GB, against 0.8 s once touched) and the
/// sandbox takes idle memory back within minutes; without this the cost
/// lands in whichever run goes first. The time it takes is printed for
/// information and is part of no metric.
fn condition_memory(scale: f64) {
    let want = (CONDITION_MB_PER_SCALE * scale).ceil() as usize;
    // Never ask for more than half of what is free.
    let mb = match host::mem_available_mb() {
        Some(free) => want.min(free as usize / 2),
        None => want,
    };
    let t0 = Instant::now();
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["pretouch", &mb.to_string()])
            .status()
    });
    match status {
        Ok(s) if s.success() => println!(
            "conditioning {mb} MB in {:.3} s (excluded from every metric)",
            t0.elapsed().as_secs_f64()
        ),
        other => eprintln!("[ledger] memory conditioning did not run: {other:?}"),
    }
}

/// Set-up, warm-up and the timed cycles. `None` when an operation failed
/// before any cycle could be timed.
fn measure(cfg: &Cfg, ops: &mut Ops) -> Option<Measured> {
    let mut t = Tracer::new();
    // Nothing before this point (argument parsing, the conditioning
    // helper, a discarded earlier measurement) belongs in the peak.
    if !host::reset_peak_rss() {
        eprintln!("[ledger] /proc/self/clear_refs unavailable: peak RSS mark not reset");
    }

    t.record(cfg.trace);
    let t0 = Instant::now();
    let mut w = setup(cfg, &mut t, ops)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let plan = w.plan();

    // The stated warm-up cycles are discarded: the first cycle in a
    // process runs up to twice as long as the rest.
    let warmup = if cfg.reps.is_some() { 0 } else { plan.warmup };
    let mut rep = 0;
    t.record(false);
    for _ in 0..warmup {
        w.cycle(rep, &mut t, ops)?;
        rep += 1;
    }

    let mut timed: Vec<Timed> = Vec::new();
    let mut first = w.setup_sim();
    let cpu0 = host::proc_stat();
    let loop0 = Instant::now();
    while more(cfg, &plan, timed.len(), loop0.elapsed().as_secs_f64()) {
        // A traced run alternates recorded and plain cycles, so that the
        // cost of tracing is measured inside the run that pays it.
        let traced = cfg.trace && timed.len().is_multiple_of(2);
        t.record(traced);
        let (sample, cycle_s) = t.span("cycle", |t| w.cycle(rep, t, ops));
        let Some(sample) = sample else { break };
        if timed.is_empty() {
            first.extend(sample.sim);
        }
        timed.push(Timed {
            cycle_s,
            backup_s: sample.backup_s,
            restore_s: sample.restore_s,
            traced,
        });
        rep += 1;
    }
    t.record(false);
    if timed.is_empty() {
        return None;
    }
    let n = timed.len() as f64;
    let cpu_per_cycle = cpu0
        .zip(host::proc_stat())
        .map(|(a, b)| ((b.user_s - a.user_s) / n, (b.sys_s - a.sys_s) / n));
    Some(Measured {
        workload: w,
        tracer: t,
        setup_s,
        timed,
        first,
        cpu_per_cycle,
    })
}

/// Second-half median over first-half median, minus one, in percent
/// (the middle sample of an odd count belongs to neither half).
fn drift_pct(cycles: &[f64]) -> Option<f64> {
    if cycles.len() < 4 {
        return None;
    }
    let half = cycles.len() / 2;
    let a = median(&cycles[..half]);
    let b = median(&cycles[cycles.len() - half..]);
    Some((b / a - 1.0) * 100.0)
}

/// How often a drifting measurement is taken again before the run fails.
/// A leak (a kept snapshot, a growing catalog, level-1-forever
/// incrementals) drifts every time; a noisy neighbour does not: here one
/// run in forty met a seconds-long 2× slowdown that put its halves 47 %
/// apart.
const ATTEMPTS: usize = 3;

/// Runs the workload `cfg` names and prints its report. `drift_limit` is
/// the share by which the two halves of the timed cycles may differ.
pub fn run(cfg: &Cfg, drift_limit: f64) -> Outcome {
    let mut ops = Ops::default();
    let mut v = Values::default();
    condition_memory(cfg.scale);

    let mut attempt = 1;
    let (mut m, cycles, drift) = loop {
        let Some(m) = measure(cfg, &mut ops) else {
            report(cfg, &v, &ops, None, &[]);
            return Outcome::NoSamples;
        };
        let cycles: Vec<f64> = m.timed.iter().map(|s| s.cycle_s).collect();
        let drift = drift_pct(&cycles);
        match drift {
            Some(d) if d.abs() > drift_limit * 100.0 && attempt < ATTEMPTS => {
                println!(
                    "discarded measurement {attempt}: halves of the timed cycles differ by \
                     {d:+.2} % (limit ±{:.0} %)",
                    drift_limit * 100.0
                );
                attempt += 1;
            }
            _ => break (m, cycles, drift),
        }
    };

    let col = |f: fn(&Timed) -> f64| m.timed.iter().map(f).collect::<Vec<f64>>();
    v.set("setup_s", m.setup_s);
    v.set("cycle_s", median(&cycles));
    v.set("backup_s", median(&col(|s| s.backup_s)));
    v.set("restore_s", median(&col(|s| s.restore_s)));

    let cells = m.workload.fidelity(&m.first, &mut ops);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let errs: Vec<f64> = cells.iter().map(|c| c.err_pct()).collect();
    let ratios: Vec<f64> = cells.iter().map(|c| c.ratio()).collect();
    if !cells.is_empty() {
        v.set("sim_ratio_max", ratios.iter().copied().fold(1.0, f64::max));
        v.set("sim_ratio_mean", mean(&ratios));
        for c in &cells {
            eprintln!(
                "[ledger] cell {:<55} sim {:>9.0} s  paper {:>9.0} s  err {:>6.2} %",
                c.name,
                c.sim,
                c.paper,
                c.err_pct()
            );
        }
    }

    if cfg.trace {
        trace_metrics(cfg, &mut m, &mut ops, &mut v);
    }

    // Read last, so that the peak covers everything measured.
    v.set_opt("peak_rss_mb", host::peak_rss_mb());

    let digest = m.first.digest();
    println!(
        "workload {} seed {} scale {}",
        cfg.workload, cfg.seed, cfg.scale
    );
    println!("cycle_s.samples {} count", cycles.len());
    println!(
        "cycle_s.min {:.6} s",
        cycles.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!(
        "cycle_s.max {:.6} s",
        cycles.iter().copied().fold(0.0, f64::max)
    );
    match drift {
        Some(d) => println!("cycle_s.drift {d:.3} %"),
        None => println!("cycle_s.drift skipped (fewer than four timed cycles)"),
    }
    println!("sim_cells {} count", cells.len());
    if !cells.is_empty() {
        // The issue's percent form, for reading; `sim_ratio_*` is gated.
        println!(
            "sim_err_max_pct {} %",
            errs.iter().copied().fold(0.0, f64::max)
        );
        println!("sim_err_mean_pct {} %", mean(&errs));
    }
    println!("sim_digest {digest:016x}");
    report(cfg, &v, &ops, Some(digest), &cycles);

    match drift {
        Some(d) if d.abs() > drift_limit * 100.0 => {
            eprintln!(
                "[ledger] FAILED steady state: in {ATTEMPTS} measurements out of {ATTEMPTS} the \
                 second-half median cycle differed from the first half by more than ±{:.0} % \
                 (last: {d:+.2} %)",
                drift_limit * 100.0
            );
            Outcome::Drift
        }
        _ => Outcome::Done,
    }
}

/// The `host.*` metrics of the traced cycles, then the layer ladder, then
/// the trace file.
fn trace_metrics(cfg: &Cfg, m: &mut Measured, ops: &mut Ops, v: &mut Values) {
    let cycle_s = |traced: bool| -> Vec<f64> {
        let of_kind = m.timed.iter().filter(|s| s.traced == traced);
        of_kind.map(|s| s.cycle_s).collect()
    };
    let (recorded, plain) = (cycle_s(true), cycle_s(false));
    if !plain.is_empty() {
        let ratio = median(&recorded) / median(&plain);
        v.set("host.trace_overhead_pct", (ratio - 1.0) * 100.0);
    }
    // Every recorded cycle is a `cycle` span that already carries the
    // allocator and page-fault counts of its window.
    let per_cycle = |key: &str| -> Option<f64> {
        let cycles = m.tracer.spans().iter().filter(|s| s.name == "cycle");
        let counts: Option<Vec<f64>> = cycles
            .map(|s| s.counts.iter().find(|(k, _)| k == key).map(|(_, n)| *n))
            .collect();
        counts.filter(|c| !c.is_empty()).map(|c| median(&c))
    };
    v.set_opt("host.alloc_count", per_cycle("alloc.count"));
    v.set_opt("host.alloc_mb", per_cycle("alloc.bytes").map(|b| b / 1e6));
    v.set_opt("host.minor_faults", per_cycle("minflt"));
    if let Some((user, sys)) = m.cpu_per_cycle {
        v.set("host.user_s", user);
        v.set("host.sys_s", sys);
    }

    m.tracer.record(true);
    ladder::run(cfg, m.workload.volume(), &mut m.tracer, ops, v);
    m.tracer.record(false);
    let path = cfg.out_dir.join(format!("trace_{}.json", cfg.workload));
    match m.tracer.write(&cfg.out_dir, &cfg.workload, cfg.seed) {
        Ok(()) => eprintln!("[ledger] wrote {}", path.display()),
        Err(e) => eprintln!("[ledger] could not write {}: {e}", path.display()),
    }
}

/// `{"value": v, "unit": u}` for every metric of `table` that was measured.
fn metrics_json(table: &[(&'static str, &'static str)], v: &Values) -> Json {
    Json::Obj(
        table
            .iter()
            .filter_map(|(name, unit)| {
                let value = v.get(name)?;
                Some((
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                ))
            })
            .collect(),
    )
}

/// Renders `doc` on one line. `Json::render` breaks lines only between
/// tokens (newlines inside strings are escaped), so joining the trimmed
/// lines loses nothing.
fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim_start).collect()
}

/// Prints every metric as `name value unit`, the summary object, and —
/// last — the driver's result line.
fn report(cfg: &Cfg, v: &Values, ops: &Ops, digest: Option<u64>, cycles: &[f64]) {
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        match v.get(name) {
            Some(value) => println!("{name} {value} {unit}"),
            None => eprintln!("[ledger] metric {name} unavailable on this run: omitted, not 0"),
        }
    }
    for s in &ops.skipped {
        println!("skipped {s}");
    }
    println!("ops_attempted {} count", ops.attempted);
    println!("ops_failed {} count", ops.failed);

    let metrics = metrics_json(table, v);
    let summary = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("scale", Json::Num(cfg.scale)),
        ("traced", Json::Bool(cfg.trace)),
        // The samples behind every median.
        (
            "cycle_s_samples",
            Json::Arr(cycles.iter().map(|c| Json::Num(*c)).collect()),
        ),
        (
            "sim_digest",
            digest.map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
        ),
        ("ops_attempted", Json::Num(ops.attempted as f64)),
        ("ops_failed", Json::Num(ops.failed as f64)),
        (
            "skipped",
            Json::Arr(ops.skipped.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics.clone()),
        // This harness measures; it never claims a gain.
        ("claim", Json::Null),
    ]);
    println!("summary {}", one_line(&summary));

    // No result line without a result: the driver reads its absence,
    // with the exit code, as a run that did not happen.
    if cycles.is_empty() {
        return;
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", one_line(&result));
}
