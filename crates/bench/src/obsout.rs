//! Assembles the per-experiment observability artifact
//! (`results/obs_<experiment>.json`) and its Chrome trace companion
//! (`results/trace_<experiment>.json`).
//!
//! The simulator splits *function* (measured work: the span deltas the
//! engines recorded) from *time* (the fluid solve). The artifact re-joins
//! them: each operation's span forest gets its simulated stage windows,
//! the operations are laid end to end on one time axis, and the solver's
//! per-resource utilization histories ride along. Span deltas, CPU
//! seconds, and count annotations are scaled to paper size with the same
//! factor the table pipeline uses, so the artifact agrees with the printed
//! numbers. Trace events recorded during the functional pass are mapped
//! onto the same axis by [`obs::event::assign_times`].

use std::io;
use std::path::Path;
use std::path::PathBuf;

use obs::timeline::TimelineSample;
use obs::Span;
use obs::TimedEvent;
use obs::UtilizationTimeline;

use crate::experiments::OpRun;
use crate::experiments::SimOp;

/// Appends one solved operation's utilization histories at `offset` on
/// the artifact's single time axis, merging per resource.
fn append_timelines(timelines: &mut Vec<UtilizationTimeline>, sim: &SimOp, offset: f64) {
    for tl in &sim.timelines {
        let shifted = tl.samples.iter().map(|s| TimelineSample {
            t0: s.t0 + offset,
            t1: s.t1 + offset,
            utilization: s.utilization,
        });
        match timelines.iter_mut().find(|t| t.resource == tl.resource) {
            Some(existing) => existing.samples.extend(shifted),
            None => timelines.push(UtilizationTimeline {
                resource: tl.resource.clone(),
                capacity: tl.capacity,
                samples: shifted.collect(),
            }),
        }
    }
}

fn artifact(
    experiment: &str,
    spans: Vec<Span>,
    timelines: Vec<UtilizationTimeline>,
) -> obs::Artifact {
    obs::Artifact {
        experiment: experiment.into(),
        spans,
        metrics: obs::snapshot(),
        histograms: obs::metrics::histogram_snapshots(),
        timelines,
    }
}

/// Joins measured spans with solved times into one artifact, plus the
/// trace events stamped onto the same time axis: `runs[i]` is what the
/// functional pass recorded for the operation `sims[i]` solved.
///
/// `factor` is the measurement → paper scale factor; span deltas,
/// annotations, and CPU seconds are multiplied by it. Operations are
/// offset sequentially so the artifact has a single monotonic time axis;
/// a leaf span whose stage did not survive into the solve (nothing to do)
/// keeps a zero-length window at its operation's start.
pub fn assemble(
    experiment: &str,
    factor: f64,
    runs: &[OpRun],
    sims: &[SimOp],
) -> (obs::Artifact, Vec<TimedEvent>) {
    let mut spans: Vec<Span> = Vec::new();
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut timelines: Vec<UtilizationTimeline> = Vec::new();
    let mut offset = 0.0;
    for (op, sim) in runs.iter().zip(sims) {
        let base = spans.len();
        for span in &op.spans {
            let mut span = span.clone();
            span.parent = span.parent.map(|p| p + base);
            let (t0, t1) = if span.parent.is_none() {
                (0.0, sim.elapsed)
            } else {
                sim.windows
                    .iter()
                    .find(|(name, _, _)| *name == span.name)
                    .map(|(_, t0, t1)| (*t0, *t1))
                    .unwrap_or((0.0, 0.0))
            };
            span.t0 = offset + t0;
            span.t1 = offset + t1;
            span.cpu_secs *= factor;
            for (_, v) in &mut span.deltas {
                *v *= factor;
            }
            for (_, v) in &mut span.annotations {
                *v *= factor;
            }
            spans.push(span);
        }
        // Event span ids are local to this operation's recorder; the
        // freshly pushed slice is indexed the same way and already
        // carries the offset times, so assigned times land directly on
        // the artifact's axis.
        for mut te in obs::event::assign_times(&spans[base..], &op.events) {
            te.event.span = te.event.span.map(|s| s + base);
            events.push(te);
        }
        append_timelines(&mut timelines, sim, offset);
        offset += sim.elapsed;
    }
    (artifact(experiment, spans, timelines), events)
}

/// Builds a spans-only artifact straight from solved operations (the
/// parallel tables, whose measured per-qtree spans do not map onto the
/// merged streams): each operation becomes a root span with its stage
/// windows as children.
pub fn assemble_sim_only(experiment: &str, ops: &[(&str, &SimOp)]) -> obs::Artifact {
    let mut spans: Vec<Span> = Vec::new();
    let mut timelines: Vec<UtilizationTimeline> = Vec::new();
    let mut offset = 0.0;
    for (name, sim) in ops {
        let root = spans.len();
        spans.push(Span {
            name: name.to_string(),
            parent: None,
            depth: 0,
            t0: offset,
            t1: offset + sim.elapsed,
            ..Span::default()
        });
        for (stage, t0, t1) in &sim.windows {
            spans.push(Span {
                name: stage.clone(),
                parent: Some(root),
                depth: 1,
                t0: offset + t0,
                t1: offset + t1,
                ..Span::default()
            });
        }
        append_timelines(&mut timelines, sim, offset);
        offset += sim.elapsed;
    }
    artifact(experiment, spans, timelines)
}

/// Logs the file `name` under `dir` as written — or ends the job: a run
/// with a file missing must not pass for one that succeeded, so a failed
/// write panics (a non-zero exit through the pool) with the path and the
/// io error.
pub(crate) fn wrote(name: &str, dir: &Path, result: io::Result<PathBuf>) {
    match result {
        Ok(path) => eprintln!("[obs] wrote {}", path.display()),
        Err(e) => panic!("could not write {}: {e}", dir.join(name).display()),
    }
}

/// Writes `text` as `dir/name`, creating `dir` if needed.
pub(crate) fn write_text(dir: &Path, name: &str, text: String) -> io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Writes the artifact under `dir`, logging to stderr only (stdout is
/// reserved for the table text the acceptance checks diff).
pub fn emit_to(dir: &Path, artifact: &obs::Artifact) {
    let name = format!("obs_{}.json", artifact.experiment);
    wrote(&name, dir, artifact.write(dir));
}

/// Writes `<dir>/trace_<experiment>.json` — the Chrome/Perfetto trace
/// for the artifact plus its timed events.
pub fn emit_trace_to(dir: &Path, artifact: &obs::Artifact, events: &[TimedEvent]) {
    let doc = obs::export::chrome_trace(
        &artifact.experiment,
        &artifact.spans,
        events,
        &artifact.timelines,
    );
    let name = format!("trace_{}.json", artifact.experiment);
    let mut text = doc.render();
    text.push('\n');
    wrote(&name, dir, write_text(dir, &name, text));
}
