//! Harness-side spans: one around every call the benchmark makes into a
//! layer's public function. Spans live in memory and are written once,
//! at exit. Every span is always *timed* (two clock reads); only a
//! recording tracer also keeps it and pays for the counters at its edges.

use std::path::Path;
use std::time::Instant;

use obs::Json;

use crate::host;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// `layer.function`, or a harness phase such as `cycle`.
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// What moved inside the span: `obs` metric deltas on the harness
    /// thread, `alloc.count`/`alloc.bytes`, `minflt`, plus whatever the
    /// call site attached (`dev.*` from `DeviceStats::since`, block counts).
    pub counts: Vec<(String, f64)>,
}

/// Counter readings at a span edge.
struct Edge {
    obs: obs::MetricsSnapshot,
    allocs: (u64, u64),
    minflt: Option<f64>,
}

impl Edge {
    fn read() -> Edge {
        Edge {
            obs: obs::snapshot(),
            allocs: host::alloc_totals(),
            minflt: host::proc_stat().map(|s| s.minflt),
        }
    }
}

/// The span recorder.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that only times (the untraced run).
    pub fn new() -> Tracer {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops keeping spans and counting allocations. Must be
    /// called between spans, not inside one.
    pub fn record(&mut self, on: bool) {
        assert!(self.open.is_empty(), "record() toggled inside a span");
        self.recording = on;
        host::count_allocs(on);
    }

    /// Whether spans are being kept.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Runs `body` inside a span and returns its result with the wall
    /// seconds it took.
    pub fn span<R>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.recording {
            let t0 = Instant::now();
            let out = body(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        // The edge readings sit inside the span's own window, so that a
        // parent's children account for all of its time but the calls
        // between them.
        let start = self.epoch.elapsed();
        let entry = Edge::read();
        let out = body(self);
        let exit = Edge::read();
        let end = self.epoch.elapsed();
        self.open.pop();

        let span = &mut self.spans[id];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        for (key, after) in &exit.obs.readings {
            let delta = after - entry.obs.get(key);
            if delta != 0.0 {
                span.counts.push((key.clone(), delta));
            }
        }
        span.counts.push((
            "alloc.count".into(),
            (exit.allocs.0 - entry.allocs.0) as f64,
        ));
        span.counts.push((
            "alloc.bytes".into(),
            (exit.allocs.1 - entry.allocs.1) as f64,
        ));
        if let (Some(a), Some(b)) = (entry.minflt, exit.minflt) {
            span.counts.push(("minflt".into(), b - a));
        }
        (out, (end - start).as_secs_f64())
    }

    /// Attaches a count to the innermost open span (no-op when not
    /// recording).
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// Attaches a device-traffic delta to the innermost open span.
    pub fn count_dev(&mut self, d: &blockdev::DeviceStats) {
        self.count("dev.seq_read.bytes", d.seq_reads.bytes as f64);
        self.count("dev.rand_read.bytes", d.rand_reads.bytes as f64);
        self.count("dev.seq_write.bytes", d.seq_writes.bytes as f64);
        self.count("dev.rand_write.bytes", d.rand_writes.bytes as f64);
        self.count("dev.busy_secs", d.busy_secs);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `trace_<workload>.json` into `dir`.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "counts",
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("clock", Json::Str("host monotonic, ns since start".into())),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::create_dir_all(dir)?;
        let mut text = doc.render();
        text.push('\n');
        std::fs::write(dir.join(format!("trace_{workload}.json")), text)
    }
}
