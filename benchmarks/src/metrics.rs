//! The metric names and units this harness prints. `BENCHMARK.json` is
//! the contract; the smoke test holds these tables to it.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycle_s", "s"),
    ("backup_s", "s"),
    ("restore_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ratio_max", "x"),
    ("sim_ratio_mean", "x"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blockdev.seq_read_ns", "ns"),
    ("blockdev.rand_read_ns", "ns"),
    ("blockdev.write_ns", "ns"),
    ("blockdev.bytes_per_block", "B"),
    ("raid.group_read_ns", "ns"),
    ("raid.group_write_ns", "ns"),
    ("raid.volume_read_ns", "ns"),
    ("raid.volume_write_ns", "ns"),
    ("raid.self_read_ns", "ns"),
    ("wafl.read_ns", "ns"),
    ("wafl.write_ns", "ns"),
    ("wafl.create_us", "us"),
    ("wafl.cp_ms", "ms"),
    ("wafl.cps", "count"),
    ("wafl.snap_create_ms", "ms"),
    ("wafl.snap_delete_ms", "ms"),
    ("wafl.blkmap_iter_used_ms", "ms"),
    ("wafl.blkmap_iter_diff_ms", "ms"),
    ("nvram.append_ns", "ns"),
    ("tape.write_ns", "ns"),
    ("tape.read_ns", "ns"),
    ("tape.records", "count"),
    ("core.image_dump_ns", "ns"),
    ("core.image_restore_ns", "ns"),
    ("core.logical_dump_ns", "ns"),
    ("core.logical_restore_ns", "ns"),
    ("core.verify_blocks_ns", "ns"),
    ("core.verify_trees_ns", "ns"),
    ("core.image_self_ns", "ns"),
    ("core.logical_self_ns", "ns"),
    ("core.incr_image_dump_ms", "ms"),
    ("core.incr_logical_dump_ms", "ms"),
    ("core.incr_useful_ratio", "ratio"),
    ("workload.populate_s", "s"),
    ("workload.age_s", "s"),
    ("workload.churn_s", "s"),
    ("simkit.fluid_run_ms", "ms"),
    ("bench.solve_s", "s"),
    ("obs.render_ms", "ms"),
    ("obs.parse_ms", "ms"),
    ("obs.event_overhead_pct", "%"),
    ("bench.build_s", "s"),
    ("bench.functional_s", "s"),
    ("bench.emit_s", "s"),
    ("bench.artifact_mb", "MB"),
    ("bench.rebuild_share", "ratio"),
    ("sim.disk_seq_mb_s", "MB/s"),
    ("sim.disk_rand_mb_s", "MB/s"),
    ("sim.volume_seq_mb_s", "MB/s"),
    ("sim.volume_rand_mb_s", "MB/s"),
    ("sim.logical_rand_share", "ratio"),
    ("sim.logical_cpu_ratio", "ratio"),
    ("host.alloc_count", "count"),
    ("host.alloc_mb", "MB"),
    ("host.minor_faults", "count"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("host.trace_overhead_pct", "%"),
];

/// Measured values by name. A metric the platform could not give is
/// simply absent: it is named on stderr and never printed as 0.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Records a measurement that may be unavailable on this platform.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
