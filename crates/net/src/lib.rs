#![warn(missing_docs)]

//! Simulated network replication target: a seeded, deterministic
//! bandwidth/latency link carrying the same framed records as tape.
//!
//! The paper's backup pipelines end at a DLT drive; this crate replaces
//! the drive with a wire. [`NetTarget`] implements the medium-agnostic
//! [`simkit::media::Media`] trait, so every engine, chaos wrapper
//! (`tape::FaultProxy` / `tape::RetryMedia`), and NVRAM-checkpointed
//! restart works over a network link with zero engine changes — the
//! link is just another record stream with its own service times.
//!
//! Modelling follows the dslab `network` idiom: a link is a resource
//! with a fixed bandwidth and per-message latency, and concurrent
//! streams share its capacity through the same fluid solver the disks
//! and tapes already use (the bench layer maps all streams onto one
//! shared `net` resource, unlike the per-stream `tape{i}` drives). The
//! [`NetTarget`] itself accounts busy seconds per record — latency plus
//! `len / bandwidth` — which the time model picks up as the link demand.
//!
//! Failures are the medium-agnostic [`MediaError`] classes, read as a
//! replication transport would: a dropped frame is `Soft` and a link
//! flap `Offline` (both transient — a fault proxy in front of the target
//! injects them), stored corruption on the remote image is `BadRecord`
//! (permanent), and a sender that loses power mid-transfer is
//! `Interrupted`.

use std::collections::BTreeSet;

use simkit::media::Media;
use simkit::media::MediaError;
use simkit::media::MediaStats;
use simkit::media::Record;

/// Bandwidth/latency parameters of one replication link.
///
/// Rates are decimal network rates (1 Mb/s = 10^6 bits/s), not the
/// binary units tape uses — a "100 Mbit" link moves 12.5 MB/s, about
/// 1.4x one DLT-7000 drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained transfer rate in bytes/second.
    pub bandwidth_bytes_per_s: f64,
    /// Per-record latency in seconds (propagation + per-message
    /// protocol overhead).
    pub latency_s: f64,
}

impl LinkSpec {
    /// A link of `mbit` decimal megabits/second with the given
    /// per-record latency.
    pub fn from_mbit(mbit: f64, latency_s: f64) -> LinkSpec {
        LinkSpec {
            bandwidth_bytes_per_s: mbit * 1e6 / 8.0,
            latency_s,
        }
    }

    /// Fast Ethernet, 100 Mb/s (12.5 MB/s) — the late-90s machine-room
    /// link. WAN-ish 1 ms per record.
    pub fn mbit100() -> LinkSpec {
        LinkSpec::from_mbit(100.0, 1e-3)
    }

    /// Gigabit Ethernet, 1 Gb/s (125 MB/s), 0.2 ms per record.
    pub fn gbit1() -> LinkSpec {
        LinkSpec::from_mbit(1000.0, 2e-4)
    }

    /// 10 Gigabit Ethernet, 10 Gb/s (1.25 GB/s), 0.05 ms per record.
    pub fn gbit10() -> LinkSpec {
        LinkSpec::from_mbit(10_000.0, 5e-5)
    }

    /// Infinite-bandwidth, zero-latency link for functional tests.
    pub fn ideal() -> LinkSpec {
        LinkSpec {
            bandwidth_bytes_per_s: f64::INFINITY,
            latency_s: 0.0,
        }
    }

    /// The link rate in decimal megabits/second (NaN-free for ideal
    /// links: returns infinity).
    pub fn mbit(&self) -> f64 {
        self.bandwidth_bytes_per_s * 8.0 / 1e6
    }

    /// Modelled wire time for one record of `len` bytes on an otherwise
    /// idle link.
    pub fn transfer_secs(&self, len: u64) -> f64 {
        let mut secs = self.latency_s;
        if self.bandwidth_bytes_per_s.is_finite() {
            secs += len as f64 / self.bandwidth_bytes_per_s;
        }
        secs
    }
}

/// The remote end of a replication link: an append-only record stream
/// reached over a [`LinkSpec`].
///
/// Sends and receives charge wire time (`latency + len / bandwidth`) to
/// the link's busy clock and the `net.*` observability counters, so the
/// time model and the attribution report see the link exactly as they
/// see a tape drive. Reconnects (rewind after a dump, resuming reads)
/// count as `media_changes` and cost one latency.
pub struct NetTarget {
    spec: LinkSpec,
    records: Vec<Record>,
    read_pos: usize,
    damaged: BTreeSet<u64>,
    stats: MediaStats,
}

impl NetTarget {
    /// A fresh, empty target behind `spec`.
    pub fn new(spec: LinkSpec) -> NetTarget {
        NetTarget {
            spec,
            records: Vec::new(),
            read_pos: 0,
            damaged: BTreeSet::new(),
            stats: MediaStats::default(),
        }
    }

    fn charge(&mut self, len: u64) -> f64 {
        let secs = self.spec.transfer_secs(len);
        if secs > 0.0 {
            self.stats.busy_secs += secs;
            obs::gauge("net.stream_secs").add(secs);
        }
        secs
    }

    fn reconnect(&mut self, what: &str) {
        self.stats.media_changes += 1;
        self.stats.busy_secs += self.spec.latency_s;
        obs::counter("net.reconnects").inc();
        obs::gauge("net.reposition_secs").add(self.spec.latency_s);
        if obs::trace_enabled() {
            obs::event::emit_labeled(obs::event::EventKind::NetSend, what, 0, self.spec.latency_s);
        }
    }

    /// Sends one record to the remote image.
    pub fn send_record(&mut self, record: Record) -> Result<(), MediaError> {
        // Crash point: the sending host dies mid-transfer. Nothing
        // reaches the remote image; the stream stays at its last
        // complete record, exactly like a truncated tape.
        {
            use simkit::crash::CrashPoint;
            let was_alive = simkit::crash::tripped().is_none();
            if simkit::crash::fire(CrashPoint::NetTransfer) {
                if was_alive {
                    obs::counter("crash.trips").inc();
                }
                return Err(MediaError::Interrupted);
            }
        }
        let len = record.len();
        self.records.push(record);
        self.stats.written.record(len);
        obs::counter("net.send.bytes").add(len);
        obs::counter("net.send.records").inc();
        let secs = self.charge(len);
        if obs::trace_enabled() {
            obs::event::emit(obs::event::EventKind::NetSend, len, secs);
            obs::histogram("net.record.bytes").record(len as f64);
        }
        Ok(())
    }

    /// Receives the next record in replication order.
    pub fn recv_record(&mut self) -> Result<Record, MediaError> {
        if self.read_pos >= self.records.len() {
            return Err(MediaError::EndOfData);
        }
        let index = self.read_pos as u64;
        if self.damaged.contains(&index) {
            return Err(MediaError::BadRecord { index });
        }
        let rec = self.records[self.read_pos].clone();
        self.read_pos += 1;
        self.stats.read.record(rec.len());
        obs::counter("net.recv.bytes").add(rec.len());
        obs::counter("net.recv.records").inc();
        let secs = self.charge(rec.len());
        if obs::trace_enabled() {
            obs::event::emit(obs::event::EventKind::NetRecv, rec.len(), secs);
        }
        Ok(rec)
    }

    /// Skips the next record without transferring it (resync after
    /// remote damage: only the cursor moves, no bytes cross the wire).
    pub fn skip_record(&mut self) -> Result<(), MediaError> {
        if self.read_pos >= self.records.len() {
            return Err(MediaError::EndOfData);
        }
        self.read_pos += 1;
        Ok(())
    }

    /// Damages the stored record with the given index on the remote
    /// image (for robustness experiments). Returns false if no such
    /// record exists.
    pub fn corrupt_record(&mut self, index: u64) -> bool {
        if index < self.records.len() as u64 {
            self.damaged.insert(index);
            true
        } else {
            false
        }
    }

    /// The link this target sits behind.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Traffic counters.
    pub fn stats(&self) -> MediaStats {
        self.stats
    }
}

impl Media for NetTarget {
    fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        self.send_record(record)
    }

    fn read_record(&mut self) -> Result<Record, MediaError> {
        self.recv_record()
    }

    fn skip_record(&mut self) -> Result<(), MediaError> {
        NetTarget::skip_record(self)
    }

    fn rewind(&mut self) {
        self.read_pos = 0;
        self.reconnect("reconnect");
    }

    fn truncate_records(&mut self, keep: u64) {
        if keep >= self.records.len() as u64 {
            return;
        }
        self.records.truncate(keep as usize);
        self.damaged = self.damaged.range(..keep).copied().collect();
        self.read_pos = 0;
        self.reconnect("truncate");
        obs::counter("net.truncates").inc();
    }

    fn total_records(&self) -> u64 {
        self.records.len() as u64
    }

    fn total_bytes(&self) -> u64 {
        self.records.iter().map(Record::len).sum()
    }

    fn stats(&self) -> MediaStats {
        self.stats
    }

    fn note_delay(&mut self, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        self.stats.busy_secs += secs;
        obs::gauge("media.delay_secs").add(secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_record(n: usize, fill: u8) -> Record {
        Record::from_bytes(vec![fill; n])
    }

    #[test]
    fn send_recv_round_trip_via_trait() {
        let mut t = NetTarget::new(LinkSpec::ideal());
        let m: &mut dyn Media = &mut t;
        for i in 0..10u8 {
            m.write_record(bytes_record(100, i)).unwrap();
        }
        m.rewind();
        for i in 0..10u8 {
            assert_eq!(m.read_record().unwrap(), bytes_record(100, i));
        }
        assert_eq!(m.read_record().err(), Some(MediaError::EndOfData));
        assert_eq!(m.total_records(), 10);
        assert_eq!(m.total_bytes(), 1000);
    }

    #[test]
    fn wire_time_is_latency_plus_transfer() {
        // 100 Mb/s = 12.5e6 B/s; 12.5 MB takes 1 s + 1 ms latency.
        let spec = LinkSpec::mbit100();
        assert!((spec.mbit() - 100.0).abs() < 1e-9);
        let mut t = NetTarget::new(spec);
        t.send_record(bytes_record(12_500_000, 7)).unwrap();
        let s = t.stats();
        assert_eq!(s.written.ops, 1);
        assert_eq!(s.written.bytes, 12_500_000);
        assert!((s.busy_secs - 1.001).abs() < 1e-9, "busy = {}", s.busy_secs);
    }

    #[test]
    fn reconnects_count_as_media_changes() {
        let mut t = NetTarget::new(LinkSpec::mbit100());
        t.send_record(bytes_record(10, 0)).unwrap();
        Media::rewind(&mut t);
        assert_eq!(t.stats().media_changes, 1);
    }

    #[test]
    fn truncate_supports_checkpoint_restart() {
        let mut t = NetTarget::new(LinkSpec::ideal());
        for i in 0..6u8 {
            t.send_record(bytes_record(10, i)).unwrap();
        }
        Media::truncate_records(&mut t, 4);
        assert_eq!(Media::total_records(&t), 4);
        t.send_record(bytes_record(10, 9)).unwrap();
        Media::rewind(&mut t);
        for i in [0u8, 1, 2, 3, 9] {
            assert_eq!(t.recv_record().unwrap(), bytes_record(10, i));
        }
        assert_eq!(t.recv_record().err(), Some(MediaError::EndOfData));
    }

    #[test]
    fn remote_corruption_is_permanent_and_skippable() {
        let mut t = NetTarget::new(LinkSpec::ideal());
        for i in 0..4u8 {
            t.send_record(bytes_record(10, i)).unwrap();
        }
        assert!(t.corrupt_record(1));
        assert!(!t.corrupt_record(99));
        Media::rewind(&mut t);
        let m: &mut dyn Media = &mut t;
        m.read_record().unwrap();
        match m.read_record() {
            Err(MediaError::BadRecord { index: 1 }) => {}
            other => panic!("expected BadRecord, got {other:?}"),
        }
        m.skip_record().unwrap();
        assert_eq!(m.read_record().unwrap(), bytes_record(10, 2));
    }

    #[test]
    fn link_presets_are_ordered() {
        let a = LinkSpec::mbit100().bandwidth_bytes_per_s;
        let b = LinkSpec::gbit1().bandwidth_bytes_per_s;
        let c = LinkSpec::gbit10().bandwidth_bytes_per_s;
        assert!(a < b && b < c);
        assert_eq!(a, 12.5e6);
        assert_eq!(c, 1.25e9);
    }
}
