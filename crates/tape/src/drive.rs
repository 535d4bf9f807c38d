//! The tape drive and its auto-changer magazine.

use crate::media::Tape;
use simkit::media::MediaError;
use simkit::media::Record;

/// Mechanical parameters of a drive.
#[derive(Debug, Clone, Copy)]
pub struct TapePerf {
    /// Streaming transfer rate in bytes/second when the host keeps up.
    pub stream_bytes_per_s: f64,
    /// Time for the stacker to change cartridges.
    pub media_change_s: f64,
    /// Full rewind time.
    pub rewind_s: f64,
}

impl TapePerf {
    /// A DLT-7000 with compression: ~5 MB/s native, ~8.7 MB/s effective on
    /// compressible file data (calibrated to the paper's 6.2-hour physical
    /// dump of 188 GB), 60 s cartridge change, 90 s rewind.
    pub fn dlt7000() -> TapePerf {
        TapePerf {
            stream_bytes_per_s: 8.7 * 1024.0 * 1024.0,
            media_change_s: 60.0,
            rewind_s: 90.0,
        }
    }

    /// Zero-latency drive for functional tests.
    pub fn ideal() -> TapePerf {
        TapePerf {
            stream_bytes_per_s: f64::INFINITY,
            media_change_s: 0.0,
            rewind_s: 0.0,
        }
    }
}

/// Traffic counters for one drive: the medium-agnostic
/// [`simkit::media::MediaStats`] under its historical tape name
/// (`media_changes` counts cartridge changes here).
pub type TapeStats = simkit::media::MediaStats;

/// A drive with a stacker magazine.
///
/// Writing past the end of a cartridge automatically advances to the next
/// one (allocating a fresh blank when the magazine is exhausted, as an
/// operator topping up the stacker would). Reading presents the magazine as
/// one continuous record sequence.
pub struct TapeDrive {
    perf: TapePerf,
    magazine: Vec<Tape>,
    /// Cartridge currently under the heads for writing.
    write_tape: usize,
    /// Read position: cartridge and record within it.
    read_tape: usize,
    read_pos: usize,
    blank_capacity: u64,
    next_label: u32,
    stats: TapeStats,
}

impl TapeDrive {
    /// A drive whose stacker hands out blanks of `blank_capacity` bytes.
    pub fn new(perf: TapePerf, blank_capacity: u64) -> TapeDrive {
        TapeDrive {
            perf,
            magazine: vec![Tape::blank("tape-0", blank_capacity)],
            write_tape: 0,
            read_tape: 0,
            read_pos: 0,
            blank_capacity,
            next_label: 1,
            stats: TapeStats::default(),
        }
    }

    /// Appends one record, changing cartridges as needed.
    pub fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        let len = record.len();
        if len > self.blank_capacity {
            return Err(MediaError::EndOfMedia);
        }
        loop {
            match self.magazine[self.write_tape].append(record.clone()) {
                Ok(()) => {
                    self.stats.written.record(len);
                    obs::counter("tape.write.bytes").add(len);
                    obs::counter("tape.write.records").inc();
                    let mut secs = 0.0;
                    if self.perf.stream_bytes_per_s.is_finite() {
                        secs = len as f64 / self.perf.stream_bytes_per_s;
                        self.stats.busy_secs += secs;
                        obs::gauge("tape.stream_secs").add(secs);
                    }
                    if obs::trace_enabled() {
                        obs::event::emit(obs::event::EventKind::TapeWrite, len, secs);
                        obs::histogram("tape.record.bytes").record(len as f64);
                    }
                    return Ok(());
                }
                Err(MediaError::EndOfMedia) => {
                    self.advance_write_tape();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn advance_write_tape(&mut self) {
        self.write_tape += 1;
        if self.write_tape >= self.magazine.len() {
            let label = format!("tape-{}", self.next_label);
            self.next_label += 1;
            self.magazine.push(Tape::blank(label, self.blank_capacity));
        }
        self.stats.media_changes += 1;
        self.stats.busy_secs += self.perf.media_change_s;
        obs::counter("tape.media_changes").inc();
        obs::gauge("tape.reposition_secs").add(self.perf.media_change_s);
        if obs::trace_enabled() {
            obs::event::emit_labeled(
                obs::event::EventKind::TapeMark,
                "media change",
                0,
                self.perf.media_change_s,
            );
        }
    }

    /// Rewinds to the first record of the first cartridge.
    pub fn rewind(&mut self) {
        self.read_tape = 0;
        self.read_pos = 0;
        self.stats.busy_secs += self.perf.rewind_s;
        obs::counter("tape.rewinds").inc();
        obs::gauge("tape.reposition_secs").add(self.perf.rewind_s);
        if obs::trace_enabled() {
            obs::event::emit_labeled(
                obs::event::EventKind::TapeMark,
                "rewind",
                0,
                self.perf.rewind_s,
            );
        }
    }

    /// Reads the next record in magazine order.
    pub fn read_record(&mut self) -> Result<Record, MediaError> {
        loop {
            if self.read_tape >= self.magazine.len() {
                return Err(MediaError::EndOfData);
            }
            let tape = &self.magazine[self.read_tape];
            if self.read_pos >= tape.nrecords() {
                self.read_tape += 1;
                self.read_pos = 0;
                if self.read_tape < self.magazine.len() {
                    self.stats.media_changes += 1;
                    self.stats.busy_secs += self.perf.media_change_s;
                    obs::counter("tape.media_changes").inc();
                    obs::gauge("tape.reposition_secs").add(self.perf.media_change_s);
                    if obs::trace_enabled() {
                        obs::event::emit_labeled(
                            obs::event::EventKind::TapeMark,
                            "media change",
                            0,
                            self.perf.media_change_s,
                        );
                    }
                }
                continue;
            }
            let global = self.global_index(self.read_tape, self.read_pos);
            let result = tape.record(self.read_pos).cloned();
            match result {
                Ok(rec) => {
                    self.read_pos += 1;
                    self.stats.read.record(rec.len());
                    obs::counter("tape.read.bytes").add(rec.len());
                    obs::counter("tape.read.records").inc();
                    let mut secs = 0.0;
                    if self.perf.stream_bytes_per_s.is_finite() {
                        secs = rec.len() as f64 / self.perf.stream_bytes_per_s;
                        self.stats.busy_secs += secs;
                        obs::gauge("tape.stream_secs").add(secs);
                    }
                    if obs::trace_enabled() {
                        obs::event::emit(obs::event::EventKind::TapeRead, rec.len(), secs);
                    }
                    return Ok(rec);
                }
                Err(MediaError::BadRecord { .. }) => {
                    return Err(MediaError::BadRecord { index: global })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Skips the next record without reading it (resync after a bad
    /// record).
    pub fn skip_record(&mut self) -> Result<(), MediaError> {
        if self.read_tape >= self.magazine.len() {
            return Err(MediaError::EndOfData);
        }
        if self.read_pos >= self.magazine[self.read_tape].nrecords() {
            self.read_tape += 1;
            self.read_pos = 0;
            return self.skip_record();
        }
        self.read_pos += 1;
        Ok(())
    }

    fn global_index(&self, tape: usize, pos: usize) -> u64 {
        let mut idx = 0u64;
        for t in &self.magazine[..tape] {
            idx += t.nrecords() as u64;
        }
        idx + pos as u64
    }

    /// Total records across the magazine.
    pub fn total_records(&self) -> u64 {
        self.magazine.iter().map(|t| t.nrecords() as u64).sum()
    }

    /// Total bytes recorded across the magazine.
    pub fn total_bytes(&self) -> u64 {
        self.magazine.iter().map(Tape::written).sum()
    }

    /// Number of cartridges consumed.
    pub fn cartridges(&self) -> usize {
        self.magazine.len()
    }

    /// Discards everything after the first `keep` records, repositioning
    /// the heads so the next write appends at the cut (restart support:
    /// a resumed dump overwrites from its last checkpoint). Cartridges
    /// past the cut go back to the scratch pool. Charges one reposition
    /// (rewind-class) when anything is actually discarded.
    pub fn truncate_records(&mut self, keep: u64) {
        if keep >= self.total_records() {
            return;
        }
        let mut remaining = keep;
        let mut write_tape = 0usize;
        for (i, t) in self.magazine.iter_mut().enumerate() {
            let n = t.nrecords() as u64;
            if n > 0 && remaining >= n {
                remaining -= n;
                write_tape = i;
            } else if remaining > 0 {
                t.truncate(remaining as usize);
                write_tape = i;
                remaining = 0;
            } else {
                t.truncate(0);
            }
        }
        self.magazine.truncate(write_tape + 1);
        self.write_tape = write_tape;
        self.read_tape = 0;
        self.read_pos = 0;
        self.stats.busy_secs += self.perf.rewind_s;
        obs::counter("tape.truncates").inc();
        obs::gauge("tape.reposition_secs").add(self.perf.rewind_s);
        if obs::trace_enabled() {
            obs::event::emit_labeled(
                obs::event::EventKind::TapeMark,
                "truncate",
                0,
                self.perf.rewind_s,
            );
        }
    }

    /// Charges extra busy time to the drive (retry backoff, recovery
    /// pauses) so it shows up in the drive's utilization accounting and
    /// the fluid solver's media-delay demand.
    pub fn note_delay(&mut self, secs: f64) {
        if secs <= 0.0 {
            return;
        }
        self.stats.busy_secs += secs;
        obs::gauge("media.delay_secs").add(secs);
    }

    /// Damages the record with the given global index.
    ///
    /// Returns false if no such record exists.
    pub fn corrupt_record(&mut self, mut index: u64) -> bool {
        for t in &mut self.magazine {
            if index < t.nrecords() as u64 {
                return t.corrupt_record(index as usize);
            }
            index -= t.nrecords() as u64;
        }
        false
    }

    /// Traffic counters.
    pub fn stats(&self) -> TapeStats {
        self.stats
    }

    /// The drive's mechanical parameters.
    pub fn perf(&self) -> TapePerf {
        self.perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_record(n: usize, fill: u8) -> Record {
        Record::from_bytes(vec![fill; n])
    }

    #[test]
    fn write_rewind_read_round_trip() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 1 << 20);
        for i in 0..10u8 {
            d.write_record(bytes_record(100, i)).unwrap();
        }
        d.rewind();
        for i in 0..10u8 {
            let rec = d.read_record().unwrap();
            assert_eq!(rec, bytes_record(100, i));
        }
        assert_eq!(d.read_record().err(), Some(MediaError::EndOfData));
    }

    #[test]
    fn magazine_spills_across_cartridges() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 250);
        for i in 0..10u8 {
            d.write_record(bytes_record(100, i)).unwrap();
        }
        assert!(d.cartridges() >= 5);
        assert_eq!(d.total_records(), 10);
        assert_eq!(d.total_bytes(), 1000);
        d.rewind();
        let mut n = 0;
        while d.read_record().is_ok() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 100);
        assert_eq!(
            d.write_record(bytes_record(200, 0)),
            Err(MediaError::EndOfMedia)
        );
    }

    #[test]
    fn corruption_surfaces_with_global_index_and_skip_recovers() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 250);
        for i in 0..6u8 {
            d.write_record(bytes_record(100, i)).unwrap();
        }
        assert!(d.corrupt_record(3));
        d.rewind();
        for _ in 0..3 {
            d.read_record().unwrap();
        }
        assert_eq!(
            d.read_record().err(),
            Some(MediaError::BadRecord { index: 3 })
        );
        // Skip the bad record and continue with the rest of the stream.
        d.skip_record().unwrap();
        assert_eq!(d.read_record().unwrap(), bytes_record(100, 4));
        assert_eq!(d.read_record().unwrap(), bytes_record(100, 5));
    }

    #[test]
    fn stats_track_bytes_and_changes() {
        let perf = TapePerf {
            stream_bytes_per_s: 100.0,
            media_change_s: 5.0,
            rewind_s: 2.0,
        };
        let mut d = TapeDrive::new(perf, 250);
        d.write_record(bytes_record(200, 1)).unwrap();
        d.write_record(bytes_record(200, 2)).unwrap(); // forces a change
        let s = d.stats();
        assert_eq!(s.written.ops, 2);
        assert_eq!(s.written.bytes, 400);
        assert_eq!(s.media_changes, 1);
        // busy = 400/100 transfer + 5 change.
        assert!((s.busy_secs - 9.0).abs() < 1e-9);
        d.rewind();
        assert!((d.stats().busy_secs - 11.0).abs() < 1e-9);
    }

    #[test]
    fn dlt7000_rate_matches_paper_calibration() {
        let perf = TapePerf::dlt7000();
        // 188 GiB at this rate takes about 6.2 hours.
        let secs = 188.0 * 1024.0 * 1024.0 * 1024.0 / perf.stream_bytes_per_s;
        let hours = secs / 3600.0;
        assert!((hours - 6.2).abs() < 0.3, "hours = {hours}");
    }
}
