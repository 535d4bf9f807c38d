//! Tape-side [`Media`](simkit::media::Media) implementations.
//!
//! The trait itself lives in [`simkit::media`] (the `net`
//! crate implements the same trait for network replication targets);
//! this module keeps the tape implementations: [`crate::drive::TapeDrive`]
//! directly (call sites passing `&mut drive` coerce unchanged), the chaos
//! wrappers ([`crate::chaos::FaultProxy`], [`crate::chaos::RetryMedia`])
//! by delegation, and [`DrivePool`] by striping records round-robin
//! across several drives — the paper's 4-DLT parallel runs.
//!
//! Inherent and trait methods alike return the medium-agnostic
//! [`simkit::media::MediaError`].

use simkit::media::MediaError;
use simkit::media::MediaStats;

use crate::drive::TapeDrive;
use crate::drive::TapePerf;
use simkit::media::Record;

impl simkit::media::Media for TapeDrive {
    fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        TapeDrive::write_record(self, record)
    }

    fn read_record(&mut self) -> Result<Record, MediaError> {
        TapeDrive::read_record(self)
    }

    fn skip_record(&mut self) -> Result<(), MediaError> {
        TapeDrive::skip_record(self)
    }

    fn rewind(&mut self) {
        TapeDrive::rewind(self)
    }

    fn truncate_records(&mut self, keep: u64) {
        TapeDrive::truncate_records(self, keep)
    }

    fn total_records(&self) -> u64 {
        TapeDrive::total_records(self)
    }

    fn total_bytes(&self) -> u64 {
        TapeDrive::total_bytes(self)
    }

    fn stats(&self) -> MediaStats {
        TapeDrive::stats(self)
    }

    fn note_delay(&mut self, secs: f64) {
        TapeDrive::note_delay(self, secs)
    }
}

/// Several drives striping one record stream round-robin: record `i` lands
/// on drive `i % n`, and reads replay the same order, so a stream written
/// through a pool reads back identically through the same pool.
///
/// Error indices reported by a pool are drive-local (the failing drive's
/// own record index), since a global index across interleaved magazines
/// has no single linear order.
pub struct DrivePool {
    drives: Vec<TapeDrive>,
    next_write: usize,
    next_read: usize,
}

impl DrivePool {
    /// A pool of `n` identical drives. `n` must be at least 1.
    pub fn new(n: usize, perf: TapePerf, blank_capacity: u64) -> DrivePool {
        let n = n.max(1);
        DrivePool {
            drives: (0..n)
                .map(|_| TapeDrive::new(perf, blank_capacity))
                .collect(),
            next_write: 0,
            next_read: 0,
        }
    }

    /// Number of drives in the pool.
    pub fn ndrives(&self) -> usize {
        self.drives.len()
    }

    /// One drive, for per-drive inspection in tests and reports.
    pub fn drive(&self, i: usize) -> Option<&TapeDrive> {
        self.drives.get(i)
    }
}

impl simkit::media::Media for DrivePool {
    fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        let i = self.next_write;
        self.drives[i].write_record(record)?;
        self.next_write = (i + 1) % self.drives.len();
        Ok(())
    }

    fn read_record(&mut self) -> Result<Record, MediaError> {
        let i = self.next_read;
        let rec = self.drives[i].read_record()?;
        self.next_read = (i + 1) % self.drives.len();
        Ok(rec)
    }

    fn skip_record(&mut self) -> Result<(), MediaError> {
        let i = self.next_read;
        self.drives[i].skip_record()?;
        self.next_read = (i + 1) % self.drives.len();
        Ok(())
    }

    fn rewind(&mut self) {
        for d in &mut self.drives {
            d.rewind();
        }
        self.next_read = 0;
    }

    fn truncate_records(&mut self, keep: u64) {
        // Record i went to drive i % n, so the first `keep` records leave
        // keep/n records on every drive plus one more on the first keep%n.
        let n = self.drives.len() as u64;
        for (i, d) in self.drives.iter_mut().enumerate() {
            let per = keep / n + u64::from((i as u64) < keep % n);
            d.truncate_records(per);
        }
        self.next_write = (keep % n) as usize;
        self.next_read = 0;
    }

    fn total_records(&self) -> u64 {
        self.drives.iter().map(TapeDrive::total_records).sum()
    }

    fn total_bytes(&self) -> u64 {
        self.drives.iter().map(TapeDrive::total_bytes).sum()
    }

    fn stats(&self) -> MediaStats {
        let mut merged = MediaStats::default();
        for d in &self.drives {
            let s = d.stats();
            merged.written.bytes += s.written.bytes;
            merged.written.ops += s.written.ops;
            merged.read.bytes += s.read.bytes;
            merged.read.ops += s.read.ops;
            merged.media_changes += s.media_changes;
            merged.busy_secs += s.busy_secs;
        }
        merged
    }

    fn note_delay(&mut self, secs: f64) {
        // Attribute the backoff to the drive that will serve the retried
        // operation (writes lead reads in both engines' access patterns).
        let i = self.next_write;
        self.drives[i].note_delay(secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::media::Media;

    fn rec(n: usize, fill: u8) -> Record {
        Record::from_bytes(vec![fill; n])
    }

    #[test]
    fn tape_drive_works_through_the_trait() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 1 << 20);
        let m: &mut dyn Media = &mut d;
        m.write_record(rec(10, 1)).unwrap();
        m.write_record(rec(10, 2)).unwrap();
        m.rewind();
        assert_eq!(m.read_record().unwrap(), rec(10, 1));
        assert_eq!(m.total_records(), 2);
        assert_eq!(m.total_bytes(), 20);
    }

    #[test]
    fn trait_errors_carry_the_media_classes() {
        let mut d = TapeDrive::new(TapePerf::ideal(), 100);
        let m: &mut dyn Media = &mut d;
        assert_eq!(
            m.write_record(rec(200, 0)).err(),
            Some(MediaError::EndOfMedia)
        );
        assert_eq!(m.read_record().err(), Some(MediaError::EndOfData));
    }

    #[test]
    fn pool_round_trips_in_write_order() {
        let mut p = DrivePool::new(4, TapePerf::ideal(), 1 << 20);
        for i in 0..10u8 {
            p.write_record(rec(8, i)).unwrap();
        }
        assert_eq!(p.total_records(), 10);
        // Records striped 3-3-2-2 across the four drives.
        let per: Vec<u64> = (0..4)
            .map(|i| p.drive(i).unwrap().total_records())
            .collect();
        assert_eq!(per, vec![3, 3, 2, 2]);
        p.rewind();
        for i in 0..10u8 {
            assert_eq!(p.read_record().unwrap(), rec(8, i));
        }
        assert_eq!(p.read_record().err(), Some(MediaError::EndOfData));
    }

    #[test]
    fn pool_truncate_keeps_stripe_shape() {
        let mut p = DrivePool::new(3, TapePerf::ideal(), 1 << 20);
        for i in 0..9u8 {
            p.write_record(rec(8, i)).unwrap();
        }
        p.truncate_records(5); // drives keep 2, 2, 1
        assert_eq!(p.total_records(), 5);
        // Appends continue where record 5 would have gone...
        for i in 5..9u8 {
            p.write_record(rec(8, i)).unwrap();
        }
        // ...so the stream reads back as if never cut.
        p.rewind();
        for i in 0..9u8 {
            assert_eq!(p.read_record().unwrap(), rec(8, i));
        }
    }

    #[test]
    fn pool_skip_stays_in_stream_order() {
        let mut p = DrivePool::new(2, TapePerf::ideal(), 1 << 20);
        for i in 0..4u8 {
            p.write_record(rec(8, i)).unwrap();
        }
        p.rewind();
        p.skip_record().unwrap();
        assert_eq!(p.read_record().unwrap(), rec(8, 1));
        assert_eq!(p.read_record().unwrap(), rec(8, 2));
    }

    #[test]
    fn pool_stats_merge_all_drives() {
        let mut p = DrivePool::new(2, TapePerf::ideal(), 1 << 20);
        for i in 0..4u8 {
            p.write_record(rec(100, i)).unwrap();
        }
        let s = Media::stats(&p);
        assert_eq!(s.written.ops, 4);
        assert_eq!(s.written.bytes, 400);
    }
}
