//! Tape cartridges.

use simkit::media::MediaError;
use simkit::media::Record;

/// One cartridge: an append-only sequence of records with a byte capacity.
#[derive(Debug, Clone)]
pub struct Tape {
    label: String,
    capacity_bytes: u64,
    written_bytes: u64,
    records: Vec<Record>,
    /// Indices of records damaged after writing (media corruption).
    bad: Vec<bool>,
}

impl Tape {
    /// A blank cartridge.
    pub fn blank(label: impl Into<String>, capacity_bytes: u64) -> Tape {
        Tape {
            label: label.into(),
            capacity_bytes,
            written_bytes: 0,
            records: Vec::new(),
            bad: Vec::new(),
        }
    }

    /// Cartridge label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes recorded so far.
    pub fn written(&self) -> u64 {
        self.written_bytes
    }

    /// Remaining capacity in bytes.
    pub fn remaining(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.written_bytes)
    }

    /// Number of records on the cartridge.
    pub fn nrecords(&self) -> usize {
        self.records.len()
    }

    /// Appends a record if it fits.
    pub fn append(&mut self, record: Record) -> Result<(), MediaError> {
        if record.len() > self.remaining() {
            return Err(MediaError::EndOfMedia);
        }
        self.written_bytes += record.len();
        self.records.push(record);
        self.bad.push(false);
        Ok(())
    }

    /// Reads the record at `index`.
    pub fn record(&self, index: usize) -> Result<&Record, MediaError> {
        if index >= self.records.len() {
            return Err(MediaError::EndOfData);
        }
        if self.bad[index] {
            return Err(MediaError::BadRecord {
                index: index as u64,
            });
        }
        Ok(&self.records[index])
    }

    /// Truncates the cartridge to its first `keep` records (restart
    /// support: overwrite from a checkpoint). No-op if fewer exist.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.records.len() {
            return;
        }
        self.records.truncate(keep);
        self.bad.truncate(keep);
        self.written_bytes = self.records.iter().map(Record::len).sum();
    }

    /// Marks a record as damaged; future reads of it fail.
    ///
    /// Returns false if the index does not exist.
    pub fn corrupt_record(&mut self, index: usize) -> bool {
        match self.bad.get_mut(index) {
            Some(flag) => {
                *flag = true;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut t = Tape::blank("t0", 1000);
        t.append(Record::from_bytes(vec![1; 100])).unwrap();
        t.append(Record::from_bytes(vec![2; 200])).unwrap();
        assert_eq!(t.nrecords(), 2);
        assert_eq!(t.written(), 300);
        assert_eq!(t.remaining(), 700);
        assert_eq!(t.record(0).unwrap().len(), 100);
        assert_eq!(t.record(1).unwrap().len(), 200);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Tape::blank("t0", 150);
        t.append(Record::from_bytes(vec![0; 100])).unwrap();
        assert_eq!(
            t.append(Record::from_bytes(vec![0; 100])),
            Err(MediaError::EndOfMedia)
        );
        // A smaller record still fits.
        t.append(Record::from_bytes(vec![0; 50])).unwrap();
    }

    #[test]
    fn reading_past_end_is_end_of_data() {
        let t = Tape::blank("t0", 10);
        assert_eq!(t.record(0).err(), Some(MediaError::EndOfData));
    }

    #[test]
    fn corruption_makes_record_unreadable() {
        let mut t = Tape::blank("t0", 1000);
        t.append(Record::from_bytes(vec![9; 10])).unwrap();
        assert!(t.corrupt_record(0));
        assert_eq!(t.record(0).err(), Some(MediaError::BadRecord { index: 0 }));
        assert!(!t.corrupt_record(5));
    }
}
