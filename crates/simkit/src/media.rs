//! The medium-agnostic backup [`Media`] API.
//!
//! The backup engines write framed [`Record`]s through the [`Media`]
//! trait without knowing what carries them: a DLT drive with a stacker
//! (`tape::TapeDrive`), a pool striping four, a network replication
//! target (`net::NetTarget`), or a chaos stack wrapping any of those.
//! The trait lived in `tape::io` while tape was the only medium; it is
//! hoisted here so the `net` crate can implement it without depending
//! on (or being depended on by) `tape`.
//!
//! Errors are the medium-agnostic [`MediaError`], which every medium's
//! inherent methods return too, so the engines classify
//! transient-vs-permanent uniformly regardless of what the bytes
//! travelled over.

use crate::stats::Counter;

/// One span of payload inside a record.
///
/// `Synthetic` carries a deterministic expansion seed instead of literal
/// bytes so that paper-scale streams stay compact in host memory; its
/// logical length still counts fully toward medium capacity and transfer
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chunk {
    /// Literal bytes.
    Bytes(Vec<u8>),
    /// `len` bytes defined by the deterministic expansion of `seed`.
    Synthetic {
        /// Expansion seed.
        seed: u64,
        /// Logical length in bytes.
        len: u32,
    },
}

impl Chunk {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Chunk::Bytes(b) => b.len() as u64,
            Chunk::Synthetic { len, .. } => *len as u64,
        }
    }

    /// True for a zero-length chunk.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A framed record: what one `write_record` call put on the medium.
///
/// Both backup formats frame their streams into records; the medium
/// treats them opaquely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    chunks: Vec<Chunk>,
}

impl Record {
    /// An empty record (a file mark, in tape terms).
    pub fn empty() -> Record {
        Record { chunks: Vec::new() }
    }

    /// A record with a single literal-bytes chunk.
    pub fn from_bytes(bytes: Vec<u8>) -> Record {
        Record {
            chunks: vec![Chunk::Bytes(bytes)],
        }
    }

    /// A record from parts.
    pub fn from_chunks(chunks: Vec<Chunk>) -> Record {
        Record { chunks }
    }

    /// Appends a chunk.
    pub fn push(&mut self, chunk: Chunk) {
        self.chunks.push(chunk);
    }

    /// The chunks in order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// True when the record carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenates all literal byte chunks, erroring if any chunk is
    /// synthetic. Format parsers use this for header records, which are
    /// always literal.
    pub fn literal_bytes(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for c in &self.chunks {
            match c {
                Chunk::Bytes(b) => out.extend_from_slice(b),
                Chunk::Synthetic { .. } => return None,
            }
        }
        Some(out)
    }
}

/// Medium-agnostic failure classes shared by every [`Media`]
/// implementation, with the transient-vs-permanent split the retry
/// layer keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MediaError {
    /// No medium present and none can be provisioned.
    NoMedia,
    /// The record would not fit and no further capacity is available.
    EndOfMedia,
    /// Attempt to read past the last record of the stream.
    EndOfData,
    /// The record at this position is unreadable (stored damage).
    BadRecord {
        /// Record index in stream order.
        index: u64,
    },
    /// A transient fault (dust on tape, a dropped packet): retrying the
    /// same operation may succeed.
    Soft {
        /// Record index the operation targeted.
        index: u64,
    },
    /// A permanent defect at this position: retries will not help.
    Hard {
        /// Record index the operation targeted.
        index: u64,
    },
    /// The device or link dropped out (bus reset, link down); it comes
    /// back after a bounded interval, so retrying makes sense.
    Offline,
    /// A mechanical/operational hiccup an operator-assisted retry clears
    /// (a jammed stacker, a misrouted cable).
    OperatorFault,
    /// The *local* machine lost power mid-operation (an armed
    /// [`crate::crash::CrashPlan`] tripped). Not transient: the host is
    /// dead, so no retry layer runs — recovery is a reboot (replay the
    /// NVRAM log, resume the dump from its checkpoint).
    Interrupted,
    /// The retry layer gave up: every attempt failed transiently.
    Exhausted {
        /// How many attempts were made (including the first).
        attempts: u32,
        /// The last transient error observed.
        last: Box<MediaError>,
    },
}

impl MediaError {
    /// Whether retrying the same operation may succeed. The retry layer
    /// only backs off and retries transient errors; permanent ones (and
    /// stream-shape conditions like end-of-data) propagate immediately.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MediaError::Soft { .. } | MediaError::Offline | MediaError::OperatorFault
        )
    }
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::NoMedia => write!(f, "no medium available"),
            MediaError::EndOfMedia => write!(f, "end of media (capacity exhausted)"),
            MediaError::EndOfData => write!(f, "end of recorded data"),
            MediaError::BadRecord { index } => write!(f, "unreadable record {index}"),
            MediaError::Soft { index } => {
                write!(f, "transient media error at record {index}")
            }
            MediaError::Hard { index } => {
                write!(f, "permanent media error at record {index}")
            }
            MediaError::Offline => write!(f, "medium offline"),
            MediaError::OperatorFault => write!(f, "operator-recoverable media fault"),
            MediaError::Interrupted => write!(f, "interrupted by power loss"),
            MediaError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for MediaError {}

/// Traffic counters every medium reports uniformly.
#[derive(Debug, Default, Clone, Copy)]
pub struct MediaStats {
    /// Records/bytes written.
    pub written: Counter,
    /// Records/bytes read.
    pub read: Counter,
    /// Cartridge changes (tape) or reconnects (net) performed.
    pub media_changes: u64,
    /// Modelled medium-busy seconds (transfer + repositioning + backoff).
    pub busy_secs: f64,
}

/// A sequential backup medium: what the engines actually require from
/// "the tape" — or the wire. Object-safe so `Box<dyn BackupEngine>`
/// stays object-safe while taking `&mut dyn Media`.
pub trait Media {
    /// Appends one record to the stream.
    fn write_record(&mut self, record: Record) -> Result<(), MediaError>;

    /// Reads the next record in stream order.
    fn read_record(&mut self) -> Result<Record, MediaError>;

    /// Skips the next record without reading it (resync after damage).
    fn skip_record(&mut self) -> Result<(), MediaError>;

    /// Repositions to the first record.
    fn rewind(&mut self);

    /// Discards everything after the first `keep` records so the next
    /// write appends at the cut (checkpoint restart).
    fn truncate_records(&mut self, keep: u64);

    /// Records currently in the stream.
    fn total_records(&self) -> u64;

    /// Bytes currently in the stream.
    fn total_bytes(&self) -> u64;

    /// Merged traffic counters.
    fn stats(&self) -> MediaStats;

    /// Charges extra busy time (retry backoff) to the medium.
    fn note_delay(&mut self, secs: f64);
}

impl<M: Media + ?Sized> Media for Box<M> {
    fn write_record(&mut self, record: Record) -> Result<(), MediaError> {
        (**self).write_record(record)
    }

    fn read_record(&mut self) -> Result<Record, MediaError> {
        (**self).read_record()
    }

    fn skip_record(&mut self) -> Result<(), MediaError> {
        (**self).skip_record()
    }

    fn rewind(&mut self) {
        (**self).rewind()
    }

    fn truncate_records(&mut self, keep: u64) {
        (**self).truncate_records(keep)
    }

    fn total_records(&self) -> u64 {
        (**self).total_records()
    }

    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn stats(&self) -> MediaStats {
        (**self).stats()
    }

    fn note_delay(&mut self, secs: f64) {
        (**self).note_delay(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_sum_across_chunks() {
        let r = Record::from_chunks(vec![
            Chunk::Bytes(vec![0; 10]),
            Chunk::Synthetic { seed: 1, len: 4086 },
        ]);
        assert_eq!(r.len(), 4096);
        assert!(!r.is_empty());
        assert_eq!(r.chunks().len(), 2);
    }

    #[test]
    fn empty_record_is_a_file_mark() {
        let r = Record::empty();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn literal_bytes_concatenates() {
        let mut r = Record::from_bytes(vec![1, 2]);
        r.push(Chunk::Bytes(vec![3]));
        assert_eq!(r.literal_bytes(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn literal_bytes_refuses_synthetic() {
        let r = Record::from_chunks(vec![Chunk::Synthetic { seed: 0, len: 8 }]);
        assert_eq!(r.literal_bytes(), None);
    }

    #[test]
    fn chunk_len_and_empty() {
        assert_eq!(Chunk::Bytes(vec![]).len(), 0);
        assert!(Chunk::Bytes(vec![]).is_empty());
        assert_eq!(Chunk::Synthetic { seed: 9, len: 100 }.len(), 100);
    }

    #[test]
    fn transient_classification() {
        assert!(MediaError::Soft { index: 0 }.is_transient());
        assert!(MediaError::Offline.is_transient());
        assert!(MediaError::OperatorFault.is_transient());
        assert!(!MediaError::Hard { index: 0 }.is_transient());
        assert!(!MediaError::BadRecord { index: 0 }.is_transient());
        assert!(!MediaError::EndOfData.is_transient());
        // Power loss kills the retrying host too: never transient.
        assert!(!MediaError::Interrupted.is_transient());
        let ex = MediaError::Exhausted {
            attempts: 4,
            last: Box::new(MediaError::Soft { index: 0 }),
        };
        assert!(!ex.is_transient(), "exhaustion is final");
    }

    #[test]
    fn display_is_informative() {
        assert!(MediaError::BadRecord { index: 7 }.to_string().contains("7"));
        assert!(MediaError::NoMedia.to_string().contains("no medium"));
        let e = MediaError::Exhausted {
            attempts: 4,
            last: Box::new(MediaError::Offline),
        };
        assert!(e.to_string().contains("4 attempts"));
        assert!(e.to_string().contains("offline"));
    }
}
