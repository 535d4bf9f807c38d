//! Unified fault configuration for deterministic chaos runs.
//!
//! A [`FaultSpec`] is the single place an experiment declares what should
//! go wrong: per-layer probabilistic fault rates (drawn through the seeded
//! [`crate::rng::SimRng`], so every chaos run replays bit-for-bit) plus
//! targeted faults pinned to specific blocks or tape records. The device
//! crates consume their section via `arm`-style entry points
//! (`blockdev::FaultPlan::arm`, `tape::FaultProxy`, `raid::Volume::arm_faults`)
//! instead of each growing its own ad-hoc knobs.
//!
//! The spec can be built fluently or parsed from TOML (the workspace
//! dialect, [`crate::toml`]):
//!
//! ```toml
//! seed = 42
//!
//! [disk]
//! read_soft = 0.001           # transient read-error probability per IO
//!
//! [tape]
//! media_soft = 0.0005         # transient media error per record
//! drive_offline = 0.0001      # drive drops offline ...
//! offline_ops = 3             # ... for this many operations
//! stacker_jam = 0.001         # cartridge change jams (clears on retry)
//! hard_write_records = [100]  # permanent write failure at record 100
//!
//! [raid]
//! fail_disk_after = 5000      # one member dies after 5000 block IOs
//! reconstruct_after = 20000   # background rebuild this many IOs later
//! ```

use crate::toml;
use crate::toml::Kind;
use crate::toml::TomlError;
use crate::toml::Value;

/// Disk-layer faults (consumed by `blockdev`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskFaults {
    /// Probability that any single block read fails transiently.
    pub read_soft: f64,
    /// Probability that any single block write fails transiently.
    pub write_soft: f64,
    /// Blocks whose reads always fail permanently.
    pub fail_reads: Vec<u64>,
    /// Blocks whose writes always fail permanently.
    pub fail_writes: Vec<u64>,
    /// Blocks returning silently corrupted payloads, as `(bno, salt)`.
    pub corrupt: Vec<(u64, u64)>,
}

impl DiskFaults {
    /// True when this section injects nothing.
    pub fn is_empty(&self) -> bool {
        self.read_soft == 0.0
            && self.write_soft == 0.0
            && self.fail_reads.is_empty()
            && self.fail_writes.is_empty()
            && self.corrupt.is_empty()
    }
}

/// Tape/media faults (consumed by `tape::FaultProxy`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TapeFaults {
    /// Probability that a record read/write fails transiently.
    pub media_soft: f64,
    /// Probability, per operation, that the drive drops offline.
    pub drive_offline: f64,
    /// How many operations an offline episode lasts.
    pub offline_ops: u32,
    /// Probability that a cartridge change jams the stacker (transient).
    pub stacker_jam: f64,
    /// Global record indices whose writes fail permanently.
    pub hard_write_records: Vec<u64>,
    /// Global record indices that read back as damaged (permanent).
    pub bad_read_records: Vec<u64>,
}

impl TapeFaults {
    /// True when this section injects nothing.
    pub fn is_empty(&self) -> bool {
        self.media_soft == 0.0
            && self.drive_offline == 0.0
            && self.stacker_jam == 0.0
            && self.hard_write_records.is_empty()
            && self.bad_read_records.is_empty()
    }
}

/// RAID-layer faults (consumed by `raid::Volume`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RaidFaults {
    /// Fail one randomly chosen member disk after this many block IOs.
    pub fail_disk_after: Option<u64>,
    /// Start background reconstruction this many IOs after the failure.
    pub reconstruct_after: Option<u64>,
}

impl RaidFaults {
    /// True when this section injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail_disk_after.is_none()
    }
}

/// The unified fault configuration for one chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Seed for every probabilistic draw the spec triggers.
    pub seed: u64,
    /// Disk-layer section.
    pub disk: DiskFaults,
    /// Tape-layer section.
    pub tape: TapeFaults,
    /// RAID-layer section.
    pub raid: RaidFaults,
}

impl FaultSpec {
    /// Starts a fluent builder over the (inject-nothing) defaults.
    pub fn builder() -> FaultSpecBuilder {
        FaultSpecBuilder {
            spec: FaultSpec::default(),
        }
    }

    /// True when no section injects anything — the zero-cost default.
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty() && self.tape.is_empty() && self.raid.is_empty()
    }

    /// Parses a spec from the TOML dialect shown in the module docs.
    pub fn from_toml(text: &str) -> Result<FaultSpec, FaultSpecError> {
        let mut spec = FaultSpec::default();
        let mut section = "";
        for item in toml::items(text) {
            let item = item?;
            match item.kind {
                Kind::Table(name @ ("disk" | "tape" | "raid")) => section = name,
                Kind::Table(name) | Kind::ArrayTable(name) => {
                    return Err(TomlError::at(
                        item.line,
                        format!("unknown section [{name}]"),
                    ))
                }
                Kind::Pair(key, value) => spec
                    .assign(section, key, &value)
                    .map_err(|reason| TomlError::at(item.line, reason))?,
            }
        }
        Ok(spec)
    }

    fn assign(&mut self, section: &str, key: &str, value: &Value) -> Result<(), String> {
        let list = |v: &Value| v.list(Value::u64);
        match (section, key) {
            ("", "seed") => self.seed = value.u64()?,
            ("disk", "read_soft") => self.disk.read_soft = value.f64()?,
            ("disk", "write_soft") => self.disk.write_soft = value.f64()?,
            ("disk", "fail_reads") => self.disk.fail_reads = list(value)?,
            ("disk", "fail_writes") => self.disk.fail_writes = list(value)?,
            ("tape", "media_soft") => self.tape.media_soft = value.f64()?,
            ("tape", "drive_offline") => self.tape.drive_offline = value.f64()?,
            ("tape", "offline_ops") => self.tape.offline_ops = value.u64()? as u32,
            ("tape", "stacker_jam") => self.tape.stacker_jam = value.f64()?,
            ("tape", "hard_write_records") => self.tape.hard_write_records = list(value)?,
            ("tape", "bad_read_records") => self.tape.bad_read_records = list(value)?,
            ("raid", "fail_disk_after") => self.raid.fail_disk_after = Some(value.u64()?),
            ("raid", "reconstruct_after") => self.raid.reconstruct_after = Some(value.u64()?),
            _ => {
                return Err(if section.is_empty() {
                    format!("unknown top-level key {key}")
                } else {
                    format!("unknown key {key} in [{section}]")
                })
            }
        }
        Ok(())
    }
}

/// Errors from [`FaultSpec::from_toml`]: the offending line and why.
pub type FaultSpecError = TomlError;

/// Fluent constructor for [`FaultSpec`].
#[derive(Debug, Clone, Default)]
pub struct FaultSpecBuilder {
    spec: FaultSpec,
}

impl FaultSpecBuilder {
    /// Seed for the probabilistic draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Transient read-error probability per block read.
    pub fn disk_read_soft(mut self, p: f64) -> Self {
        self.spec.disk.read_soft = p;
        self
    }

    /// Transient write-error probability per block write.
    pub fn disk_write_soft(mut self, p: f64) -> Self {
        self.spec.disk.write_soft = p;
        self
    }

    /// Permanent read failure at `bno`.
    pub fn disk_fail_read(mut self, bno: u64) -> Self {
        self.spec.disk.fail_reads.push(bno);
        self
    }

    /// Permanent write failure at `bno`.
    pub fn disk_fail_write(mut self, bno: u64) -> Self {
        self.spec.disk.fail_writes.push(bno);
        self
    }

    /// Silent corruption of `bno` with the given salt.
    pub fn disk_corrupt(mut self, bno: u64, salt: u64) -> Self {
        self.spec.disk.corrupt.push((bno, salt));
        self
    }

    /// Transient media-error probability per tape record.
    pub fn tape_media_soft(mut self, p: f64) -> Self {
        self.spec.tape.media_soft = p;
        self
    }

    /// Drive-offline probability per operation, lasting `ops` operations.
    pub fn tape_drive_offline(mut self, p: f64, ops: u32) -> Self {
        self.spec.tape.drive_offline = p;
        self.spec.tape.offline_ops = ops;
        self
    }

    /// Stacker-jam probability per operation (clears on retry).
    pub fn tape_stacker_jam(mut self, p: f64) -> Self {
        self.spec.tape.stacker_jam = p;
        self
    }

    /// Permanent write failure at the given global record index.
    pub fn tape_hard_write_record(mut self, index: u64) -> Self {
        self.spec.tape.hard_write_records.push(index);
        self
    }

    /// Permanent read damage at the given global record index.
    pub fn tape_bad_read_record(mut self, index: u64) -> Self {
        self.spec.tape.bad_read_records.push(index);
        self
    }

    /// Fail one member disk after `ios` block IOs.
    pub fn raid_fail_disk_after(mut self, ios: u64) -> Self {
        self.spec.raid.fail_disk_after = Some(ios);
        self
    }

    /// Background-reconstruct the failed member `ios` IOs later.
    pub fn raid_reconstruct_after(mut self, ios: u64) -> Self {
        self.spec.raid.reconstruct_after = Some(ios);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> FaultSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_empty() {
        assert!(FaultSpec::default().is_empty());
        assert!(FaultSpec::builder().seed(9).build().is_empty());
    }

    #[test]
    fn builder_round_trips_fields() {
        let s = FaultSpec::builder()
            .seed(7)
            .disk_read_soft(0.25)
            .disk_fail_read(3)
            .tape_media_soft(0.5)
            .tape_drive_offline(0.1, 4)
            .raid_fail_disk_after(100)
            .raid_reconstruct_after(500)
            .build();
        assert!(!s.is_empty());
        assert_eq!(s.seed, 7);
        assert_eq!(s.disk.fail_reads, vec![3]);
        assert_eq!(s.tape.offline_ops, 4);
        assert_eq!(s.raid.fail_disk_after, Some(100));
    }

    #[test]
    fn toml_parses_all_sections() {
        let text = r#"
            seed = 42
            [disk]
            read_soft = 0.001   # comment
            fail_reads = [1, 2, 3]
            [tape]
            media_soft = 0.5
            offline_ops = 3
            hard_write_records = [100]
            bad_read_records = []
            [raid]
            fail_disk_after = 5000
            reconstruct_after = 20000
        "#;
        let s = FaultSpec::from_toml(text).unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.disk.fail_reads, vec![1, 2, 3]);
        assert_eq!(s.tape.hard_write_records, vec![100]);
        assert!(s.tape.bad_read_records.is_empty());
        assert_eq!(s.raid.reconstruct_after, Some(20000));
    }

    #[test]
    fn toml_rejects_unknown_keys_and_sections() {
        assert!(FaultSpec::from_toml("[nvram]\nx = 1").is_err());
        assert!(FaultSpec::from_toml("[disk]\nwat = 1").is_err());
        assert!(FaultSpec::from_toml("seed 42").is_err());
        let e = FaultSpec::from_toml("[disk]\nread_soft = abc").unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }
}
