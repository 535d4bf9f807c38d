//! Building the experiment volumes.

use std::rc::Rc;
use std::time::Instant;

use simkit::meter::Meter;
use wafl::cost::CostModel;
use wafl::Wafl;
use workload::age::age;
use workload::age::AgingOptions;
use workload::frag::fragmentation;
use workload::populate::populate;
use workload::populate::PopulateOutcome;
use workload::profile::VolumeProfile;

/// A populated, aged volume ready for backup experiments.
pub struct BuiltVolume {
    /// The mounted file system.
    pub fs: Wafl,
    /// The profile it was built from.
    pub profile: VolumeProfile,
    /// Population counts.
    pub outcome: PopulateOutcome,
    /// Measured fragmentation after aging (0 = contiguous).
    pub frag: f64,
    /// The scale factor relative to the paper (1.0 = 188 GB).
    pub scale: f64,
    /// The shared CPU meter (also wired into the file system).
    pub meter: Rc<Meter>,
}

impl BuiltVolume {
    /// Factor by which measured profiles are extrapolated to paper size.
    pub fn paper_factor(&self) -> f64 {
        1.0 / self.scale
    }
}

/// Populates and ages a volume from `profile` (already scaled).
pub fn build(profile: VolumeProfile, scale: f64, seed: u64) -> BuiltVolume {
    let meter = Meter::new_shared();
    let t0 = Instant::now();
    eprintln!(
        "[build] populating {} at scale {:.4} ({} of data)...",
        profile.name,
        scale,
        simkit::units::fmt_bytes(profile.target_bytes)
    );
    let (mut fs, outcome) = populate(&profile, seed, Rc::clone(&meter), CostModel::f630())
        .expect("population fits the volume");
    eprintln!(
        "[build] populated {} files / {} dirs in {:.1}s; aging...",
        outcome.files,
        outcome.dirs,
        t0.elapsed().as_secs_f64()
    );
    let t1 = Instant::now();
    age(
        &mut fs,
        &profile,
        &AgingOptions::from_profile(&profile),
        seed ^ 0xa9e,
    )
    .expect("aging");
    let frag = fragmentation(&fs, 2000).expect("fragmentation gauge");
    eprintln!(
        "[build] aged in {:.1}s; fragmentation = {:.3}",
        t1.elapsed().as_secs_f64(),
        frag
    );
    BuiltVolume {
        fs,
        profile,
        outcome,
        frag,
        scale,
        meter,
    }
}

/// Builds the paper's `home` volume at `scale`.
pub fn build_home(scale: f64, seed: u64) -> BuiltVolume {
    build(VolumeProfile::home(scale), scale, seed)
}

/// Builds the paper's `rlse` volume at `scale`.
pub fn build_rlse(scale: f64, seed: u64) -> BuiltVolume {
    build(VolumeProfile::rlse(scale), scale, seed)
}
