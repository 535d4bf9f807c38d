//! Pins the root cause of `bench::build::build_home`'s `aging: NoSpace`
//! panic at small scales (seeds 5, 14, 19, 20, 38, 56, 57 of 1–60 at
//! 1/1024) — a finding, not a fix; see CHANGES.md, PR 13.
//!
//! The volume is not full when it happens. `age`'s overwrite pass COWs
//! while the round's deleted blocks are still *frozen* (freed since the
//! last consistency point, unusable until the next commits). The NVRAM
//! log that triggers that consistency point is 32 MB whatever the scale,
//! so about 4 000 block writes go by between two of them; at 1/1024 the
//! whole volume has some 15 000 free blocks, most of them just frozen by
//! the deletes, and the allocator runs dry first. Nothing can be retried
//! from there: the consistency point that would thaw the blocks is itself
//! write-anywhere and needs fresh ones. Every cure (a reserve the
//! allocator keeps for consistency points, or one taken ahead of the
//! overwrites) moves allocations on volumes that build today, so `age` is
//! left as it is. When wafl gains such a reserve this test fails: turn it
//! into the regression test over the seven seeds then.

use simkit::meter::Meter;
use wafl::cost::CostModel;
use wafl::WaflError;
use workload::age::age;
use workload::age::AgingOptions;
use workload::populate::populate;
use workload::profile::VolumeProfile;

#[test]
fn overwrites_outrun_the_consistency_point_that_would_thaw_the_deletes() {
    // Seed 57 wedges in the first round: the cheapest of the seven.
    let seed = 57u64;
    let profile = VolumeProfile::home(1.0 / 1024.0);
    let (mut fs, _) =
        populate(&profile, seed, Meter::new_shared(), CostModel::f630()).expect("populate");
    // What `bench::build::build` runs.
    let opts = AgingOptions::from_profile(&profile);
    let aged = age(&mut fs, &profile, &opts, seed ^ 0xa9e);
    assert!(matches!(aged, Err(WaflError::NoSpace)), "{aged:?}");
    // The block map still counts thousands free: all of them frozen.
    assert!(fs.free_blocks() > 10_000, "free = {}", fs.free_blocks());
    // And the consistency point cannot run either.
    assert!(matches!(fs.cp(), Err(WaflError::NoSpace)));
}
