//! The one crash harness: a small seeded file system, a deterministic
//! mutation stream over it, and a checked reboot.
//!
//! `bench crash`, the root `tests/crash_matrix.rs` property matrix and
//! `wafl`'s own crash-recovery tests all drive these functions; what
//! differs between them — file count, mutation mix, how often a
//! consistency point lands — is a per-caller [`Shape`] constant, so each
//! caller's seeded runs replay exactly.

use blockdev::Block;
use blockdev::DiskPerf;
use raid::Volume;
use raid::VolumeGeometry;
use simkit::meter::Meter;
use simkit::rng::SimRng;
use wafl::cost::CostModel;
use wafl::types::Attrs;
use wafl::types::FileType;
use wafl::types::WaflConfig;
use wafl::types::INO_ROOT;
use wafl::Wafl;
use wafl::WaflError;

/// One kind of mutation in a [`Shape`]'s repeating mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Overwrite one of a file's first four blocks.
    Overwrite,
    /// Create `/data/op<i>` and write its first block.
    Create,
    /// Change a file's permissions and owner.
    SetAttrs,
    /// Write a block just past a file's fourth.
    Extend,
}

/// The dimensions of one caller's crash scenario.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Files under `/data`, besides `big`.
    pub files: u64,
    /// Every file gets 4 blocks plus a seeded `0..extra_blocks` more.
    pub extra_blocks: u64,
    /// Length of `/data/big` (spans several dump records).
    pub big_blocks: u64,
    /// Mutations in the stream.
    pub ops: usize,
    /// A consistency point lands after every this many mutations.
    pub cp_every: usize,
    /// Mutation `i` is `mix[i % mix.len()]`.
    pub mix: &'static [Mutation],
}

/// The volume every scenario runs on: 2 RAID groups × 4 disks × 4096
/// blocks, zero-latency.
pub fn geometry() -> VolumeGeometry {
    VolumeGeometry::uniform(2, 4, 4096, DiskPerf::ideal())
}

/// A seeded base file system: `/data` with `shape.files` files plus one
/// multi-record file, committed by a consistency point.
pub fn base(shape: &Shape, seed: u64) -> Result<Wafl, WaflError> {
    let mut fs = Wafl::format(Volume::new(geometry()), WaflConfig::default())?;
    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(0xbace));
    let data = fs.create(INO_ROOT, "data", FileType::Dir, Attrs::default())?;
    for i in 0..shape.files {
        let f = fs.create(data, &format!("f{i:02}"), FileType::File, Attrs::default())?;
        for fbn in 0..4 + rng.range(0, shape.extra_blocks) {
            fs.write_fbn(f, fbn, Block::Synthetic(rng.range(0, u64::MAX)))?;
        }
    }
    let big = fs.create(data, "big", FileType::File, Attrs::default())?;
    for fbn in 0..shape.big_blocks {
        fs.write_fbn(big, fbn, Block::Synthetic(rng.range(0, u64::MAX)))?;
    }
    fs.cp()?;
    Ok(fs)
}

/// Mutation `i` of the seeded stream. Fully determined by `(seed, i)` and
/// the deterministic prefix before it, so a reference rebuild replays the
/// identical sequence.
pub fn apply_op(fs: &mut Wafl, shape: &Shape, seed: u64, i: usize) -> Result<(), WaflError> {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
    let target = format!("/data/f{:02}", rng.range(0, shape.files));
    match shape.mix[i % shape.mix.len()] {
        Mutation::Overwrite => {
            let ino = fs.namei(&target)?;
            fs.write_fbn(
                ino,
                rng.range(0, 4),
                Block::Synthetic(rng.range(0, u64::MAX)),
            )?;
        }
        Mutation::Create => {
            let data = fs.namei("/data")?;
            let ino = fs.create(data, &format!("op{i:02}"), FileType::File, Attrs::default())?;
            fs.write_fbn(ino, 0, Block::Synthetic(rng.range(0, u64::MAX)))?;
        }
        Mutation::SetAttrs => {
            let ino = fs.namei(&target)?;
            fs.set_attrs(
                ino,
                Attrs {
                    perm: 0o600 | (i as u16 & 0o077),
                    uid: rng.range(0, 100) as u32,
                    ..Attrs::default()
                },
            )?;
        }
        Mutation::Extend => {
            let ino = fs.namei(&target)?;
            fs.write_fbn(
                ino,
                4 + rng.range(0, 3),
                Block::Synthetic(rng.range(0, u64::MAX)),
            )?;
        }
    }
    Ok(())
}

/// Applies mutations `[0, nops)` with a consistency point every
/// `shape.cp_every` and a final one, counting acknowledged mutations in
/// `acked` — which is how far an armed run got when this returns `Err`.
pub fn mutate(
    fs: &mut Wafl,
    shape: &Shape,
    seed: u64,
    nops: usize,
    acked: &mut usize,
) -> Result<(), WaflError> {
    for i in 0..nops {
        apply_op(fs, shape, seed, i)?;
        *acked = i + 1;
        if (i + 1) % shape.cp_every == 0 {
            fs.cp()?;
        }
    }
    fs.cp()
}

/// The committed state after exactly `nops` mutations (`shape.ops` for
/// the finished state the dump and restore scenarios start from).
pub fn state_after(shape: &Shape, seed: u64, nops: usize) -> Result<Wafl, WaflError> {
    let mut fs = base(shape, seed)?;
    mutate(&mut fs, shape, seed, nops, &mut 0)?;
    Ok(fs)
}

/// What outlives the power loss besides the disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nvram {
    /// The log survives and is replayed at mount.
    Replayed,
    /// The log is lost: the on-disk image must stand on its own.
    Lost,
}

/// Reboots a crashed filer: disarm the (dead) machine's crash plan,
/// rebuild the object model from disk, replay NVRAM if it survived, and
/// require a clean invariant check — an inconsistent image is an error,
/// never a mounted file system.
pub fn reboot(fs: Wafl, nvram: Nvram) -> Result<Wafl, WaflError> {
    simkit::crash::disarm();
    let (vol, mut nv) = fs.crash();
    if nvram == Nvram::Lost {
        nv.drain_for_replay();
    }
    let fs = Wafl::mount(
        vol,
        nv,
        WaflConfig::default(),
        Meter::new_shared(),
        CostModel::zero(),
    )?;
    let report = wafl::check::check(&fs)?;
    if !report.is_clean() {
        return Err(WaflError::BadImage {
            reason: format!("post-crash inconsistency: {:?}", report.problems),
        });
    }
    Ok(fs)
}
