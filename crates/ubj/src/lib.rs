//! # ubj — the UBJ-like comparison baseline (§5.4.4 of the Tinca paper)
//!
//! UBJ (Lee, Bahn, Noh — FAST '13) *unions the buffer cache and the
//! journal* in NVM main memory: committing a transaction **freezes** the
//! dirty buffer blocks in place (no copy — "commit-in-place"), and frozen
//! blocks are later **checkpointed** to the file system on disk, a whole
//! transaction at a time, to free NVM space.
//!
//! The Tinca paper's §5.4.4 names three structural costs of this design,
//! all of which this implementation exhibits and the `ubj_compare` bench
//! measures:
//!
//! 1. **Architecture** — UBJ journals in the buffer-cache layer; Tinca
//!    offloads journaling to the disk cache.
//! 2. **Out-of-place updates of frozen data** — writing a block that is
//!    currently frozen cannot overwrite it; UBJ must `memcpy` the block
//!    and update out of place, *on the write critical path*
//!    ([`UbjStats::frozen_copies`] counts these).
//! 3. **Checkpoint unit = one transaction** — freeing NVM space writes
//!    every block of the oldest committed transaction to disk in one
//!    stall ([`UbjStats::checkpoint_stall_ns`] accumulates the cost).
//!
//! The commit protocol is two-phase (PreFrozen → publish flag → Frozen),
//! giving the same all-or-nothing crash atomicity as Tinca so the two are
//! compared at equal consistency.
//!
//! UBJ has no tuning knobs: it checkpoints one transaction whenever free
//! NVM drops below 10 %. A failed operation is a [`UbjError`]: a region
//! [`UbjCache::recover`] cannot open, a transaction too large for the
//! buffer, or a buffer with nothing left to checkpoint.
//!
//! ```
//! use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
//! use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
//! use ubj::UbjCache;
//!
//! let clock = SimClock::new();
//! let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
//! let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
//! let mut cache = UbjCache::format(nvm, disk);
//! cache.commit_txn(&[(9, Box::new([7u8; BLOCK_SIZE]))]).unwrap();
//! cache.commit_txn(&[(9, Box::new([8u8; BLOCK_SIZE]))]).unwrap();
//! // The second commit found block 9 frozen: one memcpy on the write path.
//! assert_eq!(cache.stats().frozen_copies, 1);
//! ```

mod cache;
mod entry;
mod error;
mod stats;

pub use cache::{DynDisk, UbjCache};
pub use entry::{UbjEntry, UbjState, FRESH as UBJ_FRESH};
pub use error::UbjError;
pub use stats::UbjStats;
