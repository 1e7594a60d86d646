//! # classic — the Flashcache-like baseline NVM cache
//!
//! The paper's competitor ("**Classic**", §5.1) is a three-layer stack:
//! Ext4 with JBD2 journaling on top, Flashcache as the cache manager in
//! the middle, and an NVM-based *block device* below. This crate provides
//! the middle layer faithfully:
//!
//! * **Set-associative** mapping (Flashcache's default: 512-block sets,
//!   LRU within a set) — a hot block range can thrash its set even while
//!   the cache has global headroom, which is one reason the paper measures
//!   an 80 % write hit rate for Classic vs 93 % for Tinca (Fig. 12c).
//! * **Block-format metadata, synchronously updated** (§3.2): every data
//!   block write rewrites the whole 4 KB metadata block covering its slot
//!   — the full 64-cache-line flush storm the paper blames for the
//!   metadata write amplification of Fig. 4.
//! * **In-place overwrites** on write hits — no COW, so a crash can tear a
//!   block. That is acceptable for the baseline because the journaling
//!   file system above recovers torn blocks from its redo journal.
//! * **No transactions** — the file system must journal (double writes).
//!
//! The `sync_metadata` knob disables metadata persistence to regenerate
//! Fig. 4 (throughput head-room of metadata updates).
//!
//! A failed operation is a [`ClassicError`]: a backing-disk request that
//! failed, or a region [`ClassicCache::recover`] cannot open.
//!
//! ```
//! use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
//! use classic::{ClassicCache, ClassicConfig};
//! use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
//!
//! let clock = SimClock::new();
//! let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
//! let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
//! let mut cache = ClassicCache::format(nvm, disk, ClassicConfig { assoc: 64, ..Default::default() });
//! cache.write(42, &[1u8; BLOCK_SIZE]).unwrap();
//! assert_eq!(cache.stats().meta_block_writes, 1); // synchronous 4 KB metadata write
//! ```

mod cache;
mod config;
mod error;
mod meta;
mod setlru;
mod stats;

pub use cache::ClassicCache;
pub use config::{ClassicConfig, MetadataScheme};
pub use error::ClassicError;
pub use meta::{ClassicLayout, SlotRecord};
pub use stats::ClassicStats;
