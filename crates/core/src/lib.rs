// Test code may unwrap/expect/panic freely; non-test code is held to the
// disallowed-methods ban in this crate's clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

//! # tinca — Transactional NVM Disk Cache
//!
//! A user-space reproduction of **Tinca** from *"Transactional NVM Cache
//! with High Performance and Crash Consistency"* (Qingsong Wei et al.,
//! SC '17). Tinca is a self-contained NVM caching layer that also provides
//! transactional primitives to the file system above it, so that:
//!
//! * the file system needs **no journal** — commit atomicity comes from
//!   the cache (`tinca_init_txn` / `tinca_commit` / `tinca_abort`, §4.1);
//! * no data block is ever written twice for consistency: a committed
//!   block is converted in place from *log* to *buffer* role (§4.3's
//!   **role switch**) instead of being checkpointed;
//! * cache metadata is managed in 16-byte, atomically-writable entries
//!   rather than metadata blocks (§4.2), eliminating the per-write
//!   metadata-block flush storm of Flashcache-style designs.
//!
//! ## Quick start
//!
//! ```
//! use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
//! use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
//! use tinca::{PoolConfig, TincaPool};
//!
//! let clock = SimClock::new();
//! let nvm = NvmDevice::new(NvmConfig::new(4 << 20, NvmTech::Pcm), clock.clone());
//! let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone());
//! // One shard: the paper's single Tinca cache.
//! let cache = TincaPool::format(vec![nvm], disk, PoolConfig::default());
//!
//! // Atomically commit two blocks.
//! let mut txn = cache.init_txn();
//! txn.write(10, &[0xAA; BLOCK_SIZE]);
//! txn.write(11, &[0xBB; BLOCK_SIZE]);
//! cache.commit(txn).unwrap();
//!
//! let mut buf = [0u8; BLOCK_SIZE];
//! cache.read(10, &mut buf).unwrap();
//! assert_eq!(buf[0], 0xAA);
//! ```

mod cache;
mod config;
mod entry;
mod entryset;
mod error;
mod freemon;
mod layout;
mod lru;
mod pool;
mod recovery;
mod shadow;
mod snapshot;
mod stats;
mod txn;

pub use cache::{DynDisk, Health};
pub use config::TincaConfig;
pub use error::TincaError;
pub use layout::{intent_tag, split_slot, Layout};
pub use pool::ring::{CommitMode, MwAdmission, MwReservation, MwTicket};
pub use pool::{PoolConfig, TincaPool};
pub use snapshot::StatsSnapshot;
pub use stats::CacheStats;
pub use txn::Txn;
