//! The cache layer: the file system runs identically above Tinca,
//! Classic, UBJ or the bare disk; only the commit step differs.
//!
//! Tinca plugs in through its one public entry point, a one-shard
//! [`TincaPool`]: the paper's single transactional cache, bit-for-bit
//! (`tinca`'s `pool.rs` pins the equivalence through commit, crash and
//! recovery). So the paper figures, the cluster and the crash harnesses
//! drive the same cache API as every pool-based caller.
//!
//! All I/O is fallible: the storage substrate can inject transient and
//! permanent disk faults, and each cache either absorbs them (Tinca's
//! retry/quarantine machinery) or reports them as a [`BackendError`].

use std::ops::Range;
use std::sync::Arc;

use blockdev::{BlockDevice, BLOCK_SIZE};
use classic::ClassicCache;
use tinca::TincaPool;
use ubj::UbjCache;

use crate::{BackendError, CacheSnapshot};

/// The layer below the file system.
pub enum Backend {
    /// Tinca (§5.1): `write_block` is a one-block transaction and
    /// `commit_txn` maps directly onto `tinca_commit`.
    Tinca(TincaPool),
    /// Flashcache-like cache: no transactions, so the file system
    /// journals above it.
    Classic(ClassicCache),
    /// UBJ-like layer (§5.4.4 comparison baseline): the NVM *is* the
    /// buffer cache; commits freeze blocks in place, checkpoints drain
    /// whole transactions to disk.
    Ubj(UbjCache),
    /// No cache at all: the file system talks straight to the disk (a
    /// correctness baseline, and the way tests inject disk faults).
    Raw(Arc<dyn BlockDevice>),
}

/// The counters every cache keeps, with the name of its writeback counter.
macro_rules! snapshot {
    ($stats:expr, $writebacks:ident) => {{
        let s = $stats;
        CacheSnapshot {
            write_hits: s.write_hits,
            write_misses: s.write_misses,
            read_hits: s.read_hits,
            read_misses: s.read_misses,
            evictions: s.evictions,
            writebacks: s.$writebacks,
        }
    }};
}

impl Backend {
    /// Reads one block (cache-aware).
    pub(crate) fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), BackendError> {
        match self {
            Backend::Tinca(c) => c.read(blk, buf)?,
            Backend::Classic(c) => c.read(blk, buf)?,
            Backend::Ubj(c) => c.read(blk, buf),
            Backend::Raw(d) => d.read_block(blk, buf)?,
        }
        Ok(())
    }

    /// Durably writes one block (used by JBD2 and no-journal modes; every
    /// call is persistent when it returns, which is the ordering JBD2's
    /// commit-record protocol relies on).
    pub(crate) fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), BackendError> {
        match self {
            Backend::Tinca(c) => {
                let mut txn = c.init_txn();
                txn.write(blk, data);
                c.commit(txn)?;
            }
            Backend::Classic(c) => c.write(blk, data)?,
            Backend::Ubj(c) => {
                assert_eq!(data.len(), BLOCK_SIZE);
                // One copy, no zero-fill. Audited: the length is asserted.
                #[allow(clippy::disallowed_methods)]
                let b = Box::<[u8]>::from(data).try_into().expect("one whole block");
                c.commit_txn(&[(blk, b)])?;
            }
            Backend::Raw(d) => d.write_block(blk, data)?,
        }
        Ok(())
    }

    /// Atomically commits a set of blocks (used by Tinca mode). The
    /// buffers move in, so a cache that stages them need not copy.
    pub(crate) fn commit_txn(
        &mut self,
        blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>,
    ) -> Result<(), BackendError> {
        match self {
            Backend::Tinca(c) => {
                let mut txn = c.init_txn();
                for (blk, data) in blocks {
                    txn.stage_owned(blk, data);
                }
                c.commit(txn)?;
            }
            Backend::Ubj(c) => c.commit_txn(&blocks)?,
            Backend::Classic(_) | Backend::Raw(_) => return Err(BackendError::NoTransactions),
        }
        Ok(())
    }

    /// Writes every dirty cached block to disk (orderly shutdown).
    pub(crate) fn flush_all(&mut self) -> Result<(), BackendError> {
        match self {
            Backend::Tinca(c) => c.flush_all()?,
            Backend::Classic(c) => c.flush_all()?,
            Backend::Ubj(c) => c.checkpoint_all(),
            Backend::Raw(_) => {}
        }
        Ok(())
    }

    /// Device flush barrier (REQ_FLUSH) from the file system. The legacy
    /// write-back cache drains dirty blocks to disk; a transactional NVM
    /// cache needs nothing — its commit *is* the durability point.
    pub(crate) fn flush_barrier(&mut self) -> Result<(), BackendError> {
        if let Backend::Classic(c) = self {
            c.flush_barrier()?;
        }
        Ok(())
    }

    /// Cache-internal invariant check (verification harnesses).
    pub fn check(&self) -> Result<(), String> {
        match self {
            Backend::Tinca(c) => c.check_consistency(),
            Backend::Classic(c) => c.check_consistency(),
            Backend::Ubj(c) => c.check_consistency(),
            Backend::Raw(_) => Ok(()),
        }
    }

    /// Cache counters for figure harnesses (zero for the bare disk).
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        match self {
            Backend::Tinca(c) => snapshot!(c.stats(), writebacks),
            Backend::Classic(c) => snapshot!(c.stats(), writebacks),
            Backend::Ubj(c) => snapshot!(c.stats(), checkpoint_blocks),
            Backend::Raw(_) => CacheSnapshot::default(),
        }
    }

    /// NVM address ranges holding cache metadata (commit records, cache
    /// entries, ring buffer). Crash harnesses hand these to the
    /// persist-order analyzer so its torn-update rule applies only where
    /// tearing corrupts recovery. Only Tinca declares any: everything
    /// below its data area (header, ring, entry table).
    pub fn metadata_ranges(&self) -> Vec<Range<usize>> {
        match self {
            Backend::Tinca(c) => {
                let metadata = 0..c.shard_layout(0).data_off;
                vec![metadata]
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    #[test]
    fn tinca_backend_commits_transactions() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
        let mut cfg = tinca::PoolConfig::default();
        cfg.cache.ring_bytes = 4096;
        let mut be = Backend::Tinca(TincaPool::format(vec![nvm], disk, cfg));
        be.commit_txn(vec![(5, Box::new([7u8; BLOCK_SIZE]))])
            .unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read(5, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn classic_backend_rejects_txn() {
        let classic = || {
            let clock = SimClock::new();
            let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
            let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
            let cfg = classic::ClassicConfig {
                assoc: 64,
                ..Default::default()
            };
            Backend::Classic(ClassicCache::format(nvm, disk, cfg))
        };
        let mut be = classic();
        assert_eq!(be.commit_txn(Vec::new()), Err(BackendError::NoTransactions));
        be.write_block(3, &[9u8; BLOCK_SIZE]).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read(3, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        let geo = crate::Geometry::compute(1 << 14, 64, 100);
        let refused = crate::FsSim::mkfs(classic(), geo, crate::JournalMode::Tinca).err();
        assert_eq!(
            refused,
            Some(crate::FsError::Backend(BackendError::NoTransactions))
        );
    }

    #[test]
    fn raw_disk_round_trip_without_transactions() {
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 10, SimClock::new());
        let mut be = Backend::Raw(disk);
        be.write_block(1, &[3u8; BLOCK_SIZE]).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read(1, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        assert_eq!(be.commit_txn(Vec::new()), Err(BackendError::NoTransactions));
    }
}
