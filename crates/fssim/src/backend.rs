//! Cache-layer abstraction: the file system runs identically above Tinca,
//! Classic, UBJ or the bare disk; only the commit step differs.
//!
//! Tinca plugs in through its one public entry point, a one-shard
//! [`TincaPool`]: the paper's single transactional cache, bit-for-bit
//! (`tinca`'s `pool.rs` pins the equivalence through commit, crash and
//! recovery). So the paper figures, the cluster and the crash harnesses
//! drive the same cache API as every pool-based caller.

use blockdev::{BlockDevice, BLOCK_SIZE};
use classic::ClassicCache;
use std::sync::Arc;
use tinca::TincaPool;
use ubj::UbjCache;

/// What the file system needs from the layer below it.
///
/// All I/O is fallible: the storage substrate can inject transient and
/// permanent disk faults, and each backend either absorbs them (Tinca's
/// retry/quarantine machinery) or surfaces them as a `String` the file
/// system wraps in `FsError::Backend`.
pub trait CacheBackend {
    /// Reads one block (cache-aware).
    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String>;

    /// Durably writes one block (used by JBD2 and no-journal modes; every
    /// call is persistent when it returns, which is the ordering JBD2's
    /// commit-record protocol relies on).
    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String>;

    /// Atomically commits a set of blocks (used by Tinca mode). The
    /// buffers move in, so a backend that stages them need not copy.
    /// Backends without transactional support return an error.
    fn commit_txn(&mut self, blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>) -> Result<(), String>;

    /// Whether [`Self::commit_txn`] is supported.
    fn supports_txn(&self) -> bool;

    /// Writes every dirty cached block to disk (orderly shutdown).
    fn flush_all(&mut self) -> Result<(), String>;

    /// Reads without populating the cache (verification).
    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String>;

    /// Cache-internal invariant check (verification harnesses).
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Cache counters for figure harnesses (zero for cacheless backends).
    fn cache_snapshot(&self) -> crate::CacheSnapshot {
        crate::CacheSnapshot::default()
    }

    /// Device flush barrier (REQ_FLUSH) from the file system. The legacy
    /// write-back cache drains dirty blocks to disk; a transactional NVM
    /// cache needs nothing — its commit *is* the durability point.
    fn flush_barrier(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// NVM address ranges holding cache metadata (commit records, cache
    /// entries, ring buffer). Crash harnesses hand these to the
    /// persist-order analyzer so its torn-update rule applies only where
    /// tearing corrupts recovery. Empty for layers without NVM metadata.
    fn metadata_ranges(&self) -> Vec<std::ops::Range<usize>> {
        Vec::new()
    }

    /// Downcasting hook so harnesses can reach implementation-specific
    /// counters (e.g. UBJ's memcpy/stall statistics).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Tinca as the cache layer: `write_block` is a one-block transaction,
/// `commit_txn` maps directly onto `tinca_commit`. The cache is a
/// one-shard [`TincaPool`] — the paper's single Tinca cache.
pub struct TincaBackend {
    pub cache: TincaPool,
}

impl TincaBackend {
    pub fn new(cache: TincaPool) -> Self {
        Self { cache }
    }
}

impl CacheBackend for TincaBackend {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read(blk, buf).map_err(|e| e.to_string())
    }

    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String> {
        let mut txn = self.cache.init_txn();
        txn.write(blk, data);
        self.cache.commit(txn).map_err(|e| e.to_string())
    }

    fn commit_txn(&mut self, blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>) -> Result<(), String> {
        let mut txn = self.cache.init_txn();
        for (blk, data) in blocks {
            txn.stage_owned(blk, data);
        }
        self.cache.commit(txn).map_err(|e| e.to_string())
    }

    fn supports_txn(&self) -> bool {
        true
    }

    fn flush_all(&mut self) -> Result<(), String> {
        self.cache.flush_all().map_err(|e| e.to_string())
    }

    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read_nocache(blk, buf).map_err(|e| e.to_string())
    }

    fn check(&self) -> Result<(), String> {
        self.cache.check_consistency()
    }

    fn cache_snapshot(&self) -> crate::CacheSnapshot {
        let s = self.cache.stats();
        crate::CacheSnapshot {
            write_hits: s.write_hits,
            write_misses: s.write_misses,
            read_hits: s.read_hits,
            read_misses: s.read_misses,
            evictions: s.evictions,
            writebacks: s.writebacks,
        }
    }

    fn metadata_ranges(&self) -> Vec<std::ops::Range<usize>> {
        // Everything below the data area: header, ring, entry table.
        let metadata = 0..self.cache.shard_layout(0).data_off;
        vec![metadata]
    }
}

/// Flashcache-like cache layer: no transactions; the FS must journal.
pub struct ClassicBackend {
    pub cache: ClassicCache,
}

impl ClassicBackend {
    pub fn new(cache: ClassicCache) -> Self {
        Self { cache }
    }
}

impl CacheBackend for ClassicBackend {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read(blk, buf).map_err(|e| e.to_string())
    }

    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String> {
        self.cache.write(blk, data).map_err(|e| e.to_string())
    }

    fn commit_txn(&mut self, _blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>) -> Result<(), String> {
        Err("Classic cache has no transactional support — use JBD2 journaling above it".into())
    }

    fn supports_txn(&self) -> bool {
        false
    }

    fn flush_all(&mut self) -> Result<(), String> {
        self.cache.flush_all().map_err(|e| e.to_string())
    }

    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read_nocache(blk, buf).map_err(|e| e.to_string())
    }

    fn check(&self) -> Result<(), String> {
        self.cache.check_consistency()
    }

    fn cache_snapshot(&self) -> crate::CacheSnapshot {
        let s = self.cache.stats();
        crate::CacheSnapshot {
            write_hits: s.write_hits,
            write_misses: s.write_misses,
            read_hits: s.read_hits,
            read_misses: s.read_misses,
            evictions: s.evictions,
            writebacks: s.writebacks,
        }
    }

    fn flush_barrier(&mut self) -> Result<(), String> {
        self.cache.flush_barrier().map_err(|e| e.to_string())
    }
}

/// UBJ-like layer (§5.4.4 comparison baseline): the NVM *is* the buffer
/// cache; commits freeze blocks in place, checkpoints drain whole
/// transactions to disk.
pub struct UbjBackend {
    pub cache: UbjCache,
}

impl UbjBackend {
    pub fn new(cache: UbjCache) -> Self {
        Self { cache }
    }
}

impl CacheBackend for UbjBackend {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read(blk, buf);
        Ok(())
    }

    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String> {
        let mut b: Box<[u8; BLOCK_SIZE]> = Box::new([0u8; BLOCK_SIZE]);
        b.copy_from_slice(data);
        self.cache.commit_txn(&[(blk, b)])
    }

    fn commit_txn(&mut self, blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>) -> Result<(), String> {
        self.cache.commit_txn(&blocks)
    }

    fn supports_txn(&self) -> bool {
        true
    }

    fn flush_all(&mut self) -> Result<(), String> {
        self.cache.checkpoint_all();
        Ok(())
    }

    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.cache.read_nocache(blk, buf);
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        self.cache.check_consistency()
    }

    fn cache_snapshot(&self) -> crate::CacheSnapshot {
        let s = self.cache.stats();
        crate::CacheSnapshot {
            write_hits: s.write_hits,
            write_misses: s.write_misses,
            read_hits: s.read_hits,
            read_misses: s.read_misses,
            evictions: s.evictions,
            writebacks: s.checkpoint_blocks,
        }
    }
}

/// No cache at all — the file system talks straight to the disk.
/// Useful as a correctness baseline in tests.
pub struct RawDiskBackend {
    pub disk: Arc<dyn BlockDevice>,
}

impl RawDiskBackend {
    pub fn new(disk: Arc<dyn BlockDevice>) -> Self {
        Self { disk }
    }
}

impl CacheBackend for RawDiskBackend {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn read(&mut self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.disk.read_block(blk, buf).map_err(|e| e.to_string())
    }

    fn write_block(&mut self, blk: u64, data: &[u8]) -> Result<(), String> {
        self.disk.write_block(blk, data).map_err(|e| e.to_string())
    }

    fn commit_txn(&mut self, _blocks: Vec<(u64, Box<[u8; BLOCK_SIZE]>)>) -> Result<(), String> {
        Err("raw disk has no transactional support".into())
    }

    fn supports_txn(&self) -> bool {
        false
    }

    fn flush_all(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn read_nocache(&self, blk: u64, buf: &mut [u8]) -> Result<(), String> {
        self.disk.read_block(blk, buf).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    #[test]
    fn tinca_backend_supports_txn() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
        let mut cfg = tinca::PoolConfig::default();
        cfg.cache.ring_bytes = 4096;
        let mut be = TincaBackend::new(TincaPool::format(vec![nvm], disk, cfg));
        assert!(be.supports_txn());
        be.commit_txn(vec![(5, Box::new([7u8; BLOCK_SIZE]))])
            .unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read(5, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn classic_backend_rejects_txn() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
        let cache = ClassicCache::format(
            nvm,
            disk,
            classic::ClassicConfig {
                assoc: 64,
                ..Default::default()
            },
        );
        let mut be = ClassicBackend::new(cache);
        assert!(!be.supports_txn());
        assert!(be.commit_txn(Vec::new()).is_err());
        be.write_block(3, &[9u8; BLOCK_SIZE]).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read(3, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
    }

    #[test]
    fn raw_disk_round_trip() {
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 10, SimClock::new());
        let mut be = RawDiskBackend::new(disk);
        be.write_block(1, &[3u8; BLOCK_SIZE]).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        be.read_nocache(1, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
    }
}
