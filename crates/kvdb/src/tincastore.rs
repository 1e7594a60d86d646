//! The WAL-free durability personality: dirty pages become one Tinca
//! pool transaction, and the ring commit *is* the durability point.
//!
//! No log, no replay, no checkpoint: the pool's commit protocol (and,
//! for batches whose pages map to more than one shard, the persistent
//! two-phase spanning path) already gives the all-or-nothing guarantee
//! the [`crate::store::PageStore`] contract demands. Page `p` lives at
//! disk block `p`, so with two shards a batch that mixes even and odd
//! page ids is a spanning transaction. The meta page (page 0, shard 0)
//! is in the batch only when a split, a free or a root collapse changed
//! it; on the TPC-C stream that leaves 65 % of commits on the spanning
//! path (91 % while page 0 rode in every batch), so the kvdb crash
//! campaigns still exercise it on most multi-page commits.
//!
//! The pool runs every extension the cache has, the one library client
//! that does:
//! * [`TincaConfig::delta_stage`]: a TPC-C row change touches a handful
//!   of a page's 64 cache lines, so a rewritten page is staged into the
//!   reserved copy of its previous version and only the lines that
//!   differ are stored and flushed (6.4 of 64 on `kv_tpcc`);
//! * [`TincaConfig::destage`]: once free plus clean blocks fall below a
//!   quarter of a shard, dirty LRU pages go back to disk in background,
//!   address-sorted batches, so a commit that needs a block evicts a
//!   clean victim instead of waiting for a synchronous write-back (about
//!   80 µs on the SSD; it set `kv_tpcc`'s p99);
//! * [`TincaConfig::coalesce_flushes`]: one fence drains a commit's
//!   payload, entry and ring-slot flushes.
//!
//! Every crash campaign over this store therefore exercises all three
//! under the spanning commit; the campaigns' 256 KB shards destage only
//! past a few thousand transactions, so `crates/kvdb/tests/crash.rs` cuts
//! a smaller store through its first destage batch.

use blockdev::{BlockDevice, Disk, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use tinca::{PoolConfig, TincaConfig, TincaPool};

use crate::page::PAGE_SIZE;
use crate::store::{KvError, PageStore, StoreStats};

/// Sizing for a [`TincaStore`]'s devices and pool.
#[derive(Clone, Debug)]
pub struct TincaStoreConfig {
    /// Commit-ring shards (page id modulo shards picks the shard).
    pub shards: usize,
    /// NVM bytes per shard.
    pub nvm_bytes_per_shard: usize,
    /// Disk size in blocks (= the store's page capacity).
    pub disk_blocks: u64,
    /// Per-shard commit ring bytes.
    pub ring_bytes: usize,
    /// Trace NVM persistence events (crash harnesses need this).
    pub traced: bool,
}

impl Default for TincaStoreConfig {
    fn default() -> Self {
        TincaStoreConfig {
            shards: 2,
            nvm_bytes_per_shard: 2 << 20,
            disk_blocks: 1 << 16,
            ring_bytes: 16 << 10,
            traced: false,
        }
    }
}

impl TincaStoreConfig {
    fn nvm_config(&self) -> NvmConfig {
        let cfg = NvmConfig::new(self.shards * self.nvm_bytes_per_shard, NvmTech::Pcm);
        if self.traced {
            cfg.with_tracing()
        } else {
            cfg
        }
    }

    fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            shards: self.shards,
            cache: TincaConfig {
                ring_bytes: self.ring_bytes,
                // B-tree pages are the sparse-rewrite case: a TPC-C row
                // change touches a handful of a page's 64 lines.
                delta_stage: true,
                // A commit that needs a block evicts a clean victim: dirty
                // LRU pages leave in background batches, never on a commit
                // while the daemon keeps up.
                destage: true,
                // One fence drains a commit's payload, entry and slot lines.
                coalesce_flushes: true,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        }
    }
}

/// Journal-free page store: one Tinca pool transaction per KV commit.
pub struct TincaStore {
    pool: TincaPool,
    devices: Vec<Nvm>,
    disk: Disk,
    clock: SimClock,
    cfg: TincaStoreConfig,
    commits: u64,
    pages_committed: u64,
}

impl TincaStore {
    /// Fresh devices, freshly formatted pool.
    pub fn format(cfg: TincaStoreConfig) -> TincaStore {
        let devices = shard_devices(&cfg.nvm_config(), cfg.shards);
        let clock = SimClock::new();
        let disk = SimDisk::new(DiskKind::Ssd, cfg.disk_blocks, clock.clone());
        let pool = TincaPool::format(devices.clone(), disk.clone(), cfg.pool_config());
        TincaStore {
            pool,
            devices,
            disk,
            clock,
            cfg,
            commits: 0,
            pages_committed: 0,
        }
    }

    /// Recovers a pool on surviving devices (the crash-and-remount path;
    /// DRAM counters restart, exactly as a reboot would restart them).
    pub fn recover(
        devices: Vec<Nvm>,
        disk: Disk,
        clock: SimClock,
        cfg: TincaStoreConfig,
    ) -> Result<TincaStore, KvError> {
        let pool = TincaPool::recover(devices.clone(), disk.clone(), cfg.pool_config())
            .map_err(|e| KvError::Store(format!("pool recovery: {e}")))?;
        Ok(TincaStore {
            pool,
            devices,
            disk,
            clock,
            cfg,
            commits: 0,
            pages_committed: 0,
        })
    }

    /// The shard devices (crash harnesses arm trips and crash these).
    pub fn devices(&self) -> &[Nvm] {
        &self.devices
    }

    /// The backing disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The simulated clock driving this store's devices.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The live pool.
    pub fn pool(&self) -> &TincaPool {
        &self.pool
    }

    /// The store's sizing config (crash cycles rebuild from this).
    pub fn config(&self) -> &TincaStoreConfig {
        &self.cfg
    }

    /// Tears the store down to its surviving parts for a crash cycle.
    pub fn into_parts(self) -> (Vec<Nvm>, Disk, SimClock, TincaStoreConfig) {
        (self.devices, self.disk, self.clock, self.cfg)
    }
}

impl PageStore for TincaStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        self.pool
            .read(u64::from(id), buf)
            .map_err(|e| KvError::Store(format!("pool read of page {id}: {e}")))
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        let mut txn = self.pool.init_txn();
        for (id, img) in dirty {
            txn.write(u64::from(*id), img);
        }
        self.pool
            .commit(txn)
            .map_err(|e| KvError::Store(format!("pool commit: {e}")))?;
        self.commits += 1;
        self.pages_committed += dirty.len() as u64;
        Ok(())
    }

    fn page_capacity(&self) -> u32 {
        u32::try_from(self.cfg.disk_blocks).unwrap_or(u32::MAX)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.commits,
            pages_committed: self.pages_committed,
            nvm_bytes: self
                .devices
                .iter()
                .map(|d| d.stats().bytes_written_back())
                .sum(),
            disk_bytes: self.disk.stats().writes * BLOCK_SIZE as u64,
        }
    }
}
