//! Full-stack builders: NVM device + disk + cache + file system, wired the
//! way the paper's two competitors are (Fig. 1), plus the ablation knobs.
//!
//! Everything downstream (workloads, cluster nodes, crash harnesses, the
//! figure benches) builds its stacks here, so the two systems always differ
//! in exactly the dimensions the paper varies.

use blockdev::{DiskKind, SimDisk};
use classic::{ClassicCache, ClassicConfig, MetadataScheme};
use nvmsim::{Nvm, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{PoolConfig, TincaConfig, TincaPool};
use ubj::UbjCache;

use crate::{Backend, FsError, FsSim, Geometry, JournalMode};

/// Which of the paper's systems (or ablations) to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// **Tinca** (§5.1): transactional NVM cache, no FS journal.
    Tinca,
    /// **Classic** (§5.1): Ext4+JBD2 over Flashcache over NVM block device.
    Classic,
    /// Classic stack with journaling disabled ("Ext4 w/o journaling",
    /// Figs. 3–4 baseline). No crash consistency.
    ClassicNoJournal,
    /// Classic stack, journaling on, synchronous metadata updates off
    /// (Fig. 4's "no metadata update" bar). Unsafe, measurement only.
    ClassicNoMeta,
    /// Classic stack, journaling *and* metadata updates off (Fig. 4).
    ClassicNoJournalNoMeta,
    /// Ablation: Tinca with the role switch disabled — commits degrade to
    /// journal-style double writes inside the cache.
    TincaNoRoleSwitch,
    /// UBJ-like baseline (§5.4.4): union of NVM buffer cache and journal,
    /// commit-in-place by freezing, transaction-unit checkpointing.
    Ubj,
    /// Classic stack with FlashTier/bcache-style *log* metadata instead of
    /// Flashcache's synchronous metadata blocks (§1's middle design point).
    ClassicLogMeta,
}

impl System {
    pub fn name(self) -> &'static str {
        match self {
            System::Tinca => "Tinca",
            System::Classic => "Classic",
            System::ClassicNoJournal => "Classic-nojournal",
            System::ClassicNoMeta => "Classic-nometa",
            System::ClassicNoJournalNoMeta => "Classic-nojournal-nometa",
            System::TincaNoRoleSwitch => "Tinca-noroleswitch",
            System::Ubj => "UBJ",
            System::ClassicLogMeta => "Classic-logmeta",
        }
    }
}

/// Everything needed to build one storage stack.
#[derive(Clone, Debug)]
pub struct StackConfig {
    pub system: System,
    /// NVM cache capacity in bytes (the paper: 8 GB; scaled default 64 MB).
    pub nvm_bytes: usize,
    pub nvm_tech: NvmTech,
    /// Disk size in 4 KB blocks (the paper: 128 GB SSD).
    pub disk_blocks: u64,
    pub disk_kind: DiskKind,
    /// FS journal region in blocks (Ext4 default 128 MB; scaled default
    /// 2 MB = 512 blocks). Reserved in all modes for comparability.
    pub journal_blocks: u64,
    pub max_files: u64,
    /// Transaction batch size in blocks.
    pub txn_block_limit: usize,
    /// Tinca ring buffer bytes.
    pub ring_bytes: usize,
    /// Flashcache set associativity.
    pub assoc: u32,
    /// Full NVM device config override (Fig. 3(b) measures "without
    /// clflush" by zeroing the persist costs). `None` uses
    /// `NvmConfig::new(nvm_bytes, nvm_tech)`.
    pub nvm_override: Option<NvmConfig>,
    /// DRAM page-cache blocks; `None` = the system's natural default
    /// (4096, or 0 for UBJ whose buffer cache is the NVM itself).
    pub dram_cache_blocks: Option<usize>,
    /// Enables Tinca's write-behind pipeline: the watermark destage
    /// daemon (batched, address-sorted background writeback) plus
    /// commit-path flush coalescing. Ignored by non-Tinca systems.
    /// Default `false` (the paper's synchronous eviction writeback).
    pub destage: bool,
}

impl StackConfig {
    /// A scaled-down local machine (§5.1): 64 MB NVM cache, 1 GB disk,
    /// PCM timings, SSD. The figure harnesses shrink `nvm_bytes` further
    /// (32 MB, ÷256 of the paper) and derive all dataset sizes from it.
    pub fn scaled_local(system: System) -> StackConfig {
        StackConfig {
            system,
            nvm_bytes: 64 << 20,
            nvm_tech: NvmTech::Pcm,
            disk_blocks: (1 << 30) / 4096,
            disk_kind: DiskKind::Ssd,
            journal_blocks: 512,
            max_files: 16 << 10,
            txn_block_limit: 128,
            ring_bytes: 64 << 10,
            assoc: 256,
            nvm_override: None,
            dram_cache_blocks: None,
            destage: false,
        }
    }

    /// A small stack for tests (1–4 MB NVM).
    pub fn tiny(system: System) -> StackConfig {
        StackConfig {
            system,
            nvm_bytes: 4 << 20,
            nvm_tech: NvmTech::Pcm,
            disk_blocks: 1 << 16,
            disk_kind: DiskKind::Ssd,
            journal_blocks: 128,
            max_files: 512,
            txn_block_limit: 32,
            ring_bytes: 16 << 10,
            assoc: 64,
            nvm_override: None,
            dram_cache_blocks: None,
            destage: false,
        }
    }

    /// The file-system geometry this stack uses.
    pub fn geometry(&self) -> Geometry {
        let dram = self.dram_cache_blocks.unwrap_or(match self.system {
            // UBJ unions buffer cache and journal in NVM: no DRAM cache.
            System::Ubj => 0,
            _ => 4096,
        });
        Geometry::with_txn_limit(
            self.disk_blocks,
            self.journal_blocks,
            self.max_files,
            self.txn_block_limit,
        )
        .with_dram_cache(dram)
    }

    fn journal_mode(&self) -> JournalMode {
        match self.system {
            System::Tinca | System::TincaNoRoleSwitch | System::Ubj => JournalMode::Tinca,
            System::Classic | System::ClassicNoMeta | System::ClassicLogMeta => JournalMode::Jbd2,
            System::ClassicNoJournal | System::ClassicNoJournalNoMeta => JournalMode::None,
        }
    }

    /// The paper's single Tinca cache: a one-shard pool.
    fn tinca_config(&self) -> PoolConfig {
        PoolConfig {
            cache: TincaConfig {
                ring_bytes: self.ring_bytes,
                role_switch: self.system != System::TincaNoRoleSwitch,
                destage: self.destage,
                coalesce_flushes: self.destage,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        }
    }

    fn classic_config(&self) -> ClassicConfig {
        ClassicConfig {
            assoc: self.assoc,
            sync_metadata: !matches!(
                self.system,
                System::ClassicNoMeta | System::ClassicNoJournalNoMeta
            ),
            metadata_scheme: if self.system == System::ClassicLogMeta {
                MetadataScheme::Log
            } else {
                MetadataScheme::SyncBlock
            },
            ..ClassicConfig::default()
        }
    }

    fn is_tinca(&self) -> bool {
        matches!(self.system, System::Tinca | System::TincaNoRoleSwitch)
    }
}

/// A fully built storage stack with handles for measurement.
pub struct Stack {
    pub fs: FsSim,
    pub nvm: Nvm,
    pub disk: blockdev::Disk,
    pub clock: SimClock,
    pub config: StackConfig,
}

/// Builds a fresh (formatted) stack.
pub fn build(cfg: &StackConfig) -> Result<Stack, FsError> {
    let clock = SimClock::new();
    let nvm_cfg = cfg
        .nvm_override
        .clone()
        .unwrap_or_else(|| NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech));
    let nvm = NvmDevice::new(nvm_cfg, clock.clone());
    let disk = SimDisk::new(cfg.disk_kind, cfg.disk_blocks, clock.clone());
    let backend = if cfg.is_tinca() {
        Backend::Tinca(TincaPool::format(
            vec![nvm.clone()],
            disk.clone(),
            cfg.tinca_config(),
        ))
    } else if cfg.system == System::Ubj {
        Backend::Ubj(UbjCache::format(nvm.clone(), disk.clone()))
    } else {
        Backend::Classic(ClassicCache::format(
            nvm.clone(),
            disk.clone(),
            cfg.classic_config(),
        ))
    };
    let fs = FsSim::mkfs(backend, cfg.geometry(), cfg.journal_mode())?;
    Ok(Stack {
        fs,
        nvm,
        disk,
        clock: clock.clone(),
        config: cfg.clone(),
    })
}

/// Re-mounts a stack on existing devices after a (simulated) reboot:
/// recovers the cache from NVM, then mounts the file system (running
/// journal replay where applicable).
pub fn remount(
    cfg: &StackConfig,
    nvm: Nvm,
    disk: blockdev::Disk,
    clock: SimClock,
) -> Result<Stack, FsError> {
    let backend = if cfg.is_tinca() {
        Backend::Tinca(TincaPool::recover(
            vec![nvm.clone()],
            disk.clone(),
            cfg.tinca_config(),
        )?)
    } else if cfg.system == System::Ubj {
        Backend::Ubj(UbjCache::recover(nvm.clone(), disk.clone())?)
    } else {
        Backend::Classic(ClassicCache::recover(
            nvm.clone(),
            disk.clone(),
            cfg.classic_config(),
        )?)
    };
    let fs = FsSim::mount(backend, cfg.geometry())?;
    Ok(Stack {
        fs,
        nvm,
        disk,
        clock,
        config: cfg.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_system() {
        for sys in [
            System::Tinca,
            System::Classic,
            System::ClassicNoJournal,
            System::ClassicNoMeta,
            System::ClassicNoJournalNoMeta,
            System::TincaNoRoleSwitch,
            System::Ubj,
            System::ClassicLogMeta,
        ] {
            let mut stack = build(&StackConfig::tiny(sys)).unwrap();
            assert_eq!(stack.fs.file_count().unwrap(), 0, "{}", sys.name());
        }
    }

    #[test]
    fn journal_mode_follows_system() {
        let t = build(&StackConfig::tiny(System::Tinca)).unwrap();
        assert_eq!(t.fs.mode(), JournalMode::Tinca);
        let c = build(&StackConfig::tiny(System::Classic)).unwrap();
        assert_eq!(c.fs.mode(), JournalMode::Jbd2);
        let n = build(&StackConfig::tiny(System::ClassicNoJournal)).unwrap();
        assert_eq!(n.fs.mode(), JournalMode::None);
    }

    #[test]
    fn remount_round_trips() {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut stack = build(&cfg).unwrap();
        let f = stack.fs.create("hello.txt").unwrap();
        stack.fs.write(f, 0, b"world").unwrap();
        stack.fs.fsync().unwrap();
        let (nvm, disk, clock) = (stack.nvm.clone(), stack.disk.clone(), stack.clock.clone());
        drop(stack.fs);
        let mut re = remount(&cfg, nvm, disk, clock).unwrap();
        let f = re.fs.open("hello.txt").unwrap();
        let mut buf = [0u8; 5];
        re.fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
    }
}
