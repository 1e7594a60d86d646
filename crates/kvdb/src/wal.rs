//! The classic durability personality: an ARIES-lite redo write-ahead
//! log over the Ext4+JBD2+Flashcache stack.
//!
//! Every KV commit appends full images of its dirty pages plus a commit
//! record to `kv.wal` and fsyncs; home pages in `kv.db` are only written
//! at checkpoints (WAL past a size threshold) and on recovery. Recovery
//! replays completed transactions in order and discards the torn tail.
//!
//! This is deliberately the paper's "journaling of journal" shape
//! (§2.2): the application WAL rides on a journaling file system, so
//! every logical page is written to the app WAL, to the JBD2 journal,
//! to the FS home location, and eventually to the database file — the
//! write amplification the Tinca personality exists to eliminate.

use std::collections::BTreeMap;

use blockdev::BlockDevice;
use fssim::stack::{build, Stack, StackConfig, System};
use fssim::{FileId, FsError};
use nvmsim::NvmConfig;

use crate::page::{crc32, PAGE_SIZE};
use crate::store::{KvError, PageStore, StoreStats};

const DB_FILE: &str = "kv.db";
const WAL_FILE: &str = "kv.wal";
const PAGE_MAGIC: &[u8; 4] = b"KVWR";
const COMMIT_MAGIC: &[u8; 4] = b"KVCM";
/// [magic 4][page id 4][image PAGE_SIZE][crc 4]
const PAGE_REC: usize = 12 + PAGE_SIZE;
/// [magic 4][seq 8][npages 4][crc 4]
const COMMIT_REC: usize = 20;

/// Tuning for [`WalStore`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Checkpoint (write back home pages, truncate the WAL) once the WAL
    /// grows past this many bytes.
    pub checkpoint_bytes: u64,
    /// Pages the store will address (the `kv.db` size budget).
    pub page_capacity: u32,
    /// Trace NVM persistence events (crash harnesses need this).
    pub traced: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            checkpoint_bytes: 1 << 20,
            page_capacity: 8192,
            traced: false,
        }
    }
}

/// Redo-WAL page store over a classic journaling stack.
pub struct WalStore {
    stack: Stack,
    wal_cfg: WalConfig,
    db_ino: FileId,
    wal_ino: FileId,
    /// Pages whose newest image lives only in the WAL (not yet
    /// checkpointed to `kv.db`). `BTreeMap` so checkpoint write-back
    /// order is deterministic for crash replay.
    dirty_home: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
    wal_len: u64,
    seq: u64,
    commits: u64,
    pages_committed: u64,
}

fn fs_err(e: FsError) -> KvError {
    KvError::Store(e.to_string())
}

impl WalStore {
    /// Builds a fresh classic stack (`System::Classic` unless overridden
    /// in `stack_cfg`) and formats an empty store on it.
    pub fn format(mut stack_cfg: StackConfig, wal_cfg: WalConfig) -> Result<WalStore, KvError> {
        if wal_cfg.traced {
            let nvm_cfg = stack_cfg
                .nvm_override
                .take()
                .unwrap_or_else(|| NvmConfig::new(stack_cfg.nvm_bytes, stack_cfg.nvm_tech));
            stack_cfg.nvm_override = Some(nvm_cfg.with_tracing());
        }
        let stack = build(&stack_cfg).map_err(fs_err)?;
        Self::mount(stack, wal_cfg)
    }

    /// A tiny classic stack for tests.
    pub fn tiny(wal_cfg: WalConfig) -> Result<WalStore, KvError> {
        Self::format(StackConfig::tiny(System::Classic), wal_cfg)
    }

    /// Mounts a store on an already-built (or remounted-after-crash)
    /// stack: opens or creates the two files and runs WAL recovery.
    pub fn mount(mut stack: Stack, wal_cfg: WalConfig) -> Result<WalStore, KvError> {
        let db_ino = open_or_create(&mut stack, DB_FILE)?;
        let wal_ino = open_or_create(&mut stack, WAL_FILE)?;
        let mut store = WalStore {
            stack,
            wal_cfg,
            db_ino,
            wal_ino,
            dirty_home: BTreeMap::new(),
            wal_len: 0,
            seq: 0,
            commits: 0,
            pages_committed: 0,
        };
        store.recover()?;
        Ok(store)
    }

    /// Replays completed WAL transactions into the home-page buffer,
    /// discards the torn tail, then checkpoints so the store restarts
    /// with an empty WAL.
    fn recover(&mut self) -> Result<(), KvError> {
        let wal_size = self.stack.fs.file_size(self.wal_ino).map_err(fs_err)?;
        if wal_size == 0 {
            return Ok(());
        }
        let mut wal = vec![0u8; wal_size as usize];
        self.stack
            .fs
            .read(self.wal_ino, 0, &mut wal)
            .map_err(fs_err)?;
        let mut pos = 0usize;
        let mut pending: Vec<(u32, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        while pos < wal.len() {
            let rest = &wal[pos..];
            if rest.len() >= PAGE_REC && &rest[0..4] == PAGE_MAGIC {
                let body = &rest[4..PAGE_REC - 4];
                let stored = u32::from_le_bytes([
                    rest[PAGE_REC - 4],
                    rest[PAGE_REC - 3],
                    rest[PAGE_REC - 2],
                    rest[PAGE_REC - 1],
                ]);
                if crc32(body) != stored {
                    break; // torn page record: end of valid log
                }
                let id = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
                let mut img = Box::new([0u8; PAGE_SIZE]);
                img.copy_from_slice(&body[4..]);
                pending.push((id, img));
                pos += PAGE_REC;
            } else if rest.len() >= COMMIT_REC && &rest[0..4] == COMMIT_MAGIC {
                let body = &rest[4..COMMIT_REC - 4];
                let stored = u32::from_le_bytes([
                    rest[COMMIT_REC - 4],
                    rest[COMMIT_REC - 3],
                    rest[COMMIT_REC - 2],
                    rest[COMMIT_REC - 1],
                ]);
                if crc32(body) != stored {
                    break;
                }
                let seq = u64::from_le_bytes([
                    body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
                ]);
                let npages = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
                if npages as usize != pending.len() {
                    break; // commit record for a different batch: torn
                }
                for (id, img) in pending.drain(..) {
                    self.dirty_home.insert(id, img);
                }
                self.seq = seq;
                pos += COMMIT_REC;
            } else {
                break; // unrecognized or truncated record: torn tail
            }
        }
        self.checkpoint()
    }

    /// Writes every buffered home page to `kv.db`, makes that durable,
    /// then truncates the WAL. Idempotent: a crash between the two
    /// fsyncs leaves the WAL intact and replay re-derives the same
    /// home images.
    fn checkpoint(&mut self) -> Result<(), KvError> {
        for (id, img) in &self.dirty_home {
            self.stack
                .fs
                .write(self.db_ino, u64::from(*id) * PAGE_SIZE as u64, &img[..])
                .map_err(fs_err)?;
        }
        self.stack.fs.fsync().map_err(fs_err)?;
        self.stack.fs.truncate(self.wal_ino, 0).map_err(fs_err)?;
        self.stack.fs.fsync().map_err(fs_err)?;
        self.dirty_home.clear();
        self.wal_len = 0;
        Ok(())
    }

    /// The underlying stack (device handles for crash harnesses and
    /// measurement).
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Mutable stack access (the crash apps arm trips through this).
    pub(crate) fn stack_mut(&mut self) -> &mut Stack {
        &mut self.stack
    }

    /// Tears the store down to its stack (for crash-and-remount cycles;
    /// all DRAM buffering is discarded, as a real crash would).
    pub fn into_stack(self) -> Stack {
        self.stack
    }
}

fn open_or_create(stack: &mut Stack, name: &str) -> Result<FileId, KvError> {
    match stack.fs.open(name) {
        Ok(ino) => Ok(ino),
        Err(_) => {
            let ino = stack.fs.create(name).map_err(fs_err)?;
            stack.fs.fsync().map_err(fs_err)?;
            Ok(ino)
        }
    }
}

impl PageStore for WalStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        if let Some(img) = self.dirty_home.get(&id) {
            buf.copy_from_slice(&img[..]);
            return Ok(());
        }
        buf.fill(0);
        let off = u64::from(id) * PAGE_SIZE as u64;
        if off < self.stack.fs.file_size(self.db_ino).map_err(fs_err)? {
            self.stack.fs.read(self.db_ino, off, buf).map_err(fs_err)?;
        }
        Ok(())
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        // One contiguous append: page records then the commit record.
        let mut rec = Vec::with_capacity(dirty.len() * PAGE_REC + COMMIT_REC);
        for (id, img) in dirty {
            rec.extend_from_slice(PAGE_MAGIC);
            let body_start = rec.len();
            rec.extend_from_slice(&id.to_le_bytes());
            rec.extend_from_slice(img);
            let crc = crc32(&rec[body_start..]);
            rec.extend_from_slice(&crc.to_le_bytes());
        }
        self.seq += 1;
        rec.extend_from_slice(COMMIT_MAGIC);
        let body_start = rec.len();
        rec.extend_from_slice(&self.seq.to_le_bytes());
        rec.extend_from_slice(&(dirty.len() as u32).to_le_bytes());
        let crc = crc32(&rec[body_start..]);
        rec.extend_from_slice(&crc.to_le_bytes());

        self.stack
            .fs
            .write(self.wal_ino, self.wal_len, &rec)
            .map_err(fs_err)?;
        self.stack.fs.fsync().map_err(fs_err)?;
        self.wal_len += rec.len() as u64;

        // The WAL is durable: the commit is decided. Buffer the home
        // images; they reach kv.db at the next checkpoint.
        for (id, img) in dirty {
            self.dirty_home.insert(*id, Box::new(*img));
        }
        self.commits += 1;
        self.pages_committed += dirty.len() as u64;

        if self.wal_len >= self.wal_cfg.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn page_capacity(&self) -> u32 {
        self.wal_cfg.page_capacity
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.commits,
            pages_committed: self.pages_committed,
            nvm_bytes: self.stack.nvm.stats().bytes_written_back(),
            disk_bytes: self.stack.disk.stats().writes * blockdev::BLOCK_SIZE as u64,
        }
    }
}
