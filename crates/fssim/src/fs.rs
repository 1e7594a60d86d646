//! The mini file system: flat namespace, inode table, block bitmap,
//! direct/indirect/double-indirect files, batched transactions.

use blockdev::BLOCK_SIZE;
use std::collections::HashMap;

use crate::bytes;
use crate::geometry::{Geometry, MAX_NAME_LEN, NAMES_PER_BLOCK, NAME_ENTRY_BYTES};
use crate::inode::{classify, BlockPath, Inode, INODE_BYTES, NO_BLOCK, PTRS_PER_BLOCK};
use crate::jbd2::{Jbd2, JournalMode};
use crate::pagecache::PageCache;
use crate::{Backend, BackendError, FsError};

const SB_MAGIC: u64 = 0x4653_5349_4d53_4231; // "FSSIMSB1"

/// A file handle: the file's inode number.
pub type FileId = u64;

/// Operation counters for one mounted file system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsStats {
    pub creates: u64,
    pub deletes: u64,
    pub write_ops: u64,
    pub read_ops: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub fsyncs: u64,
    pub commits: u64,
    pub committed_blocks: u64,
}

impl std::ops::Add for FsStats {
    type Output = FsStats;

    fn add(self, o: FsStats) -> FsStats {
        FsStats {
            creates: self.creates + o.creates,
            deletes: self.deletes + o.deletes,
            write_ops: self.write_ops + o.write_ops,
            read_ops: self.read_ops + o.read_ops,
            bytes_written: self.bytes_written + o.bytes_written,
            bytes_read: self.bytes_read + o.bytes_read,
            fsyncs: self.fsyncs + o.fsyncs,
            commits: self.commits + o.commits,
            committed_blocks: self.committed_blocks + o.committed_blocks,
        }
    }
}

impl FsStats {
    pub fn delta(&self, e: &FsStats) -> FsStats {
        FsStats {
            creates: self.creates - e.creates,
            deletes: self.deletes - e.deletes,
            write_ops: self.write_ops - e.write_ops,
            read_ops: self.read_ops - e.read_ops,
            bytes_written: self.bytes_written - e.bytes_written,
            bytes_read: self.bytes_read - e.bytes_read,
            fsyncs: self.fsyncs - e.fsyncs,
            commits: self.commits - e.commits,
            committed_blocks: self.committed_blocks - e.committed_blocks,
        }
    }
}

/// The mounted file system.
pub struct FsSim {
    backend: Backend,
    geo: Geometry,
    mode: JournalMode,
    journal: Option<Jbd2>,
    pc: PageCache,
    /// name → (inode, name-table slot).
    names: HashMap<String, (u64, u64)>,
    free_name_slots: Vec<u64>,
    inodes: Vec<Inode>,
    free_inodes: Vec<u64>,
    /// One bit per data-area block; DRAM mirror of the on-disk bitmap.
    bitmap: Vec<u64>,
    free_data_blocks: u64,
    alloc_cursor: u64,
    stats: FsStats,
    /// Blocks per committed transaction, in commit order (Fig. 13).
    txn_sizes: Vec<u32>,
}

impl FsSim {
    /// Creates a new file system on `backend` and mounts it.
    ///
    /// In [`JournalMode::Tinca`] the backend must be Tinca or UBJ (any
    /// other is refused with [`BackendError::NoTransactions`]); in
    /// [`JournalMode::Jbd2`] a redo journal is formatted in the reserved
    /// journal region.
    pub fn mkfs(mut backend: Backend, geo: Geometry, mode: JournalMode) -> Result<FsSim, FsError> {
        if mode == JournalMode::Tinca && matches!(backend, Backend::Classic(_) | Backend::Raw(_)) {
            return Err(BackendError::NoTransactions.into());
        }
        // Superblock (the disk reads zeroes everywhere else, which decodes
        // as "all free" — no need to zero the metadata regions).
        let mut sb = [0u8; BLOCK_SIZE];
        sb[0..8].copy_from_slice(&SB_MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&geo.total_blocks.to_le_bytes());
        sb[16..24].copy_from_slice(&geo.journal_blocks.to_le_bytes());
        sb[24..32].copy_from_slice(&geo.max_files.to_le_bytes());
        sb[32..40].copy_from_slice(&(geo.txn_block_limit as u64).to_le_bytes());
        sb[40] = match mode {
            JournalMode::None => 0,
            JournalMode::Jbd2 => 1,
            JournalMode::Tinca => 2,
        };
        backend.write_block(0, &sb)?;
        let journal = if mode == JournalMode::Jbd2 {
            Some(Jbd2::format(&geo, &mut backend)?)
        } else {
            None
        };
        Ok(Self::fresh(backend, geo, mode, journal))
    }

    /// Mounts an existing file system (after a crash or clean shutdown):
    /// validates the superblock, runs journal recovery if in JBD2 mode,
    /// and rebuilds the DRAM mirrors from the committed on-disk state.
    ///
    /// (In Tinca mode the *cache* recovery — `TincaPool::recover` — must
    /// already have happened when constructing the backend.)
    ///
    /// A missing or garbled superblock (the file system's or the journal's)
    /// is [`FsError::BadSuperblock`]; a cache or disk failure on the way,
    /// journal replay included, is [`FsError::Backend`].
    pub fn mount(mut backend: Backend, geo: Geometry) -> Result<FsSim, FsError> {
        let _t = telemetry::span(telemetry::phase::FS_MOUNT);
        let superblock = telemetry::span(telemetry::phase::FS_MOUNT_SUPERBLOCK);
        let mut sb = [0u8; BLOCK_SIZE];
        backend.read(0, &mut sb)?;
        if bytes::le_u64(&sb, 0) != SB_MAGIC {
            return Err(FsError::BadSuperblock("magic mismatch".into()));
        }
        let total = bytes::le_u64(&sb, 8);
        let jblocks = bytes::le_u64(&sb, 16);
        let max_files = bytes::le_u64(&sb, 24);
        if (total, jblocks, max_files) != (geo.total_blocks, geo.journal_blocks, geo.max_files) {
            return Err(FsError::BadSuperblock("geometry mismatch".into()));
        }
        let mode = match sb[40] {
            0 => JournalMode::None,
            1 => JournalMode::Jbd2,
            2 => JournalMode::Tinca,
            m => return Err(FsError::BadSuperblock(format!("unknown mode {m}"))),
        };
        drop(superblock);
        let journal = match mode {
            JournalMode::Jbd2 => Some(Jbd2::recover(&geo, &mut backend)?),
            _ => None,
        };
        let mut fs = Self::fresh(backend, geo, mode, journal);
        fs.rebuild_mirrors()?;
        Ok(fs)
    }

    fn fresh(backend: Backend, geo: Geometry, mode: JournalMode, journal: Option<Jbd2>) -> FsSim {
        let bitmap_words = (geo.data_blocks as usize).div_ceil(64);
        FsSim {
            backend,
            mode,
            journal,
            pc: PageCache::new(geo.dram_cache_blocks),
            names: HashMap::new(),
            free_name_slots: (0..geo.max_files).rev().collect(),
            inodes: vec![Inode::FREE; geo.max_files as usize],
            free_inodes: (0..geo.max_files).rev().collect(),
            bitmap: vec![0u64; bitmap_words],
            free_data_blocks: geo.data_blocks,
            alloc_cursor: 0,
            stats: FsStats::default(),
            txn_sizes: Vec::new(),
            geo,
        }
    }

    /// Rebuilds names/inodes/bitmap mirrors by scanning the metadata
    /// regions through the cache.
    fn rebuild_mirrors(&mut self) -> Result<(), FsError> {
        let geo = self.geo;
        let mut block = [0u8; BLOCK_SIZE];
        let names = telemetry::span(telemetry::phase::FS_MOUNT_NAMES);
        self.names.clear();
        self.free_name_slots.clear();
        for nb in 0..geo.name_blocks {
            self.backend.read(geo.name_off + nb, &mut block)?;
            for i in 0..NAMES_PER_BLOCK {
                let slot = nb * NAMES_PER_BLOCK as u64 + i as u64;
                if slot >= geo.max_files {
                    break;
                }
                let e = &block[i * NAME_ENTRY_BYTES..(i + 1) * NAME_ENTRY_BYTES];
                let len = e[8] as usize;
                if len == 0 {
                    self.free_name_slots.push(slot);
                } else {
                    let ino = bytes::le_u64(e, 0);
                    let name = String::from_utf8_lossy(&e[9..9 + len]).into_owned();
                    self.names.insert(name, (ino, slot));
                }
            }
        }
        self.free_name_slots.reverse();
        drop(names);
        let inodes = telemetry::span(telemetry::phase::FS_MOUNT_INODES);
        self.free_inodes.clear();
        for ib in 0..geo.inode_blocks {
            self.backend.read(geo.inode_off + ib, &mut block)?;
            for i in 0..crate::INODES_PER_BLOCK {
                let ino = ib * crate::INODES_PER_BLOCK as u64 + i as u64;
                if ino >= geo.max_files {
                    break;
                }
                let dec = Inode::decode(&block[i * INODE_BYTES..(i + 1) * INODE_BYTES]);
                if !dec.used {
                    self.free_inodes.push(ino);
                }
                self.inodes[ino as usize] = dec;
            }
        }
        self.free_inodes.reverse();
        drop(inodes);
        let _bitmap = telemetry::span(telemetry::phase::FS_MOUNT_BITMAP);
        self.free_data_blocks = 0;
        for bb in 0..geo.bitmap_blocks {
            self.backend.read(geo.bitmap_off + bb, &mut block)?;
            for w in 0..BLOCK_SIZE / 8 {
                let word_idx = bb as usize * (BLOCK_SIZE / 8) + w;
                if word_idx < self.bitmap.len() {
                    self.bitmap[word_idx] = bytes::le_u64(&block, w * 8);
                }
            }
        }
        for b in 0..geo.data_blocks {
            if !self.bit(b) {
                self.free_data_blocks += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Staging helpers (everything funnels into the page-cache dirty set)
    // ------------------------------------------------------------------

    /// The newest contents of `blk`, read through the cache on a miss.
    fn fetch_block(&mut self, blk: u64) -> Result<&[u8; BLOCK_SIZE], FsError> {
        let backend = &mut self.backend;
        Ok(self.pc.get_or_fill(blk, |buf| backend.read(blk, buf))?)
    }

    /// Mutates `blk` in the running transaction (read-modify-write).
    ///
    /// A block not yet dirty is copied once, into a recycled buffer. On a
    /// miss the read admits the block as clean (evicting the LRU clean
    /// block at capacity) and `write` drops that clean copy at once: the
    /// eviction buys nothing, but it can decide later hits and misses,
    /// and so simulated time.
    fn stage_mutate(
        &mut self,
        blk: u64,
        f: impl FnOnce(&mut [u8; BLOCK_SIZE]),
    ) -> Result<(), FsError> {
        if let Some(b) = self.pc.get_dirty_mut(blk) {
            f(b);
            return Ok(());
        }
        let mut buf = self.pc.spare_buf();
        buf.copy_from_slice(self.fetch_block(blk)?);
        f(&mut buf);
        self.pc.write(blk, buf);
        Ok(())
    }

    /// Stages a block of zeroes (a new pointer block: all holes).
    fn stage_zeroed(&mut self, blk: u64) {
        let mut buf = self.pc.spare_buf();
        buf.fill(0);
        self.pc.write(blk, buf);
    }

    fn stage_inode(&mut self, ino: u64) -> Result<(), FsError> {
        let (blk, off) = self.geo.inode_pos(ino);
        let bytes = self.inodes[ino as usize].encode();
        self.stage_mutate(blk, |b| b[off..off + INODE_BYTES].copy_from_slice(&bytes))
    }

    fn stage_name_entry(&mut self, slot: u64, ino: u64, name: Option<&str>) -> Result<(), FsError> {
        let (blk, off) = self.geo.name_entry_pos(slot);
        let mut entry = [0u8; NAME_ENTRY_BYTES];
        if let Some(n) = name {
            entry[0..8].copy_from_slice(&ino.to_le_bytes());
            entry[8] = n.len() as u8;
            entry[9..9 + n.len()].copy_from_slice(n.as_bytes());
        }
        self.stage_mutate(blk, |b| {
            b[off..off + NAME_ENTRY_BYTES].copy_from_slice(&entry);
        })
    }

    // ------------------------------------------------------------------
    // Bitmap / allocation
    // ------------------------------------------------------------------

    fn bit(&self, rel: u64) -> bool {
        self.bitmap[(rel / 64) as usize] & (1 << (rel % 64)) != 0
    }

    fn set_bit(&mut self, rel: u64, v: bool) -> Result<(), FsError> {
        let w = (rel / 64) as usize;
        if v {
            self.bitmap[w] |= 1 << (rel % 64);
        } else {
            self.bitmap[w] &= !(1 << (rel % 64));
        }
        // Stage the bitmap block containing this bit.
        let abs = self.geo.data_off + rel;
        let (bb, bit) = self.geo.bitmap_pos(abs);
        let byte = bit / 8;
        let mask = 1u8 << (bit % 8);
        self.stage_mutate(bb, |b| {
            if v {
                b[byte] |= mask;
            } else {
                b[byte] &= !mask;
            }
        })
    }

    /// Allocates one data block; returns its absolute disk block number.
    fn alloc_block(&mut self) -> Result<u64, FsError> {
        if self.free_data_blocks == 0 {
            return Err(FsError::NoSpace);
        }
        let n = self.geo.data_blocks;
        for probe in 0..n {
            let rel = (self.alloc_cursor + probe) % n;
            if !self.bit(rel) {
                self.alloc_cursor = (rel + 1) % n;
                self.set_bit(rel, true)?;
                self.free_data_blocks -= 1;
                return Ok(self.geo.data_off + rel);
            }
        }
        Err(FsError::NoSpace)
    }

    fn free_block(&mut self, abs: u64) -> Result<(), FsError> {
        debug_assert!(abs >= self.geo.data_off && abs < self.geo.total_blocks);
        let rel = abs - self.geo.data_off;
        debug_assert!(self.bit(rel), "double free of data block {abs}");
        self.set_bit(rel, false)?;
        self.free_data_blocks += 1;
        self.pc.forget(abs);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pointer resolution
    // ------------------------------------------------------------------

    fn read_ptr(&mut self, blk: u64, slot: usize) -> Result<u64, FsError> {
        Ok(bytes::le_u64(self.fetch_block(blk)?, slot * 8))
    }

    fn write_ptr(&mut self, blk: u64, slot: usize, value: u64) -> Result<(), FsError> {
        self.stage_mutate(blk, |b| {
            b[slot * 8..slot * 8 + 8].copy_from_slice(&value.to_le_bytes());
        })
    }

    /// Resolves file block `fb` of inode `ino`, returning the data block or
    /// `NO_BLOCK` for a hole.
    fn resolve(&mut self, ino: u64, fb: u64) -> Result<u64, FsError> {
        let inode = self.inodes[ino as usize].clone();
        match classify(fb).ok_or(FsError::FileTooLarge)? {
            BlockPath::Direct(i) => Ok(inode.direct[i]),
            BlockPath::Indirect(i) => {
                if inode.indirect == NO_BLOCK {
                    return Ok(NO_BLOCK);
                }
                self.read_ptr(inode.indirect, i)
            }
            BlockPath::DoubleIndirect(i, j) => {
                if inode.dindirect == NO_BLOCK {
                    return Ok(NO_BLOCK);
                }
                let l2 = self.read_ptr(inode.dindirect, i)?;
                if l2 == NO_BLOCK {
                    return Ok(NO_BLOCK);
                }
                self.read_ptr(l2, j)
            }
        }
    }

    /// Resolves file block `fb`, allocating data and indirect blocks as
    /// needed (write path). Returns the block and whether it was freshly
    /// allocated — a fresh block may be a *reused* freed block whose old
    /// contents must never leak, so partial writes to it start from zero.
    fn resolve_alloc(&mut self, ino: u64, fb: u64) -> Result<(u64, bool), FsError> {
        match classify(fb).ok_or(FsError::FileTooLarge)? {
            BlockPath::Direct(i) => {
                if self.inodes[ino as usize].direct[i] == NO_BLOCK {
                    let b = self.alloc_block()?;
                    self.inodes[ino as usize].direct[i] = b;
                    self.stage_inode(ino)?;
                    return Ok((b, true));
                }
                Ok((self.inodes[ino as usize].direct[i], false))
            }
            BlockPath::Indirect(i) => {
                if self.inodes[ino as usize].indirect == NO_BLOCK {
                    let nb = self.alloc_block()?;
                    self.stage_zeroed(nb);
                    self.inodes[ino as usize].indirect = nb;
                    self.stage_inode(ino)?;
                }
                let ind = self.inodes[ino as usize].indirect;
                let ptr = self.read_ptr(ind, i)?;
                if ptr == NO_BLOCK {
                    let ptr = self.alloc_block()?;
                    self.write_ptr(ind, i, ptr)?;
                    return Ok((ptr, true));
                }
                Ok((ptr, false))
            }
            BlockPath::DoubleIndirect(i, j) => {
                if self.inodes[ino as usize].dindirect == NO_BLOCK {
                    let nb = self.alloc_block()?;
                    self.stage_zeroed(nb);
                    self.inodes[ino as usize].dindirect = nb;
                    self.stage_inode(ino)?;
                }
                let l1 = self.inodes[ino as usize].dindirect;
                let mut l2 = self.read_ptr(l1, i)?;
                if l2 == NO_BLOCK {
                    l2 = self.alloc_block()?;
                    self.stage_zeroed(l2);
                    self.write_ptr(l1, i, l2)?;
                }
                let ptr = self.read_ptr(l2, j)?;
                if ptr == NO_BLOCK {
                    let ptr = self.alloc_block()?;
                    self.write_ptr(l2, j, ptr)?;
                    return Ok((ptr, true));
                }
                Ok((ptr, false))
            }
        }
    }

    // ------------------------------------------------------------------
    // Public file operations
    // ------------------------------------------------------------------

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<FileId, FsError> {
        if name.len() > MAX_NAME_LEN {
            return Err(FsError::NameTooLong(name.into()));
        }
        if self.names.contains_key(name) {
            return Err(FsError::Exists(name.into()));
        }
        let ino = self.free_inodes.pop().ok_or(FsError::TooManyFiles)?;
        let Some(slot) = self.free_name_slots.pop() else {
            self.free_inodes.push(ino);
            return Err(FsError::TooManyFiles);
        };
        self.inodes[ino as usize] = Inode {
            used: true,
            ..Inode::FREE
        };
        self.stage_inode(ino)?;
        self.stage_name_entry(slot, ino, Some(name))?;
        self.names.insert(name.into(), (ino, slot));
        self.stats.creates += 1;
        self.maybe_commit()?;
        Ok(ino)
    }

    /// Opens an existing file.
    pub fn open(&self, name: &str) -> Result<FileId, FsError> {
        self.names
            .get(name)
            .map(|&(ino, _)| ino)
            .ok_or_else(|| FsError::NotFound(name.into()))
    }

    pub fn exists(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.names.len()
    }

    pub fn file_size(&self, ino: FileId) -> u64 {
        self.inodes[ino as usize].size
    }

    /// Writes `data` at byte `offset` of the file, extending it if needed.
    pub fn write(&mut self, ino: FileId, offset: u64, data: &[u8]) -> Result<(), FsError> {
        debug_assert!(self.inodes[ino as usize].used, "write to free inode {ino}");
        let end = offset + data.len() as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let at = offset + pos as u64;
            let fb = at / BLOCK_SIZE as u64;
            let in_off = (at % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_off).min(data.len() - pos);
            let (blk, fresh) = self.resolve_alloc(ino, fb)?;
            if n == BLOCK_SIZE || fresh {
                // A partial write to a freshly allocated (possibly reused)
                // block starts from zeroes, so stale contents of a freed
                // block (or of the recycled buffer) never leak.
                let mut buf = self.pc.spare_buf();
                buf[..in_off].fill(0);
                buf[in_off + n..].fill(0);
                buf[in_off..in_off + n].copy_from_slice(&data[pos..pos + n]);
                self.pc.write(blk, buf);
            } else {
                self.stage_mutate(blk, |b| {
                    b[in_off..in_off + n].copy_from_slice(&data[pos..pos + n]);
                })?;
            }
            pos += n;
        }
        if end > self.inodes[ino as usize].size {
            self.inodes[ino as usize].size = end;
            self.stage_inode(ino)?;
        }
        self.stats.write_ops += 1;
        self.stats.bytes_written += data.len() as u64;
        self.maybe_commit()
    }

    /// Appends `data` to the end of the file.
    pub fn append(&mut self, ino: FileId, data: &[u8]) -> Result<(), FsError> {
        self.write(ino, self.inodes[ino as usize].size, data)
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at end-of-file; holes read as zeroes).
    pub fn read(&mut self, ino: FileId, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        let size = self.inodes[ino as usize].size;
        if offset >= size {
            return Ok(0);
        }
        let want = buf.len().min((size - offset) as usize);
        let mut pos = 0usize;
        while pos < want {
            let at = offset + pos as u64;
            let fb = at / BLOCK_SIZE as u64;
            let in_off = (at % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_off).min(want - pos);
            let blk = self.resolve(ino, fb)?;
            if blk == NO_BLOCK {
                buf[pos..pos + n].fill(0);
            } else {
                let b = self.fetch_block(blk)?;
                buf[pos..pos + n].copy_from_slice(&b[in_off..in_off + n]);
            }
            pos += n;
        }
        self.stats.read_ops += 1;
        self.stats.bytes_read += want as u64;
        Ok(want)
    }

    /// Deletes a file, freeing all of its blocks.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let (ino, slot) = self
            .names
            .remove(name)
            .ok_or_else(|| FsError::NotFound(name.into()))?;
        let inode = self.inodes[ino as usize].clone();
        for d in inode.direct {
            if d != NO_BLOCK {
                self.free_block(d)?;
            }
        }
        if inode.indirect != NO_BLOCK {
            self.free_indirect(inode.indirect, 1)?;
        }
        if inode.dindirect != NO_BLOCK {
            self.free_indirect(inode.dindirect, 2)?;
        }
        self.inodes[ino as usize] = Inode::FREE;
        self.stage_inode(ino)?;
        self.stage_name_entry(slot, 0, None)?;
        self.free_inodes.push(ino);
        self.free_name_slots.push(slot);
        self.stats.deletes += 1;
        self.maybe_commit()
    }

    fn free_indirect(&mut self, blk: u64, depth: u32) -> Result<(), FsError> {
        for i in 0..PTRS_PER_BLOCK {
            let p = self.read_ptr(blk, i)?;
            if p == NO_BLOCK {
                continue;
            }
            if depth > 1 {
                self.free_indirect(p, depth - 1)?;
            } else {
                self.free_block(p)?;
            }
        }
        self.free_block(blk)
    }

    /// Shrinks (or logically extends) a file to `new_size` bytes. Data
    /// blocks wholly past the new end are freed; an extension leaves a
    /// hole (reads return zeroes), as POSIX `ftruncate` does.
    pub fn truncate(&mut self, ino: FileId, new_size: u64) -> Result<(), FsError> {
        let inode = self.inodes[ino as usize].clone();
        debug_assert!(inode.used, "truncate of free inode {ino}");
        let old_blocks = inode.block_count();
        let keep = new_size.div_ceil(BLOCK_SIZE as u64);
        // Free whole blocks past the new end, clearing their pointers.
        for fb in keep..old_blocks {
            let blk = self.resolve(ino, fb)?;
            if blk == NO_BLOCK {
                continue;
            }
            match classify(fb).ok_or(FsError::FileTooLarge)? {
                BlockPath::Direct(i) => {
                    self.inodes[ino as usize].direct[i] = NO_BLOCK;
                }
                BlockPath::Indirect(i) => {
                    let ind = self.inodes[ino as usize].indirect;
                    self.write_ptr(ind, i, NO_BLOCK)?;
                }
                BlockPath::DoubleIndirect(i, j) => {
                    let l1 = self.inodes[ino as usize].dindirect;
                    let l2 = self.read_ptr(l1, i)?;
                    self.write_ptr(l2, j, NO_BLOCK)?;
                }
            }
            self.free_block(blk)?;
        }
        // Zero the tail of the (kept) final partial block so a later
        // extension reads zeroes, not stale bytes.
        if new_size < inode.size && !new_size.is_multiple_of(BLOCK_SIZE as u64) {
            let fb = new_size / BLOCK_SIZE as u64;
            let blk = self.resolve(ino, fb)?;
            if blk != NO_BLOCK {
                let cut = (new_size % BLOCK_SIZE as u64) as usize;
                self.stage_mutate(blk, |b| b[cut..].fill(0))?;
            }
        }
        self.inodes[ino as usize].size = new_size;
        self.stage_inode(ino)?;
        self.maybe_commit()
    }

    /// Renames a file. Fails if `to` already exists.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        if to.len() > MAX_NAME_LEN {
            return Err(FsError::NameTooLong(to.into()));
        }
        if self.names.contains_key(to) {
            return Err(FsError::Exists(to.into()));
        }
        let (ino, slot) = self
            .names
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.into()))?;
        self.stage_name_entry(slot, ino, Some(to))?;
        self.names.insert(to.into(), (ino, slot));
        self.maybe_commit()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    fn maybe_commit(&mut self) -> Result<(), FsError> {
        if self.pc.dirty_len() >= self.geo.txn_block_limit {
            self.commit()?;
        }
        Ok(())
    }

    /// Commits the running transaction through the configured consistency
    /// mechanism. A no-op if nothing is staged.
    pub fn commit(&mut self) -> Result<(), FsError> {
        let dirty = self.pc.take_dirty();
        if dirty.is_empty() {
            return Ok(());
        }
        let _t = telemetry::span(telemetry::phase::FS_OP);
        let n = dirty.len();
        match self.mode {
            JournalMode::None => {
                for (blk, data) in &dirty {
                    self.backend.write_block(*blk, &data[..])?;
                }
            }
            JournalMode::Jbd2 => {
                let Some(journal) = self.journal.as_mut() else {
                    return Err(FsError::BadSuperblock(
                        "mounted in JBD2 mode but the journal failed to open".into(),
                    ));
                };
                journal.commit(&mut self.backend, dirty)?;
            }
            JournalMode::Tinca => {
                self.backend.commit_txn(dirty)?;
            }
        }
        self.stats.commits += 1;
        self.stats.committed_blocks += n as u64;
        self.txn_sizes.push(n as u32);
        Ok(())
    }

    /// `fsync`: makes everything written so far durable (data-journal mode
    /// commits the whole running transaction, as Ext4 does).
    pub fn fsync(&mut self) -> Result<(), FsError> {
        self.stats.fsyncs += 1;
        self.commit()
    }

    /// Orderly shutdown: commit, checkpoint the journal, flush the cache.
    pub fn unmount(mut self) -> Result<(), FsError> {
        self.commit()?;
        if let Some(j) = self.journal.as_mut() {
            j.checkpoint_all(&mut self.backend)?;
        }
        self.backend.flush_all()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn stats(&self) -> FsStats {
        self.stats
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    pub fn mode(&self) -> JournalMode {
        self.mode
    }

    /// Blocks per committed transaction, in commit order (Fig. 13).
    pub fn txn_sizes(&self) -> &[u32] {
        &self.txn_sizes
    }

    /// Journal statistics (JBD2 mode only).
    pub fn journal_stats(&self) -> Option<crate::jbd2::JournalStats> {
        self.journal.as_ref().map(|j| j.stats)
    }

    pub fn free_space_blocks(&self) -> u64 {
        self.free_data_blocks
    }

    /// The cache layer below (harnesses read its counters through it).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Invariant check for tests: DRAM bitmap free count matches the
    /// mirror, and every file's mapped blocks are marked allocated.
    pub fn check_consistency(&mut self) -> Result<(), String> {
        let mut counted = 0u64;
        for b in 0..self.geo.data_blocks {
            if !self.bit(b) {
                counted += 1;
            }
        }
        if counted != self.free_data_blocks {
            return Err(format!(
                "free count {} != bitmap free bits {counted}",
                self.free_data_blocks
            ));
        }
        let files: Vec<(String, u64)> = self
            .names
            .iter()
            .map(|(n, &(i, _))| (n.clone(), i))
            .collect();
        for (name, ino) in files {
            if !self.inodes[ino as usize].used {
                return Err(format!("file {name} points at free inode {ino}"));
            }
            let blocks = self.inodes[ino as usize].block_count();
            for fb in 0..blocks {
                let blk = self.resolve(ino, fb).map_err(|e| e.to_string())?;
                if blk != NO_BLOCK {
                    let rel = blk - self.geo.data_off;
                    if !self.bit(rel) {
                        return Err(format!("file {name} block {fb} -> {blk} marked free"));
                    }
                }
            }
        }
        Ok(())
    }
}
