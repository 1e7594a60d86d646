//! The UBJ-like NVM buffer cache with commit-in-place and
//! transaction-unit checkpointing.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use blockdev::{BlockDevice, BLOCK_SIZE};
use nvmsim::Nvm;

use crate::entry::{UbjEntry, UbjState, FRESH};
use crate::{UbjError, UbjStats};

/// Shared handle to the backing disk.
pub type DynDisk = Arc<dyn BlockDevice>;

const MAGIC: u64 = 0x5542_4a76_3120_2020; // "UBJv1"
const MAGIC_OFF: usize = 0;
const ENTRY_COUNT_OFF: usize = 8;
const DATA_BLOCKS_OFF: usize = 16;
/// Commit-publish flag on its own cache line (the commit point).
const FLAG_OFF: usize = 64;
const HEADER_BYTES: usize = 4096;
const ENTRY_BYTES: usize = 16;
/// Checkpoint when free NVM blocks drop below this fraction (per mill):
/// UBJ checkpoints to free space, not continuously.
const CHECKPOINT_LOW_WATER_PERMILLE: u64 = 100;
/// Transactions checkpointed per space-reclamation stall (UBJ's unit is
/// whole transactions).
const CHECKPOINT_BATCH_TXNS: usize = 1;

#[derive(Clone, Copy, Debug)]
struct Layout {
    entries_off: usize,
    entry_count: u32,
    data_off: usize,
    data_blocks: u32,
}

impl Layout {
    fn compute(capacity: usize) -> Layout {
        assert!(
            capacity > HEADER_BYTES + 2 * BLOCK_SIZE,
            "NVM region too small"
        );
        let usable = capacity - HEADER_BYTES;
        let mut data_blocks = usable / (BLOCK_SIZE + ENTRY_BYTES);
        loop {
            let entry_area = (data_blocks * ENTRY_BYTES).next_multiple_of(BLOCK_SIZE);
            if HEADER_BYTES + entry_area + data_blocks * BLOCK_SIZE <= capacity {
                return Layout {
                    entries_off: HEADER_BYTES,
                    entry_count: data_blocks as u32,
                    data_off: HEADER_BYTES + entry_area,
                    data_blocks: data_blocks as u32,
                };
            }
            data_blocks -= 1;
        }
    }

    fn entry_addr(&self, idx: u32) -> usize {
        self.entries_off + idx as usize * ENTRY_BYTES
    }

    fn data_addr(&self, blk: u32) -> usize {
        self.data_off + blk as usize * BLOCK_SIZE
    }
}

/// A checkpoint work item: entry `idx` froze NVM block `blk` in some
/// committed transaction.
#[derive(Clone, Copy, Debug)]
struct FrozenRef {
    idx: u32,
    blk: u32,
}

/// The UBJ-like cache: NVM buffer cache + in-place journaling.
pub struct UbjCache {
    nvm: Nvm,
    disk: DynDisk,
    layout: Layout,
    index: HashMap<u64, u32>,
    /// Clean entries in LRU order (front = LRU); only clean blocks are
    /// evictable without a checkpoint.
    clean_lru: VecDeque<u32>,
    free_blocks: Vec<u32>,
    block_free: Vec<bool>,
    free_entries: Vec<u32>,
    /// Committed transactions awaiting checkpoint, oldest first.
    txn_queue: VecDeque<Vec<FrozenRef>>,
    stats: UbjStats,
}

impl UbjCache {
    /// Formats the NVM region and creates an empty cache.
    pub fn format(nvm: Nvm, disk: DynDisk) -> UbjCache {
        let layout = Layout::compute(nvm.capacity());
        let zeros = vec![0u8; 64 << 10];
        let entry_bytes = layout.entry_count as usize * ENTRY_BYTES;
        let mut off = 0;
        while off < entry_bytes {
            let n = zeros.len().min(entry_bytes - off);
            nvm.write(layout.entries_off + off, &zeros[..n]);
            nvm.clflush(layout.entries_off + off, n);
            off += n;
        }
        nvm.sfence();
        nvm.atomic_write_u64(ENTRY_COUNT_OFF, layout.entry_count as u64);
        nvm.atomic_write_u64(DATA_BLOCKS_OFF, layout.data_blocks as u64);
        nvm.atomic_write_u64(FLAG_OFF, 0);
        nvm.persist(0, 128);
        nvm.atomic_write_u64(MAGIC_OFF, MAGIC);
        nvm.persist(MAGIC_OFF, 8);
        Self::from_parts(nvm, disk, layout)
    }

    fn from_parts(nvm: Nvm, disk: DynDisk, layout: Layout) -> UbjCache {
        UbjCache {
            nvm,
            disk,
            index: HashMap::new(),
            clean_lru: VecDeque::new(),
            free_blocks: (0..layout.data_blocks).rev().collect(),
            block_free: vec![true; layout.data_blocks as usize],
            free_entries: (0..layout.entry_count).rev().collect(),
            txn_queue: VecDeque::new(),
            stats: UbjStats::default(),
            layout,
        }
    }

    /// Opens an existing region after a crash: resolves the two-phase
    /// commit (publish flag decides), reverts uncommitted working copies,
    /// rebuilds the DRAM structures.
    pub fn recover(nvm: Nvm, disk: DynDisk) -> Result<UbjCache, UbjError> {
        if nvm.read_u64(MAGIC_OFF) != MAGIC {
            return Err(UbjError::NotFormatted);
        }
        let layout = Layout::compute(nvm.capacity());
        if nvm.read_u64(ENTRY_COUNT_OFF) != layout.entry_count as u64
            || nvm.read_u64(DATA_BLOCKS_OFF) != layout.data_blocks as u64
        {
            return Err(UbjError::GeometryMismatch);
        }
        let committed = nvm.read_u64(FLAG_OFF) == 1;
        let mut c = Self::from_parts(nvm, disk, layout);
        c.free_blocks.clear();
        c.block_free = vec![false; layout.data_blocks as usize];
        c.free_entries.clear();

        let mut frozen_refs: Vec<FrozenRef> = Vec::new();
        let mut used = vec![false; layout.data_blocks as usize];
        for idx in 0..layout.entry_count {
            let mut e = c.read_entry(idx);
            if !e.valid {
                c.free_entries.push(idx);
                continue;
            }
            match e.state {
                UbjState::PreFrozen if committed => {
                    // The publish flag made the whole txn durable.
                    e = UbjEntry::new(UbjState::Frozen, e.disk_blk, FRESH, e.cur);
                    c.write_entry(idx, e);
                }
                UbjState::PreFrozen | UbjState::Dirty => {
                    // Uncommitted working copy: revert to the superseded
                    // frozen copy, or drop entirely.
                    c.stats.reverted_blocks += 1;
                    if e.prev != FRESH {
                        e = UbjEntry::new(UbjState::Frozen, e.disk_blk, FRESH, e.prev);
                        c.write_entry(idx, e);
                    } else {
                        c.write_entry(idx, UbjEntry::INVALID);
                        c.free_entries.push(idx);
                        continue;
                    }
                }
                _ => {}
            }
            let e = c.read_entry(idx);
            assert!(
                !used[e.cur as usize],
                "two entries share NVM block {}",
                e.cur
            );
            used[e.cur as usize] = true;
            c.index.insert(e.disk_blk, idx);
            match e.state {
                UbjState::Clean => c.clean_lru.push_back(idx),
                UbjState::Frozen => frozen_refs.push(FrozenRef { idx, blk: e.cur }),
                _ => unreachable!("resolved above"),
            }
        }
        for b in 0..layout.data_blocks {
            if !used[b as usize] {
                c.block_free[b as usize] = true;
                c.free_blocks.push(b);
            }
        }
        // All surviving frozen blocks form one pseudo-transaction.
        if !frozen_refs.is_empty() {
            c.txn_queue.push_back(frozen_refs);
        }
        // A clear flag needs no store: recovery then rewrites nothing it
        // already holds.
        if committed {
            c.nvm.atomic_write_u64(FLAG_OFF, 0);
            c.nvm.persist(FLAG_OFF, 8);
        }
        c.stats.recoveries += 1;
        Ok(c)
    }

    // ------------------------------------------------------------------
    // Transactional write path
    // ------------------------------------------------------------------

    /// Commits `blocks` atomically: applies them to the NVM buffer cache
    /// (with out-of-place `memcpy` for frozen targets), then
    /// commits-in-place by freezing (PreFrozen → publish → Frozen).
    pub fn commit_txn(&mut self, blocks: &[(u64, Box<[u8; BLOCK_SIZE]>)]) -> Result<(), UbjError> {
        if blocks.is_empty() {
            return Ok(());
        }
        if 2 * blocks.len() >= self.layout.data_blocks as usize {
            return Err(UbjError::TxnTooLarge {
                blocks: blocks.len(),
                buffer_blocks: self.layout.data_blocks,
            });
        }
        // Phase 0: apply the writes as dirty working copies.
        let mut touched: Vec<u32> = Vec::with_capacity(blocks.len());
        for (disk_blk, data) in blocks {
            let idx = self.apply_write(*disk_blk, &data[..])?;
            if !touched.contains(&idx) {
                touched.push(idx);
            }
        }
        // Phase 1: persist payloads, mark PreFrozen.
        for &idx in &touched {
            let e = self.read_entry(idx);
            let addr = self.layout.data_addr(e.cur);
            self.nvm.clflush(addr, BLOCK_SIZE);
            self.nvm.sfence();
            self.write_entry(
                idx,
                UbjEntry {
                    state: UbjState::PreFrozen,
                    ..e
                },
            );
        }
        // Phase 2: publish — the commit point.
        self.nvm.atomic_write_u64(FLAG_OFF, 1);
        self.nvm.persist(FLAG_OFF, 8);
        // Phase 3: freeze for real; release superseded frozen copies.
        let mut refs = Vec::with_capacity(touched.len());
        for &idx in &touched {
            let e = self.read_entry(idx);
            let prev = e.prev;
            let frozen = UbjEntry::new(UbjState::Frozen, e.disk_blk, FRESH, e.cur);
            self.write_entry(idx, frozen);
            if prev != FRESH {
                self.release_block(prev);
                self.retire_ref(idx, prev);
            }
            refs.push(FrozenRef { idx, blk: e.cur });
        }
        // Phase 4: clear the flag.
        self.nvm.atomic_write_u64(FLAG_OFF, 0);
        self.nvm.persist(FLAG_OFF, 8);
        self.txn_queue.push_back(refs);
        self.stats.commits += 1;
        self.stats.committed_blocks += blocks.len() as u64;
        self.maybe_checkpoint_for_space();
        Ok(())
    }

    /// Stages one write into the NVM buffer cache; returns the entry.
    fn apply_write(&mut self, disk_blk: u64, data: &[u8]) -> Result<u32, UbjError> {
        assert_eq!(data.len(), BLOCK_SIZE);
        if let Some(&idx) = self.index.get(&disk_blk) {
            let e = self.read_entry(idx);
            match e.state {
                UbjState::Clean => {
                    // Overwrite in place (disk still holds the old copy).
                    // Demote to Dirty *before* scribbling on the block, so
                    // a crash can never leave a Clean entry over torn data.
                    self.unlink_clean(idx);
                    self.write_entry(idx, UbjEntry::new(UbjState::Dirty, disk_blk, FRESH, e.cur));
                    self.nvm.write(self.layout.data_addr(e.cur), data);
                    self.stats.write_hits += 1;
                    Ok(idx)
                }
                UbjState::Dirty | UbjState::PreFrozen => {
                    // Working copy: plain in-place update.
                    self.nvm.write(self.layout.data_addr(e.cur), data);
                    self.stats.write_hits += 1;
                    Ok(idx)
                }
                UbjState::Frozen => {
                    // §5.4.4 #2: a frozen block cannot be overwritten —
                    // memcpy to a fresh block, on the write critical path.
                    let nb = self.alloc_block()?;
                    let mut copy = [0u8; BLOCK_SIZE];
                    self.nvm.read(self.layout.data_addr(e.cur), &mut copy);
                    self.nvm.write(self.layout.data_addr(nb), &copy);
                    self.stats.frozen_copies += 1;
                    self.stats.frozen_copy_bytes += BLOCK_SIZE as u64;
                    // Now apply the new contents over the copy.
                    self.nvm.write(self.layout.data_addr(nb), data);
                    self.write_entry(idx, UbjEntry::new(UbjState::Dirty, disk_blk, e.cur, nb));
                    self.stats.write_hits += 1;
                    Ok(idx)
                }
            }
        } else {
            let blk = self.alloc_block()?;
            let idx = self
                .free_entries
                .pop()
                .expect("entry pool tracks block pool");
            self.nvm.write(self.layout.data_addr(blk), data);
            self.write_entry(idx, UbjEntry::new(UbjState::Dirty, disk_blk, FRESH, blk));
            self.index.insert(disk_blk, idx);
            self.stats.write_misses += 1;
            Ok(idx)
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads through the buffer cache.
    pub fn read(&mut self, disk_blk: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(&idx) = self.index.get(&disk_blk) {
            let e = self.read_entry(idx);
            self.nvm.read(self.layout.data_addr(e.cur), buf);
            if e.state == UbjState::Clean {
                self.touch_clean(idx);
            }
            self.stats.read_hits += 1;
            return;
        }
        self.disk
            .read_block(disk_blk, buf)
            .expect("UBJ cache assumes a fault-free disk");
        self.stats.read_misses += 1;
        if let Ok(blk) = self.alloc_block() {
            let idx = self
                .free_entries
                .pop()
                .expect("entry pool tracks block pool");
            let addr = self.layout.data_addr(blk);
            self.nvm.write(addr, buf);
            self.nvm.persist(addr, BLOCK_SIZE);
            self.write_entry(idx, UbjEntry::new(UbjState::Clean, disk_blk, FRESH, blk));
            self.index.insert(disk_blk, idx);
            self.clean_lru.push_back(idx);
        }
    }

    // ------------------------------------------------------------------
    // Space management & checkpointing
    // ------------------------------------------------------------------

    fn alloc_block(&mut self) -> Result<u32, UbjError> {
        loop {
            if let Some(b) = self.free_blocks.pop() {
                self.block_free[b as usize] = false;
                return Ok(b);
            }
            // Evict a clean block if any.
            if let Some(idx) = self.clean_lru.pop_front() {
                let e = self.read_entry(idx);
                debug_assert_eq!(e.state, UbjState::Clean);
                self.write_entry(idx, UbjEntry::INVALID);
                self.index.remove(&e.disk_blk);
                self.free_entries.push(idx);
                self.release_block(e.cur);
                self.stats.evictions += 1;
                continue;
            }
            // Stall: checkpoint the oldest transaction to free space.
            if !self.checkpoint_oldest() {
                return Err(UbjError::NvmExhausted);
            }
        }
    }

    /// Checkpoints the oldest committed transaction (§5.4.4 #3: the unit
    /// is one whole transaction; the caller stalls for all of it).
    /// Returns false if there is nothing to checkpoint.
    pub fn checkpoint_oldest(&mut self) -> bool {
        let Some(refs) = self.txn_queue.pop_front() else {
            return false;
        };
        let t0 = self.nvm.clock().now_ns();
        let mut buf = [0u8; BLOCK_SIZE];
        for r in refs {
            let e = self.read_entry(r.idx);
            // Superseded or re-dirtied since committing? The newer version
            // will be checkpointed by its own transaction.
            if !e.valid || e.cur != r.blk || e.state != UbjState::Frozen {
                continue;
            }
            self.nvm.read(self.layout.data_addr(e.cur), &mut buf);
            self.disk
                .write_block(e.disk_blk, &buf)
                .expect("UBJ cache assumes a fault-free disk");
            self.stats.checkpoint_blocks += 1;
            // The block is now clean (disk == NVM): evictable.
            self.write_entry(
                r.idx,
                UbjEntry::new(UbjState::Clean, e.disk_blk, FRESH, e.cur),
            );
            self.clean_lru.push_back(r.idx);
        }
        self.stats.checkpoints += 1;
        self.stats.checkpoint_stall_ns += self.nvm.clock().now_ns() - t0;
        true
    }

    /// Background-style space keeping: checkpoint when free space is low.
    fn maybe_checkpoint_for_space(&mut self) {
        let low_water = self.layout.data_blocks as u64 * CHECKPOINT_LOW_WATER_PERMILLE / 1000;
        let mut budget = CHECKPOINT_BATCH_TXNS;
        while (self.free_blocks.len() + self.clean_lru.len()) < low_water as usize && budget > 0 {
            if !self.checkpoint_oldest() {
                break;
            }
            budget -= 1;
        }
    }

    /// Checkpoints everything (orderly shutdown).
    pub fn checkpoint_all(&mut self) {
        while self.checkpoint_oldest() {}
    }

    // ------------------------------------------------------------------
    // Plumbing & inspection
    // ------------------------------------------------------------------

    fn read_entry(&self, idx: u32) -> UbjEntry {
        UbjEntry::decode(self.nvm.read_u128(self.layout.entry_addr(idx)))
    }

    fn write_entry(&self, idx: u32, e: UbjEntry) {
        let addr = self.layout.entry_addr(idx);
        self.nvm.atomic_write_u128(addr, e.encode());
        self.nvm.persist(addr, 16);
    }

    fn release_block(&mut self, b: u32) {
        debug_assert!(!self.block_free[b as usize], "double free of {b}");
        self.block_free[b as usize] = true;
        self.free_blocks.push(b);
    }

    /// Drops any stale queue references to (idx, blk) after the frozen
    /// copy was superseded and its block released.
    fn retire_ref(&mut self, idx: u32, blk: u32) {
        for txn in &mut self.txn_queue {
            txn.retain(|r| !(r.idx == idx && r.blk == blk));
        }
    }

    fn unlink_clean(&mut self, idx: u32) {
        if let Some(pos) = self.clean_lru.iter().position(|&i| i == idx) {
            self.clean_lru.remove(pos);
        }
    }

    fn touch_clean(&mut self, idx: u32) {
        self.unlink_clean(idx);
        self.clean_lru.push_back(idx);
    }

    /// Reads without populating the cache (verification).
    pub fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(&idx) = self.index.get(&disk_blk) {
            let e = self.read_entry(idx);
            self.nvm.read(self.layout.data_addr(e.cur), buf);
        } else {
            self.disk
                .read_block(disk_blk, buf)
                .expect("UBJ cache assumes a fault-free disk");
        }
    }

    pub fn stats(&self) -> UbjStats {
        self.stats
    }

    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    pub fn disk(&self) -> &DynDisk {
        &self.disk
    }

    pub fn cached_blocks(&self) -> usize {
        self.index.len()
    }

    pub fn data_block_count(&self) -> u32 {
        self.layout.data_blocks
    }

    pub fn pending_checkpoint_txns(&self) -> usize {
        self.txn_queue.len()
    }

    /// Invariant self-check for tests and crash verification.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.nvm.read_u64(FLAG_OFF) != 0 {
            return Err("commit flag left set at rest".into());
        }
        let mut seen = vec![false; self.layout.data_blocks as usize];
        let mut valid = 0usize;
        for idx in 0..self.layout.entry_count {
            let e = self.read_entry(idx);
            if !e.valid {
                continue;
            }
            valid += 1;
            if matches!(e.state, UbjState::Dirty | UbjState::PreFrozen) {
                return Err(format!("entry {idx} left in transient state {:?}", e.state));
            }
            if seen[e.cur as usize] {
                return Err(format!("NVM block {} referenced twice", e.cur));
            }
            seen[e.cur as usize] = true;
            if self.block_free[e.cur as usize] {
                return Err(format!("entry {idx} references free block {}", e.cur));
            }
            if self.index.get(&e.disk_blk) != Some(&idx) {
                return Err(format!("entry {idx} not indexed"));
            }
        }
        if valid != self.index.len() {
            return Err(format!("index {} != valid {valid}", self.index.len()));
        }
        Ok(())
    }
}
