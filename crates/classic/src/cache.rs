//! The Classic (Flashcache-like) write-back cache.

use std::collections::HashMap;
use std::sync::Arc;

use blockdev::{BlockDevice, BLOCK_SIZE};
use nvmsim::Nvm;

use crate::config::DIRTY_THRESH_PCT;
use crate::meta::{
    decode_log_record, encode_log_record, ClassicLayout, SlotRecord, ASSOC_OFF, LOG_SLOTS, MAGIC,
    MAGIC_OFF, NUM_BLOCKS_OFF, RECORD_BYTES,
};
use crate::setlru::SetLru;
use crate::{ClassicConfig, ClassicError, ClassicStats, MetadataScheme};

/// Header offset of the metadata-log generation counter.
const GEN_OFF: usize = 24;

/// Shared handle to the backing disk.
pub type DynDisk = Arc<dyn BlockDevice>;

/// A Flashcache-style set-associative write-back NVM cache.
///
/// No transactional interface: callers issue single-block [`write`]s and
/// [`read`]s; each write synchronously persists the data block *and* the
/// 4 KB metadata block covering its slot (unless `sync_metadata` is off).
/// Crash consistency of file data is the responsibility of the journaling
/// file system above.
///
/// [`write`]: Self::write
/// [`read`]: Self::read
pub struct ClassicCache {
    nvm: Nvm,
    disk: DynDisk,
    layout: ClassicLayout,
    cfg: ClassicConfig,
    /// disk block → slot.
    index: HashMap<u64, u32>,
    /// DRAM mirror of every slot's record (authoritative copy of the
    /// metadata area).
    records: Vec<SlotRecord>,
    /// `records` encoded, as whole metadata blocks (zeroes past the last
    /// slot): what a metadata-block write persists, kept in step by
    /// [`Self::put_record`].
    image: Vec<u8>,
    lru: SetLru,
    /// Dirty blocks per set (drives the `DIRTY_THRESH_PCT` cleaner).
    set_dirty: Vec<u32>,
    /// Monotone cache block-write counter (the fallow-cleaning clock).
    write_seq: u64,
    /// Next free metadata-log slot (Log scheme).
    log_cursor: usize,
    /// Current metadata-log generation (Log scheme).
    gen: u32,
    /// `write_seq` at each slot's most recent write (0 if never written).
    last_write: Vec<u64>,
    stats: ClassicStats,
}

impl ClassicCache {
    /// Formats the NVM region and creates an empty cache.
    pub fn format(nvm: Nvm, disk: DynDisk, cfg: ClassicConfig) -> Self {
        let layout = ClassicLayout::compute(nvm.capacity(), cfg.assoc);
        // Zero the metadata area (all records invalid).
        let zeros = vec![0u8; BLOCK_SIZE];
        for mb in 0..layout.meta_blocks {
            nvm.write(layout.meta_block_addr(mb), &zeros);
            nvm.clflush(layout.meta_block_addr(mb), BLOCK_SIZE);
        }
        nvm.sfence();
        nvm.atomic_write_u64(NUM_BLOCKS_OFF, layout.num_blocks as u64);
        nvm.atomic_write_u64(ASSOC_OFF, layout.assoc as u64);
        nvm.atomic_write_u64(GEN_OFF, 0);
        nvm.persist(0, 64);
        nvm.atomic_write_u64(MAGIC_OFF, MAGIC);
        nvm.persist(MAGIC_OFF, 8);
        Self::from_parts(nvm, disk, cfg, layout)
    }

    /// Opens a formatted region after a crash/restart, rebuilding the DRAM
    /// index from the persistent metadata blocks. Dirty blocks stay dirty;
    /// torn data blocks are *not* detected (the journaling FS above
    /// re-writes them from its journal).
    pub fn recover(nvm: Nvm, disk: DynDisk, cfg: ClassicConfig) -> Result<Self, ClassicError> {
        let magic = nvm.read_u64(MAGIC_OFF);
        if magic != MAGIC {
            return Err(ClassicError::NotFormatted { magic });
        }
        let layout = ClassicLayout::compute(nvm.capacity(), cfg.assoc);
        let num_blocks = nvm.read_u64(NUM_BLOCKS_OFF);
        let assoc = nvm.read_u64(ASSOC_OFF);
        if (num_blocks, assoc) != (layout.num_blocks as u64, layout.assoc as u64) {
            return Err(ClassicError::GeometryMismatch);
        }
        let mut cache = Self::from_parts(nvm, disk, cfg, layout);
        // Base state: the persistent metadata array (the last checkpoint,
        // in the Log scheme; the live state in SyncBlock).
        let mut raw = [0u8; RECORD_BYTES];
        for slot in 0..layout.num_blocks {
            cache.nvm.read(layout.record_addr(slot), &mut raw);
            cache.put_record(slot, SlotRecord::decode(&raw));
        }
        if cache.cfg.metadata_scheme == MetadataScheme::Log {
            // Replay the current generation's log records, in order, over
            // the base. Records are appended sequentially, so the current
            // generation forms a prefix of the log.
            cache.gen = cache.nvm.read_u64(GEN_OFF) as u32;
            let mut cursor = 0usize;
            while cursor < LOG_SLOTS {
                let raw = cache.nvm.read_u128(layout.log_slot_addr(cursor));
                match decode_log_record(raw) {
                    Some((gen, slot, rec)) if gen == cache.gen => {
                        if (slot as usize) < cache.records.len() {
                            cache.put_record(slot, rec);
                        }
                        cursor += 1;
                    }
                    _ => break,
                }
            }
            cache.log_cursor = cursor;
        }
        // Rebuild the index and the LRU from the resolved records.
        for slot in 0..layout.num_blocks {
            let rec = cache.records[slot as usize];
            if rec.valid {
                cache.index.insert(rec.disk_blk, slot);
                cache.lru.push_mru(slot);
            }
        }
        cache.stats.recoveries = 1;
        Ok(cache)
    }

    fn from_parts(nvm: Nvm, disk: DynDisk, cfg: ClassicConfig, layout: ClassicLayout) -> Self {
        ClassicCache {
            nvm,
            disk,
            cfg,
            index: HashMap::new(),
            records: vec![SlotRecord::INVALID; layout.num_blocks as usize],
            image: vec![0u8; layout.meta_blocks * BLOCK_SIZE],
            lru: SetLru::new(layout.num_blocks, layout.num_sets, layout.assoc),
            set_dirty: vec![0; layout.num_sets as usize],
            write_seq: 0,
            log_cursor: 0,
            gen: 0,
            last_write: vec![0; layout.num_blocks as usize],
            stats: ClassicStats::default(),
            layout,
        }
    }

    /// Writes one block through the cache (write-back): data into the slot
    /// (in place on a hit), then the covering metadata block, both with
    /// full flush+fence persistence (Flashcache's synchronous update).
    /// Errors if slot-making or cleaning needed the disk and it failed.
    pub fn write(&mut self, disk_blk: u64, data: &[u8]) -> Result<(), ClassicError> {
        assert_eq!(data.len(), BLOCK_SIZE);
        let slot = match self.index.get(&disk_blk) {
            Some(&slot) => {
                self.stats.write_hits += 1;
                self.lru.touch(slot);
                slot
            }
            None => {
                self.stats.write_misses += 1;
                let slot = self.take_slot(disk_blk)?;
                self.index.insert(disk_blk, slot);
                self.lru.push_mru(slot);
                slot
            }
        };
        // In-place data write (no COW — a crash can tear this block).
        let addr = self.layout.data_addr(slot);
        self.nvm.write(addr, data);
        self.nvm.persist(addr, BLOCK_SIZE);
        self.write_seq += 1;
        self.last_write[slot as usize] = self.write_seq;
        self.set_record(
            slot,
            SlotRecord {
                valid: true,
                dirty: true,
                disk_blk,
            },
        );
        self.clean_set(self.layout.set_of(disk_blk))
    }

    /// Flashcache's proactive cleaner: while the set holds more dirty
    /// blocks than `DIRTY_THRESH_PCT` allows, write the LRU-most dirty
    /// blocks back to disk and mark them clean.
    fn clean_set(&mut self, set: u32) -> Result<(), ClassicError> {
        let allowed = (self.layout.assoc * DIRTY_THRESH_PCT / 100).max(1);
        if self.set_dirty[set as usize] <= allowed {
            return Ok(());
        }
        // Collect dirty slots in LRU→MRU order.
        let mut order: Vec<u32> = Vec::new();
        let mut cur = self.lru.lru_of_set(set);
        while let Some(slot) = cur {
            if self.records[slot as usize].dirty {
                order.push(slot);
            }
            cur = self.lru.next_towards_mru(slot);
        }
        let mut buf = [0u8; BLOCK_SIZE];
        for slot in order {
            if self.set_dirty[set as usize] <= allowed {
                break;
            }
            let rec = self.records[slot as usize];
            self.nvm.read(self.layout.data_addr(slot), &mut buf);
            self.disk
                .write_block(rec.disk_blk, &buf)
                .map_err(|e| ClassicError::io("cleaner writeback", rec.disk_blk, e))?;
            self.stats.writebacks += 1;
            self.set_record(
                slot,
                SlotRecord {
                    dirty: false,
                    ..rec
                },
            );
        }
        Ok(())
    }

    /// Reads one block through the cache.
    pub fn read(&mut self, disk_blk: u64, buf: &mut [u8]) -> Result<(), ClassicError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(&slot) = self.index.get(&disk_blk) {
            self.nvm.read(self.layout.data_addr(slot), buf);
            self.lru.touch(slot);
            self.stats.read_hits += 1;
            return Ok(());
        }
        self.disk
            .read_block(disk_blk, buf)
            .map_err(|e| ClassicError::io("read miss fill", disk_blk, e))?;
        self.stats.read_misses += 1;
        let slot = self.take_slot(disk_blk)?;
        self.index.insert(disk_blk, slot);
        self.lru.push_mru(slot);
        let addr = self.layout.data_addr(slot);
        self.nvm.write(addr, buf);
        self.nvm.persist(addr, BLOCK_SIZE);
        self.set_record(
            slot,
            SlotRecord {
                valid: true,
                dirty: false,
                disk_blk,
            },
        );
        Ok(())
    }

    /// Finds a slot in `disk_blk`'s set, evicting the set's LRU victim if
    /// the set is full.
    fn take_slot(&mut self, disk_blk: u64) -> Result<u32, ClassicError> {
        let set = self.layout.set_of(disk_blk);
        // A free (invalid) slot in the set?
        for slot in self.layout.set_slots(set) {
            if !self.records[slot as usize].valid {
                return Ok(slot);
            }
        }
        let victim = self
            .lru
            .lru_of_set(set)
            .expect("full set must have linked slots");
        self.evict(victim)?;
        Ok(victim)
    }

    fn evict(&mut self, slot: u32) -> Result<(), ClassicError> {
        let rec = self.records[slot as usize];
        debug_assert!(rec.valid);
        if rec.dirty {
            let mut buf = [0u8; BLOCK_SIZE];
            self.nvm.read(self.layout.data_addr(slot), &mut buf);
            self.disk
                .write_block(rec.disk_blk, &buf)
                .map_err(|e| ClassicError::io("eviction writeback", rec.disk_blk, e))?;
            self.stats.writebacks += 1;
        }
        self.index.remove(&rec.disk_blk);
        self.lru.remove(slot);
        // Invalidate persistently before the slot is reused.
        self.set_record(slot, SlotRecord::INVALID);
        self.stats.evictions += 1;
        Ok(())
    }

    /// Updates a slot's record and synchronously persists it per the
    /// configured scheme: Flashcache rewrites the whole 4 KB metadata
    /// block (the write-amplification source of §3.2); FlashTier/bcache
    /// append one 16 B log record.
    fn set_record(&mut self, slot: u32, rec: SlotRecord) {
        self.put_record(slot, rec);
        if !self.cfg.sync_metadata {
            return;
        }
        match self.cfg.metadata_scheme {
            MetadataScheme::SyncBlock => {
                self.write_meta_block(self.layout.meta_block_of(slot));
            }
            MetadataScheme::Log => self.append_log(slot),
        }
    }

    /// Sets `slot`'s record in DRAM: the record, its 16 B slot of the
    /// metadata image and its set's dirty count.
    fn put_record(&mut self, slot: u32, rec: SlotRecord) {
        let s = slot as usize;
        let set = (slot / self.layout.assoc) as usize;
        let was = self.records[s];
        match (was.valid && was.dirty, rec.valid && rec.dirty) {
            (false, true) => self.set_dirty[set] += 1,
            (true, false) => self.set_dirty[set] -= 1,
            _ => {}
        }
        self.records[s] = rec;
        self.image[s * RECORD_BYTES..(s + 1) * RECORD_BYTES].copy_from_slice(&rec.encode());
    }

    /// Appends one record to the metadata log, checkpointing first if the
    /// log is full.
    fn append_log(&mut self, slot: u32) {
        if self.log_cursor == LOG_SLOTS {
            self.checkpoint_metadata();
        }
        let raw = encode_log_record(self.gen, slot, self.records[slot as usize]);
        let addr = self.layout.log_slot_addr(self.log_cursor);
        self.nvm.atomic_write_u128(addr, raw);
        self.nvm.persist(addr, RECORD_BYTES);
        self.log_cursor += 1;
        self.stats.meta_log_appends += 1;
    }

    /// Writes the whole metadata array as the new base, then bumps the
    /// generation (the atomic commit point that retires every log record),
    /// restarting the log.
    fn checkpoint_metadata(&mut self) {
        for mb in 0..self.layout.meta_blocks {
            self.write_meta_block(mb);
        }
        self.gen += 1;
        self.nvm.atomic_write_u64(GEN_OFF, self.gen as u64);
        self.nvm.persist(GEN_OFF, 8);
        self.log_cursor = 0;
        self.stats.meta_checkpoints += 1;
    }

    /// Writes back every dirty block (orderly shutdown / verification).
    /// Stops at the first disk error — the remaining dirty blocks stay
    /// dirty and a later retry resumes where this one failed.
    pub fn flush_all(&mut self) -> Result<(), ClassicError> {
        let mut buf = [0u8; BLOCK_SIZE];
        for slot in 0..self.layout.num_blocks {
            let rec = self.records[slot as usize];
            if rec.valid && rec.dirty {
                self.nvm.read(self.layout.data_addr(slot), &mut buf);
                self.disk
                    .write_block(rec.disk_blk, &buf)
                    .map_err(|e| ClassicError::io("flush writeback", rec.disk_blk, e))?;
                self.stats.writebacks += 1;
                self.set_record(
                    slot,
                    SlotRecord {
                        dirty: false,
                        ..rec
                    },
                );
            }
        }
        Ok(())
    }

    /// Handles a device flush barrier (REQ_FLUSH) from the file system:
    /// cleans the least-recently-used dirty blocks of every set down to
    /// the `DIRTY_THRESH_PCT` pool, in elevator (ascending disk block)
    /// order, persisting the affected metadata blocks in one batched pass
    /// (Flashcache's cleaner batches metadata I/O).
    ///
    /// Hot blocks re-dirtied within the pool keep absorbing writes, but
    /// every colder version — journal copies prominently — reaches the
    /// SSD, which is the disk write amplification of §3.1 / Fig. 7(c).
    /// No-op when `drain_on_flush` is disabled.
    pub fn flush_barrier(&mut self) -> Result<(), ClassicError> {
        if !self.cfg.drain_on_flush {
            return Ok(());
        }
        let allowed = (self.layout.assoc * DIRTY_THRESH_PCT / 100).max(1);
        let mut to_clean: Vec<(u64, u32)> = Vec::new();
        // Fallow pass: dirty blocks not re-written within the fallow age
        // (journal copies prominently: the log only returns to a slot a
        // full wrap later).
        let fallow_before = self.write_seq.saturating_sub(self.cfg.fallow_age_writes);
        for slot in 0..self.layout.num_blocks {
            let rec = self.records[slot as usize];
            if rec.valid && rec.dirty && self.last_write[slot as usize] <= fallow_before {
                to_clean.push((rec.disk_blk, slot));
            }
        }
        // Threshold pass: each set's LRU-most dirty slots beyond its pool.
        for set in 0..self.layout.num_sets {
            let excess = self.set_dirty[set as usize].saturating_sub(allowed);
            if excess == 0 {
                continue;
            }
            let mut remaining = excess;
            let mut cur = self.lru.lru_of_set(set);
            while let (Some(slot), true) = (cur, remaining > 0) {
                if self.records[slot as usize].dirty
                    && self.last_write[slot as usize] > fallow_before
                {
                    to_clean.push((self.records[slot as usize].disk_blk, slot));
                    remaining -= 1;
                }
                cur = self.lru.next_towards_mru(slot);
            }
        }
        if to_clean.is_empty() {
            return Ok(());
        }
        to_clean.sort_unstable(); // elevator order
        let mut buf = [0u8; BLOCK_SIZE];
        let mut touched_slots: Vec<u32> = Vec::new();
        for (disk_blk, slot) in to_clean {
            self.nvm.read(self.layout.data_addr(slot), &mut buf);
            self.disk
                .write_block(disk_blk, &buf)
                .map_err(|e| ClassicError::io("barrier writeback", disk_blk, e))?;
            self.stats.writebacks += 1;
            let mut rec = self.records[slot as usize];
            rec.dirty = false;
            self.put_record(slot, rec);
            touched_slots.push(slot);
        }
        if self.cfg.sync_metadata {
            match self.cfg.metadata_scheme {
                MetadataScheme::SyncBlock => {
                    // Batch: one write per affected metadata block
                    // (Flashcache's cleaner batches metadata I/O).
                    let mut touched_meta: Vec<usize> = touched_slots
                        .iter()
                        .map(|&s| self.layout.meta_block_of(s))
                        .collect();
                    touched_meta.sort_unstable();
                    touched_meta.dedup();
                    for mb in touched_meta {
                        self.write_meta_block(mb);
                    }
                }
                MetadataScheme::Log => {
                    for slot in touched_slots {
                        self.append_log(slot);
                    }
                }
            }
        }
        Ok(())
    }

    /// Persists one metadata block from the DRAM image.
    fn write_meta_block(&mut self, mb: usize) {
        let addr = self.layout.meta_block_addr(mb);
        self.nvm.write(addr, self.meta_image(mb));
        self.nvm.persist(addr, BLOCK_SIZE);
        self.stats.meta_block_writes += 1;
    }

    /// Metadata block `mb` of the DRAM image.
    fn meta_image(&self, mb: usize) -> &[u8] {
        &self.image[mb * BLOCK_SIZE..(mb + 1) * BLOCK_SIZE]
    }

    /// Reads `disk_blk` without populating the cache (verification).
    pub fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), ClassicError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(&slot) = self.index.get(&disk_blk) {
            self.nvm.read(self.layout.data_addr(slot), buf);
            Ok(())
        } else {
            self.disk
                .read_block(disk_blk, buf)
                .map_err(|e| ClassicError::io("uncached read", disk_blk, e))
        }
    }

    pub fn stats(&self) -> ClassicStats {
        self.stats
    }

    pub fn layout(&self) -> &ClassicLayout {
        &self.layout
    }

    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    pub fn disk(&self) -> &DynDisk {
        &self.disk
    }

    pub fn contains(&self, disk_blk: u64) -> bool {
        self.index.contains_key(&disk_blk)
    }

    pub fn cached_blocks(&self) -> usize {
        self.index.len()
    }

    /// Invariant self-check (tests): DRAM image ↔ DRAM mirror ↔ NVM
    /// records ↔ index.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut raw = [0u8; RECORD_BYTES];
        let mut valid = 0usize;
        for slot in 0..self.layout.num_blocks {
            let mem = self.records[slot as usize];
            let at = slot as usize * RECORD_BYTES;
            if self.image[at..at + RECORD_BYTES] != mem.encode() {
                return Err(format!("slot {slot}: image != {mem:?} encoded"));
            }
            // In the SyncBlock scheme the record area mirrors DRAM exactly;
            // in the Log scheme it is only the last checkpoint base (the
            // deltas live in the log, exercised by the recovery tests).
            if self.cfg.sync_metadata && self.cfg.metadata_scheme == MetadataScheme::SyncBlock {
                self.nvm.read(self.layout.record_addr(slot), &mut raw);
                let persisted = SlotRecord::decode(&raw);
                if persisted != mem {
                    return Err(format!("slot {slot}: NVM {persisted:?} != DRAM {mem:?}"));
                }
            }
            if mem.valid {
                valid += 1;
                let set = self.layout.set_of(mem.disk_blk);
                if !self.layout.set_slots(set).contains(&slot) {
                    return Err(format!(
                        "slot {slot} holds block {} of foreign set",
                        mem.disk_blk
                    ));
                }
                if self.index.get(&mem.disk_blk) != Some(&slot) {
                    return Err(format!("slot {slot} not indexed"));
                }
                if !self.lru.contains(slot) {
                    return Err(format!("valid slot {slot} not in LRU"));
                }
            } else if self.lru.contains(slot) {
                return Err(format!("invalid slot {slot} linked in LRU"));
            }
        }
        if self.image[self.records.len() * RECORD_BYTES..]
            .iter()
            .any(|&b| b != 0)
        {
            return Err("metadata image not zero past the last slot".into());
        }
        if valid != self.index.len() {
            return Err(format!(
                "index size {} != valid slots {valid}",
                self.index.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};

    fn setup(assoc: u32) -> (ClassicCache, Nvm, blockdev::Disk) {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let cfg = ClassicConfig {
            assoc,
            ..ClassicConfig::default()
        };
        let cache = ClassicCache::format(nvm.clone(), disk.clone(), cfg);
        (cache, nvm, disk)
    }

    fn blk(b: u8) -> [u8; BLOCK_SIZE] {
        [b; BLOCK_SIZE]
    }

    #[test]
    fn write_read_round_trip() {
        let (mut c, _, _) = setup(64);
        c.write(10, &blk(1)).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        c.read(10, &mut buf).unwrap();
        assert_eq!(buf, blk(1));
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
        c.check_consistency().unwrap();
    }

    #[test]
    fn every_write_rewrites_a_metadata_block() {
        let (mut c, nvm, _) = setup(64);
        let before = nvm.stats();
        c.write(1, &blk(1)).unwrap();
        c.write(2, &blk(2)).unwrap();
        let d = nvm.stats().delta(&before);
        assert_eq!(c.stats().meta_block_writes, 2);
        // Two data blocks + two metadata blocks, each 64 dirty lines.
        assert!(
            d.lines_written >= 4 * 64,
            "lines written: {}",
            d.lines_written
        );
        c.check_consistency().unwrap();
    }

    #[test]
    fn metadata_updates_can_be_disabled() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let cfg = ClassicConfig {
            assoc: 64,
            sync_metadata: false,
            ..ClassicConfig::default()
        };
        let mut c = ClassicCache::format(nvm.clone(), disk, cfg);
        let before = nvm.stats();
        c.write(1, &blk(1)).unwrap();
        let d = nvm.stats().delta(&before);
        assert_eq!(c.stats().meta_block_writes, 0);
        assert!(
            d.lines_written < 70,
            "only the data block should be written"
        );
    }

    #[test]
    fn write_hit_overwrites_in_place() {
        let (mut c, _, _) = setup(64);
        c.write(5, &blk(1)).unwrap();
        c.write(5, &blk(2)).unwrap();
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(c.cached_blocks(), 1);
        let mut buf = [0u8; BLOCK_SIZE];
        c.read(5, &mut buf).unwrap();
        assert_eq!(buf, blk(2));
    }

    #[test]
    fn set_conflict_evicts_within_set() {
        let (mut c, _, disk) = setup(4);
        let l = *c.layout();
        // Find 5 disk blocks hashing to the same set.
        let target = l.set_of(0);
        let mut same_set = vec![];
        let mut b = 0u64;
        while same_set.len() < 5 {
            if l.set_of(b) == target {
                same_set.push(b);
            }
            b += 1;
        }
        for (i, &sb) in same_set.iter().enumerate() {
            c.write(sb, &blk(i as u8 + 1)).unwrap();
        }
        // The set holds 4 slots: the first block must have been evicted
        // even though the rest of the cache is empty.
        assert!(
            !c.contains(same_set[0]),
            "set conflict must evict within the set"
        );
        assert_eq!(c.stats().evictions, 1);
        let mut buf = [0u8; BLOCK_SIZE];
        disk.read_block(same_set[0], &mut buf)
            .expect("classic cache assumes a fault-free disk");
        assert_eq!(buf, blk(1));
        c.check_consistency().unwrap();
    }

    #[test]
    fn recover_rebuilds_index_from_metadata_blocks() {
        let (mut c, nvm, disk) = setup(64);
        c.write(7, &blk(9)).unwrap();
        c.write(8, &blk(10)).unwrap();
        drop(c);
        nvm.crash(CrashPolicy::LoseVolatile);
        let rec = ClassicCache::recover(
            nvm,
            disk,
            ClassicConfig {
                assoc: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rec.contains(7) && rec.contains(8));
        let mut buf = [0u8; BLOCK_SIZE];
        rec.read_nocache(7, &mut buf).unwrap();
        assert_eq!(buf, blk(9));
        rec.check_consistency().unwrap();
    }

    #[test]
    fn recover_rejects_foreign_regions_by_kind() {
        let clock = SimClock::new();
        let blank = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let err = ClassicCache::recover(blank, disk, ClassicConfig::default()).err();
        assert_eq!(err, Some(ClassicError::NotFormatted { magic: 0 }));
        let (c, nvm, disk) = setup(64);
        drop(c);
        let err = ClassicCache::recover(nvm, disk, ClassicConfig::default()).err();
        assert_eq!(err, Some(ClassicError::GeometryMismatch));
    }

    #[test]
    fn in_place_overwrite_can_tear_across_crash() {
        // Documents the baseline's weakness (why it needs a journal above):
        // a crash during a write-hit overwrite may leave a mixed block.
        let mut torn = false;
        for seed in 0..300u64 {
            let clock = SimClock::new();
            let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
            let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
            let cfg = ClassicConfig {
                assoc: 64,
                ..ClassicConfig::default()
            };
            let mut c = ClassicCache::format(nvm.clone(), disk.clone(), cfg.clone());
            c.write(3, &blk(1)).unwrap();
            // Second write crashes mid-flush.
            nvm.set_trip(Some(20));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.write(3, &blk(2))));
            nvm.set_trip(None);
            if r.is_ok() {
                continue;
            }
            drop(c);
            nvm.crash(CrashPolicy::Random(seed));
            let rec = ClassicCache::recover(nvm, disk, cfg).unwrap();
            let mut buf = [0u8; BLOCK_SIZE];
            rec.read_nocache(3, &mut buf).unwrap();
            if buf.iter().any(|&x| x != buf[0]) {
                torn = true;
                break;
            }
        }
        assert!(
            torn,
            "in-place overwrite should be tearable — that is the point of the baseline"
        );
    }

    #[test]
    fn flush_all_cleans_dirty_blocks() {
        let (mut c, _, disk) = setup(64);
        for i in 0..5u64 {
            c.write(i, &blk(i as u8 + 1)).unwrap();
        }
        c.flush_all().unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        for i in 0..5u64 {
            disk.read_block(i, &mut buf)
                .expect("classic cache assumes a fault-free disk");
            assert_eq!(buf, blk(i as u8 + 1));
        }
        let w = disk.stats().writes;
        c.flush_all().unwrap();
        assert_eq!(disk.stats().writes, w, "second flush writes nothing");
        c.check_consistency().unwrap();
    }

    #[test]
    fn check_consistency_rejects_an_image_that_drifts_from_the_records() {
        let (mut c, _, _) = setup(64);
        c.write(7, &blk(1)).unwrap();
        c.check_consistency().unwrap();
        let slot = c.index[&7] as usize;
        c.image[slot * RECORD_BYTES] ^= 0x02; // the dirty flag
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains(&format!("slot {slot}: image")), "{err}");
        c.image[slot * RECORD_BYTES] ^= 0x02;
        c.check_consistency().unwrap();
        let past = c.records.len() * RECORD_BYTES;
        assert!(
            past < c.image.len(),
            "the layout leaves room past the last slot"
        );
        c.image[past] = 1;
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("past the last slot"), "{err}");
    }

    /// Writes, barriers and evictions under both metadata schemes, then a
    /// crash: recovery rebuilds the image the cache had, and every
    /// persisted metadata block equals the image of its last write (the
    /// live state in SyncBlock, the last checkpoint in Log).
    #[test]
    fn recovery_rebuilds_the_persisted_metadata_image() {
        for scheme in [MetadataScheme::SyncBlock, MetadataScheme::Log] {
            let clock = SimClock::new();
            let nvm = NvmDevice::new(NvmConfig::new(2 << 20, NvmTech::Pcm), clock.clone());
            let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
            let cfg = ClassicConfig {
                assoc: 16,
                metadata_scheme: scheme,
                fallow_age_writes: 8,
                ..ClassicConfig::default()
            };
            let mut c = ClassicCache::format(nvm.clone(), disk.clone(), cfg.clone());
            let run = |c: &mut ClassicCache, from: u64| {
                for i in from..from + 400 {
                    c.write(i * 7 % 1000, &blk(i as u8)).unwrap();
                    if i % 40 == 39 {
                        c.flush_barrier().unwrap();
                    }
                }
                c.flush_barrier().unwrap();
            };
            run(&mut c, 0);
            if scheme == MetadataScheme::Log {
                c.checkpoint_metadata();
            }
            let persisted_image = c.image.clone();
            if scheme == MetadataScheme::Log {
                run(&mut c, 400); // log records on top of the checkpoint
            }
            assert!(c.stats().evictions > 0 && c.stats().writebacks > 0);
            let image = c.image.clone();
            drop(c);
            nvm.crash(CrashPolicy::LoseVolatile);
            let rec = ClassicCache::recover(nvm.clone(), disk, cfg).unwrap();
            rec.check_consistency().unwrap();
            assert_eq!(rec.image, image, "{scheme:?}: rebuilt image");
            let mut block = [0u8; BLOCK_SIZE];
            for mb in 0..rec.layout.meta_blocks {
                nvm.read(rec.layout.meta_block_addr(mb), &mut block);
                let want = &persisted_image[mb * BLOCK_SIZE..(mb + 1) * BLOCK_SIZE];
                assert_eq!(&block[..], want, "{scheme:?}: metadata block {mb}");
                if scheme == MetadataScheme::SyncBlock {
                    assert_eq!(&block[..], rec.meta_image(mb));
                }
            }
        }
    }

    #[test]
    fn read_miss_fill_is_clean() {
        let (mut c, _, disk) = setup(64);
        disk.write_block(40, &blk(4))
            .expect("classic cache assumes a fault-free disk");
        let mut buf = [0u8; BLOCK_SIZE];
        c.read(40, &mut buf).unwrap();
        assert_eq!(buf, blk(4));
        assert!(c.contains(40));
        // Evicting it must not write back.
        let w = disk.stats().writes;
        c.flush_all().unwrap();
        assert_eq!(disk.stats().writes, w);
    }
}
