//! JBD2-style redo journaling (§2.3, Fig. 2(b)).
//!
//! The journal is a circular log in a reserved block region. A committed
//! transaction is laid out as: descriptor block(s) (tags = home block
//! numbers), the *log copies* of every data block, and a commit block.
//! Committed transactions are later *checkpointed* — each block written a
//! second time, to its home location — which is exactly the double write
//! the paper eliminates.
//!
//! Ordering relies on the cache layer's per-write durability (Flashcache
//! synchronously persists every block write), so the commit block can only
//! be durable after all its log blocks — the invariant redo recovery needs.

use std::collections::VecDeque;

use blockdev::BLOCK_SIZE;

use crate::bytes;
use crate::geometry::Geometry;
use crate::{Backend, FsError};

type Buf = Box<[u8; BLOCK_SIZE]>;

/// How the file system achieves (or skips) crash consistency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalMode {
    /// In-place writes, no consistency ("Ext4 without journaling").
    None,
    /// Redo journaling with checkpointing (Ext4/JBD2 data-journal mode —
    /// the paper's **Classic** stack).
    Jbd2,
    /// Transactions offloaded to the Tinca cache (the paper's **Tinca**).
    Tinca,
}

const SB_MAGIC: u64 = 0x4a42_4432_5342_4c4b; // "JBD2SBLK"
const DESC_MAGIC: u64 = 0x4a42_4432_4445_5343; // "JBD2DESC"
const COMMIT_MAGIC: u64 = 0x4a42_4432_434f_4d54; // "JBD2COMT"

/// Home-block tags per descriptor block.
const TAGS_PER_DESC: usize = (BLOCK_SIZE - 32) / 8;

/// A committed-but-not-yet-checkpointed transaction held in DRAM
/// (JBD2 pins these pages until checkpoint).
struct JTxn {
    blocks: Vec<(u64, Buf)>,
    slots: u64,
}

telemetry::counters! {
    /// Journal statistics (drives the write-amplification analysis of §3.1).
    pub struct JournalStats {
        pub commits: u64,
        pub log_blocks: u64,
        pub desc_blocks: u64,
        pub commit_blocks: u64,
        pub checkpoint_blocks: u64,
        pub replayed_txns: u64,
        pub replayed_blocks: u64,
    }
}

/// The redo journal manager.
pub(crate) struct Jbd2 {
    journal_off: u64,
    area_slots: u64,
    /// Monotone slot counters; position = counter % area_slots.
    head: u64,
    tail: u64,
    /// Sequence number of the next transaction to commit.
    seq: u64,
    /// Sequence expected at `tail` (for recovery).
    seq_at_tail: u64,
    committed: VecDeque<JTxn>,
    pub stats: JournalStats,
}

impl Jbd2 {
    /// Creates a fresh journal and writes its superblock.
    pub(crate) fn format(geo: &Geometry, backend: &mut Backend) -> Result<Jbd2, FsError> {
        assert!(geo.journal_blocks >= 8, "journal too small");
        let mut j = Jbd2 {
            journal_off: geo.journal_off,
            area_slots: geo.journal_blocks - 1,
            head: 0,
            tail: 0,
            seq: 1,
            seq_at_tail: 1,
            committed: VecDeque::new(),
            stats: JournalStats::default(),
        };
        j.write_sb(backend)?;
        Ok(j)
    }

    /// Opens the journal after a crash: replays every fully committed
    /// transaction (writing its blocks to their home locations) and resets
    /// the log. A replay that applied nothing leaves the log as the
    /// superblock already describes it, and writes nothing, so mounting a
    /// recovered journal again is a fixpoint.
    pub(crate) fn recover(geo: &Geometry, backend: &mut Backend) -> Result<Jbd2, FsError> {
        let mut sb = [0u8; BLOCK_SIZE];
        backend.read(geo.journal_off, &mut sb)?;
        if bytes::le_u64(&sb, 0) != SB_MAGIC {
            return Err(FsError::BadSuperblock("journal superblock missing".into()));
        }
        let tail = bytes::le_u64(&sb, 8);
        let seq_at_tail = bytes::le_u64(&sb, 16);
        let mut j = Jbd2 {
            journal_off: geo.journal_off,
            area_slots: geo.journal_blocks - 1,
            head: tail,
            tail,
            seq: seq_at_tail,
            seq_at_tail,
            committed: VecDeque::new(),
            stats: JournalStats::default(),
        };
        j.replay(backend)?;
        if j.stats.replayed_txns > 0 {
            j.write_sb(backend)?;
        }
        Ok(j)
    }

    fn slot_block(&self, slot: u64) -> u64 {
        self.journal_off + 1 + (slot % self.area_slots)
    }

    fn free_slots(&self) -> u64 {
        self.area_slots - (self.head - self.tail)
    }

    fn write_sb(&mut self, backend: &mut Backend) -> Result<(), FsError> {
        let mut sb = [0u8; BLOCK_SIZE];
        sb[0..8].copy_from_slice(&SB_MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&self.tail.to_le_bytes());
        sb[16..24].copy_from_slice(&self.seq_at_tail.to_le_bytes());
        Ok(backend.write_block(self.journal_off, &sb)?)
    }

    /// Slots a transaction of `n` blocks occupies in the log.
    fn slots_needed(n: usize) -> u64 {
        let descs = n.div_ceil(TAGS_PER_DESC);
        (descs + n + 1) as u64
    }

    /// Commits `blocks` to the journal (the **first** write of the double
    /// write), retaining them for later checkpointing (the second).
    ///
    /// Oversized batches are split into multiple journal transactions —
    /// JBD2 likewise caps a transaction at a fraction of the journal
    /// (`j_max_transaction_buffers` = journal/4).
    pub(crate) fn commit(
        &mut self,
        backend: &mut Backend,
        blocks: Vec<(u64, Buf)>,
    ) -> Result<(), FsError> {
        let max_txn = (self.area_slots as usize / 2).saturating_sub(4).max(1);
        if blocks.len() > max_txn {
            let mut rest = blocks;
            while !rest.is_empty() {
                let tail = rest.split_off(rest.len().min(max_txn));
                self.commit_one(backend, rest)?;
                rest = tail;
            }
            return Ok(());
        }
        self.commit_one(backend, blocks)
    }

    fn commit_one(
        &mut self,
        backend: &mut Backend,
        blocks: Vec<(u64, Buf)>,
    ) -> Result<(), FsError> {
        if blocks.is_empty() {
            return Ok(());
        }
        let _t = telemetry::span(telemetry::phase::JBD2_COMMIT);
        let needed = Self::slots_needed(blocks.len());
        assert!(
            needed <= self.area_slots,
            "transaction of {} blocks exceeds journal capacity",
            blocks.len()
        );
        while self.free_slots() < needed {
            self.checkpoint_oldest(backend)?;
        }
        let seq = self.seq;
        self.seq += 1;
        let mut remaining = &blocks[..];
        while !remaining.is_empty() {
            let chunk = remaining.len().min(TAGS_PER_DESC);
            let last = chunk == remaining.len();
            // Descriptor block.
            let mut desc = [0u8; BLOCK_SIZE];
            desc[0..8].copy_from_slice(&DESC_MAGIC.to_le_bytes());
            desc[8..16].copy_from_slice(&seq.to_le_bytes());
            desc[16..20].copy_from_slice(&(chunk as u32).to_le_bytes());
            desc[20] = last as u8;
            for (i, (home, _)) in remaining[..chunk].iter().enumerate() {
                desc[32 + i * 8..40 + i * 8].copy_from_slice(&home.to_le_bytes());
            }
            backend.write_block(self.slot_block(self.head), &desc)?;
            self.head += 1;
            self.stats.desc_blocks += 1;
            // Log copies.
            for (_, data) in &remaining[..chunk] {
                backend.write_block(self.slot_block(self.head), &data[..])?;
                self.head += 1;
                self.stats.log_blocks += 1;
            }
            remaining = &remaining[chunk..];
        }
        // Commit block ends the transaction.
        let mut cb = [0u8; BLOCK_SIZE];
        cb[0..8].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
        cb[8..16].copy_from_slice(&seq.to_le_bytes());
        cb[16..20].copy_from_slice(&(blocks.len() as u32).to_le_bytes());
        backend.write_block(self.slot_block(self.head), &cb)?;
        self.head += 1;
        self.stats.commit_blocks += 1;
        self.stats.commits += 1;
        self.committed.push_back(JTxn {
            blocks,
            slots: needed,
        });
        // The commit record is followed by a device flush barrier
        // (barrier=1 semantics): the legacy stack conservatively drains
        // the write-back cache below it.
        backend.flush_barrier()?;
        Ok(())
    }

    /// Checkpoints the oldest committed transaction: writes every block to
    /// its home location (the **second** write) and frees its log space.
    fn checkpoint_oldest(&mut self, backend: &mut Backend) -> Result<(), FsError> {
        let _t = telemetry::span(telemetry::phase::JBD2_CHECKPOINT);
        let Some(txn) = self.committed.pop_front() else {
            // Reachable only if the journal is too small for the txn split
            // limit; surfaced instead of panicking so the FS can refuse the
            // write and stay consistent.
            return Err(FsError::JournalFull);
        };
        for (home, data) in &txn.blocks {
            backend.write_block(*home, &data[..])?;
            self.stats.checkpoint_blocks += 1;
        }
        self.tail += txn.slots;
        self.seq_at_tail += 1;
        self.write_sb(backend)
    }

    /// Checkpoints everything (orderly shutdown).
    pub(crate) fn checkpoint_all(&mut self, backend: &mut Backend) -> Result<(), FsError> {
        while !self.committed.is_empty() {
            self.checkpoint_oldest(backend)?;
        }
        Ok(())
    }

    /// Redo replay: walk the log from `tail`, applying every fully
    /// committed transaction, stopping at the first incomplete one.
    fn replay(&mut self, backend: &mut Backend) -> Result<(), FsError> {
        let _t = telemetry::span(telemetry::phase::JBD2_REPLAY);
        let mut pos = self.tail;
        let mut expect = self.seq_at_tail;
        let mut block = [0u8; BLOCK_SIZE];
        'txn: loop {
            // Parse one transaction starting at `pos`.
            let mut homes: Vec<u64> = Vec::new();
            let mut log_slots: Vec<u64> = Vec::new();
            let mut p = pos;
            loop {
                if p - self.tail >= self.area_slots {
                    break 'txn; // wrapped the whole log without a commit
                }
                backend.read(self.slot_block(p), &mut block)?;
                let magic = bytes::le_u64(&block, 0);
                let seq = bytes::le_u64(&block, 8);
                if magic != DESC_MAGIC || seq != expect {
                    break 'txn;
                }
                let count = bytes::le_u32(&block, 16) as usize;
                let last = block[20] != 0;
                if count == 0 || count > TAGS_PER_DESC {
                    break 'txn;
                }
                for i in 0..count {
                    homes.push(bytes::le_u64(&block, 32 + i * 8));
                }
                p += 1;
                for _ in 0..count {
                    if p - self.tail >= self.area_slots {
                        break 'txn;
                    }
                    log_slots.push(p);
                    p += 1;
                }
                if last {
                    break;
                }
            }
            // Commit block?
            if p - self.tail >= self.area_slots {
                break;
            }
            backend.read(self.slot_block(p), &mut block)?;
            let magic = bytes::le_u64(&block, 0);
            let seq = bytes::le_u64(&block, 8);
            let total = bytes::le_u32(&block, 16) as usize;
            if magic != COMMIT_MAGIC || seq != expect || total != homes.len() {
                break;
            }
            p += 1;
            // Fully committed: replay.
            for (home, slot) in homes.iter().zip(&log_slots) {
                backend.read(self.slot_block(*slot), &mut block)?;
                backend.write_block(*home, &block)?;
                self.stats.replayed_blocks += 1;
            }
            self.stats.replayed_txns += 1;
            expect += 1;
            pos = p;
        }
        // Reset: everything replayed is durable at home.
        self.tail = pos;
        self.head = pos;
        self.seq = expect;
        self.seq_at_tail = expect;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{BlockDevice, DiskKind, SimDisk};
    use nvmsim::SimClock;

    fn geo() -> Geometry {
        Geometry::compute(1 << 14, 64, 100)
    }

    fn backend() -> (Backend, blockdev::Disk) {
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, SimClock::new());
        (Backend::Raw(disk.clone()), disk)
    }

    fn buf(b: u8) -> Buf {
        Box::new([b; BLOCK_SIZE])
    }

    #[test]
    fn commit_writes_desc_log_commit() {
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        let w0 = disk.stats().writes;
        j.commit(&mut be, vec![(5000, buf(1)), (5001, buf(2))])
            .unwrap();
        // 1 desc + 2 log + 1 commit = 4 journal writes; home untouched.
        assert_eq!(disk.stats().writes - w0, 4);
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(5000, &mut b).unwrap();
        assert_eq!(b[0], 0, "home not written before checkpoint");
        assert_eq!(j.committed.len(), 1);
    }

    #[test]
    fn checkpoint_writes_home_copies() {
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        j.commit(&mut be, vec![(6000, buf(9))]).unwrap();
        j.checkpoint_all(&mut be).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(6000, &mut b).unwrap();
        assert_eq!(b[0], 9);
        assert_eq!(j.stats.checkpoint_blocks, 1);
        assert_eq!(j.committed.len(), 0);
    }

    #[test]
    fn journal_wraps_and_forces_checkpoints() {
        let g = geo(); // 64-block journal → 63 slots
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        // Each txn: 1 desc + 10 log + 1 commit = 12 slots. 6+ txns wrap.
        for round in 0..20u64 {
            let blocks: Vec<(u64, Buf)> = (0..10).map(|i| (7000 + i, buf(round as u8))).collect();
            j.commit(&mut be, blocks).unwrap();
        }
        assert!(j.stats.checkpoint_blocks > 0, "wrap must force checkpoints");
        j.checkpoint_all(&mut be).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(7000, &mut b).unwrap();
        assert_eq!(b[0], 19, "home must hold the newest committed version");
    }

    #[test]
    fn recovery_replays_committed_txns() {
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        j.commit(&mut be, vec![(8000, buf(1)), (8001, buf(2))])
            .unwrap();
        j.commit(&mut be, vec![(8000, buf(3))]).unwrap();
        // Crash before any checkpoint: home blocks still zero.
        drop(j);
        let j2 = Jbd2::recover(&g, &mut be).unwrap();
        assert_eq!(j2.stats.replayed_txns, 2);
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(8000, &mut b).unwrap();
        assert_eq!(b[0], 3, "replay must apply txns in order");
        disk.read_block(8001, &mut b).unwrap();
        assert_eq!(b[0], 2);
    }

    #[test]
    fn recovery_ignores_uncommitted_tail() {
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        j.commit(&mut be, vec![(9000, buf(1))]).unwrap();
        // Forge a torn transaction: descriptor without commit block.
        let mut desc = [0u8; BLOCK_SIZE];
        desc[0..8].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        desc[8..16].copy_from_slice(&j.seq.to_le_bytes());
        desc[16..20].copy_from_slice(&1u32.to_le_bytes());
        desc[20] = 1;
        desc[32..40].copy_from_slice(&9001u64.to_le_bytes());
        let slot = j.slot_block(j.head);
        be.write_block(slot, &desc).unwrap();
        be.write_block(slot + 1, &buf(7)[..]).unwrap();
        // No commit block → must not replay.
        drop(j);
        let j2 = Jbd2::recover(&g, &mut be).unwrap();
        assert_eq!(j2.stats.replayed_txns, 1);
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(9001, &mut b).unwrap();
        assert_eq!(b[0], 0, "torn txn must not reach home");
        disk.read_block(9000, &mut b).unwrap();
        assert_eq!(b[0], 1);
    }

    #[test]
    fn recovery_after_checkpoint_is_idempotent() {
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        j.commit(&mut be, vec![(9500, buf(4))]).unwrap();
        j.checkpoint_all(&mut be).unwrap();
        drop(j);
        let j2 = Jbd2::recover(&g, &mut be).unwrap();
        assert_eq!(
            j2.stats.replayed_txns, 0,
            "checkpointed txns are past the tail"
        );
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(9500, &mut b).unwrap();
        assert_eq!(b[0], 4);
    }

    #[test]
    fn multi_descriptor_transactions() {
        // > TAGS_PER_DESC blocks forces two descriptor blocks.
        let g = Geometry::compute(1 << 15, 2048, 100);
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        let n = TAGS_PER_DESC + 5;
        let blocks: Vec<(u64, Buf)> = (0..n as u64)
            .map(|i| (10_000 + i, buf((i % 250) as u8)))
            .collect();
        j.commit(&mut be, blocks).unwrap();
        assert_eq!(j.stats.desc_blocks, 2);
        drop(j);
        let j2 = Jbd2::recover(&g, &mut be).unwrap();
        assert_eq!(j2.stats.replayed_txns, 1);
        assert_eq!(j2.stats.replayed_blocks as usize, n);
        let mut b = [0u8; BLOCK_SIZE];
        disk.read_block(10_000 + TAGS_PER_DESC as u64, &mut b)
            .unwrap();
        assert_eq!(b[0] as usize, TAGS_PER_DESC % 250);
    }

    #[test]
    fn double_write_amplification_is_measurable() {
        // The motivating observation (§3.1): every block reaches the device
        // twice (journal + checkpoint) plus transaction metadata.
        let g = geo();
        let (mut be, disk) = backend();
        let mut j = Jbd2::format(&g, &mut be).unwrap();
        let w0 = disk.stats().writes;
        j.commit(
            &mut be,
            vec![(5000, buf(1)), (5001, buf(2)), (5002, buf(3))],
        )
        .unwrap();
        j.checkpoint_all(&mut be).unwrap();
        let writes = disk.stats().writes - w0;
        // 3 log + 3 checkpoint + 1 desc + 1 commit + 1 sb update = 9
        assert!(
            writes >= 8,
            "expected ≥ 2× amplification, got {writes} writes for 3 blocks"
        );
    }
}
