//! Running transactions (§4.1, §4.4).
//!
//! A running transaction lives entirely in DRAM: the file system links the
//! data blocks it wants committed, then hands the transaction to
//! [`crate::TincaPool::commit`], which turns it into the *committing*
//! transaction and drives the commit protocol.

use std::collections::HashMap;

use blockdev::BLOCK_SIZE;

/// One 4 KB block payload.
pub(crate) type BlockBuf = Box<[u8; BLOCK_SIZE]>;

/// Copies a slice into a fresh [`BlockBuf`].
pub(crate) fn block_buf(data: &[u8]) -> BlockBuf {
    assert_eq!(data.len(), BLOCK_SIZE);
    let mut b: BlockBuf = Box::new([0u8; BLOCK_SIZE]);
    b.copy_from_slice(data);
    b
}

/// A running transaction: an ordered set of (disk block → new contents)
/// updates. Writing the same block twice coalesces to the newest contents,
/// as JBD2's running transaction would; rewrites with identical payloads
/// skip the 4 KB copy entirely (the memcmp is cheaper than the memcpy and
/// leaves the staged buffer untouched).
#[derive(Debug, Default)]
pub struct Txn {
    blocks: Vec<(u64, BlockBuf)>,
    index: HashMap<u64, usize>,
    coalesced: u64,
}

impl Txn {
    /// Starts an empty running transaction (`tinca_init_txn`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages `data` as the new contents of on-disk block `disk_blk`.
    pub fn write(&mut self, disk_blk: u64, data: &[u8]) {
        assert_eq!(
            data.len(),
            BLOCK_SIZE,
            "transactions stage whole 4 KB blocks"
        );
        match self.index.get(&disk_blk) {
            Some(&i) => {
                self.coalesced += 1;
                let staged = &mut self.blocks[i].1;
                if staged[..] != *data {
                    staged.copy_from_slice(data);
                }
            }
            None => {
                self.index.insert(disk_blk, self.blocks.len());
                self.blocks.push((disk_blk, block_buf(data)));
            }
        }
    }

    /// Stages an already-boxed payload without copying. Coalesces like
    /// [`write`](Self::write) but swaps the buffer in on a rewrite.
    pub fn stage_owned(&mut self, disk_blk: u64, data: Box<[u8; BLOCK_SIZE]>) {
        match self.index.get(&disk_blk) {
            Some(&i) => {
                self.coalesced += 1;
                self.blocks[i].1 = data;
            }
            None => {
                self.index.insert(disk_blk, self.blocks.len());
                self.blocks.push((disk_blk, data));
            }
        }
    }

    /// Number of distinct blocks staged.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Rewrites coalesced into an already-staged block so far.
    pub(crate) fn coalesced_writes(&self) -> u64 {
        self.coalesced
    }

    /// Credits `n` coalesced rewrites to this transaction (used when a
    /// pool splits a transaction so the fragments' counters still sum to
    /// the original's).
    pub(crate) fn add_coalesced(&mut self, n: u64) {
        self.coalesced += n;
    }

    /// The staged updates, in first-write order.
    pub(crate) fn blocks(&self) -> &[(u64, BlockBuf)] {
        &self.blocks
    }

    /// Consumes the transaction, yielding the staged updates in first-write
    /// order (used to split a transaction across pool shards without
    /// copying payloads).
    pub(crate) fn into_blocks(self) -> Vec<(u64, BlockBuf)> {
        self.blocks
    }

    /// Disk block numbers staged, in first-write order.
    pub(crate) fn disk_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().map(|(b, _)| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    /// First byte of the contents `t` stages for `disk_blk`.
    fn staged(t: &Txn, disk_blk: u64) -> Option<u8> {
        t.blocks()
            .iter()
            .find(|(b, _)| *b == disk_blk)
            .map(|(_, data)| data[0])
    }

    #[test]
    fn stages_blocks_in_order() {
        let mut t = Txn::new();
        t.write(5, &buf(1));
        t.write(3, &buf(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.disk_blocks().collect::<Vec<_>>(), vec![5, 3]);
        assert_eq!(t.coalesced_writes(), 0);
    }

    #[test]
    fn rewrite_coalesces() {
        let mut t = Txn::new();
        t.write(5, &buf(1));
        t.write(5, &buf(9));
        assert_eq!(t.len(), 1);
        assert_eq!(staged(&t, 5), Some(9));
        assert_eq!(t.coalesced_writes(), 1);
    }

    #[test]
    fn equal_payload_rewrite_coalesces_without_corruption() {
        let mut t = Txn::new();
        t.write(5, &buf(7));
        t.write(5, &buf(7)); // identical: copy skipped, still counted
        assert_eq!(t.len(), 1);
        assert_eq!(staged(&t, 5), Some(7));
        assert_eq!(t.coalesced_writes(), 1);
        t.write(5, &buf(8)); // different: contents must update
        assert_eq!(staged(&t, 5), Some(8));
        assert_eq!(t.coalesced_writes(), 2);
    }

    #[test]
    fn stage_owned_swaps_buffers() {
        let mut t = Txn::new();
        t.stage_owned(4, block_buf(&buf(1)));
        t.stage_owned(4, block_buf(&buf(2)));
        assert_eq!(t.len(), 1);
        assert_eq!(staged(&t, 4), Some(2));
        assert_eq!(t.coalesced_writes(), 1);
    }

    #[test]
    fn into_blocks_preserves_order() {
        let mut t = Txn::new();
        t.write(9, &buf(1));
        t.write(4, &buf(2));
        let blocks = t.into_blocks();
        let nums: Vec<u64> = blocks.iter().map(|(b, _)| *b).collect();
        assert_eq!(nums, vec![9, 4]);
    }

    #[test]
    fn get_missing_is_none() {
        let t = Txn::new();
        assert!(staged(&t, 1).is_none());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "4 KB")]
    fn partial_block_rejected() {
        let mut t = Txn::new();
        t.write(0, &[0u8; 100]);
    }
}
