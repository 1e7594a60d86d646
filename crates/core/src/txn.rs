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

/// Copies a slice into a fresh [`BlockBuf`]: one copy, no zero-fill.
// Audited: the length is asserted first, so the conversion cannot fail.
#[allow(clippy::disallowed_methods)]
pub(crate) fn block_buf(data: &[u8]) -> BlockBuf {
    assert_eq!(data.len(), BLOCK_SIZE);
    Box::<[u8]>::from(data).try_into().expect("one whole block")
}

/// Transactions of at most this many blocks find a staged block by a
/// scan of their block list; a larger one indexes it in a map, so a
/// file-system commit of `txn_block_limit` blocks stays sub-quadratic.
const SCAN_MAX: usize = 16;

/// A running transaction: an ordered set of (disk block → new contents)
/// updates. Writing the same block twice coalesces to the newest contents,
/// as JBD2's running transaction would; rewrites with identical payloads
/// skip the 4 KB copy entirely (the memcmp is cheaper than the memcpy and
/// leaves the staged buffer untouched).
#[derive(Debug, Default)]
pub struct Txn {
    blocks: Vec<(u64, BlockBuf)>,
    /// Position in `blocks` of each staged block; empty (and never
    /// allocated) until the transaction outgrows [`SCAN_MAX`].
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
        match self.position(disk_blk) {
            Some(i) => {
                self.coalesced += 1;
                let staged = &mut self.blocks[i].1;
                if staged[..] != *data {
                    staged.copy_from_slice(data);
                }
            }
            None => self.push(disk_blk, block_buf(data)),
        }
    }

    /// Stages an already-boxed payload without copying. Coalesces like
    /// [`write`](Self::write) but swaps the buffer in on a rewrite.
    pub fn stage_owned(&mut self, disk_blk: u64, data: Box<[u8; BLOCK_SIZE]>) {
        match self.position(disk_blk) {
            Some(i) => {
                self.coalesced += 1;
                self.blocks[i].1 = data;
            }
            None => self.push(disk_blk, data),
        }
    }

    /// Where `disk_blk` is staged in `blocks`, if it is.
    fn position(&self, disk_blk: u64) -> Option<usize> {
        if self.blocks.len() <= SCAN_MAX {
            self.blocks.iter().position(|(b, _)| *b == disk_blk)
        } else {
            self.index.get(&disk_blk).copied()
        }
    }

    /// Stages a block not staged yet, indexing every block once the list
    /// outgrows a scan.
    fn push(&mut self, disk_blk: u64, data: BlockBuf) {
        self.blocks.push((disk_blk, data));
        let n = self.blocks.len();
        if n == SCAN_MAX + 1 {
            self.index = (self.blocks.iter().enumerate())
                .map(|(i, (b, _))| (*b, i))
                .collect();
        } else if n > SCAN_MAX + 1 {
            self.index.insert(disk_blk, n - 1);
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

    /// Drives `write` and `stage_owned` over `distinct` block numbers and
    /// checks every step against a `BTreeMap` of (first-write rank,
    /// newest fill byte): the staged payloads, the first-write order and
    /// the coalesced-write count, below, at and above the size where the
    /// transaction switches from a scan to a map.
    fn check_against_reference(distinct: u64) {
        use std::collections::BTreeMap;
        let mut t = Txn::new();
        let mut reference: BTreeMap<u64, (usize, u8)> = BTreeMap::new();
        let mut coalesced = 0;
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ distinct;
        for step in 0..6 * distinct {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let blk = (x >> 33) % distinct * 7_919 + 3;
            // Few fill bytes, so identical-payload rewrites happen often.
            let fill = (x >> 17) as u8 % 3;
            let rank = reference.len();
            if let Some(entry) = reference.get_mut(&blk) {
                entry.1 = fill;
                coalesced += 1;
            } else {
                reference.insert(blk, (rank, fill));
            }
            if step % 2 == 0 {
                let before = (t.blocks.iter().find(|(b, _)| *b == blk)).map(|(_, d)| d.as_ptr());
                t.write(blk, &buf(fill));
                let after = (t.blocks.iter().find(|(b, _)| *b == blk)).map(|(_, d)| d.as_ptr());
                if before.is_some() {
                    assert_eq!(before, after, "a rewrite copies into the staged buffer");
                }
            } else {
                t.stage_owned(blk, block_buf(&buf(fill)));
            }
            assert_eq!(t.len(), reference.len());
            assert_eq!(t.coalesced_writes(), coalesced);
            for (&b, &(_, fill)) in &reference {
                assert_eq!(staged(&t, b), Some(fill), "newest contents of block {b}");
            }
            let mut order: Vec<(usize, u64)> =
                reference.iter().map(|(&b, &(r, _))| (r, b)).collect();
            order.sort_unstable();
            let order: Vec<u64> = order.into_iter().map(|(_, b)| b).collect();
            assert_eq!(t.disk_blocks().collect::<Vec<_>>(), order);
        }
        for (&b, &(rank, _)) in &reference {
            assert_eq!(
                t.position(b),
                Some(rank),
                "block {b} found where it was staged"
            );
        }
        assert_eq!(t.position(1), None);
    }

    #[test]
    fn scan_and_map_index_agree_with_a_reference_at_every_size() {
        for distinct in [
            1,
            SCAN_MAX as u64 - 1,
            SCAN_MAX as u64,
            SCAN_MAX as u64 + 1,
            64,
        ] {
            check_against_reference(distinct);
        }
    }

    #[test]
    #[should_panic(expected = "4 KB")]
    fn partial_block_rejected() {
        let mut t = Txn::new();
        t.write(0, &[0u8; 100]);
    }
}
