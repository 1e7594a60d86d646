//! DRAM page cache: the running transaction's dirty blocks plus a bounded
//! clean read cache. Both stacks (Tinca and Classic) get the same page
//! cache, so DRAM caching never skews the comparison.

use std::collections::{BTreeMap, HashMap};

use blockdev::BLOCK_SIZE;

type Buf = Box<[u8; BLOCK_SIZE]>;

/// DRAM block cache with a dirty map (read-your-writes for the running
/// transaction) and a clean LRU.
pub struct PageCache {
    dirty: HashMap<u64, Buf>,
    dirty_order: Vec<u64>,
    /// Clean copies, each with the stamp of its last use.
    clean: HashMap<u64, (Buf, u64)>,
    /// Clean blocks by last-use stamp: the first entry is the LRU block.
    /// A touch re-stamps in O(log n); a scan of a recency-ordered `Vec`
    /// was O(n) plus a shift of the whole tail.
    clean_lru: BTreeMap<u64, u64>,
    /// The next last-use stamp; grows on every touch and admission.
    next_stamp: u64,
    clean_capacity: usize,
}

impl PageCache {
    pub fn new(clean_capacity: usize) -> Self {
        Self {
            dirty: HashMap::new(),
            dirty_order: Vec::new(),
            clean: HashMap::new(),
            clean_lru: BTreeMap::new(),
            next_stamp: 0,
            clean_capacity,
        }
    }

    /// Stages `data` as the dirty contents of `blk`.
    pub fn write(&mut self, blk: u64, data: Buf) {
        if self.dirty.insert(blk, data).is_none() {
            self.dirty_order.push(blk);
        }
        // A dirty copy supersedes any clean copy.
        self.forget_clean(blk);
    }

    /// Returns the newest cached contents of `blk`, if present.
    pub fn get(&mut self, blk: u64) -> Option<&[u8; BLOCK_SIZE]> {
        if let Some(b) = self.dirty.get(&blk) {
            return Some(b);
        }
        let (buf, stamp) = self.clean.get_mut(&blk)?;
        // Touch: the block becomes the most recently used.
        self.clean_lru.remove(stamp);
        *stamp = self.next_stamp;
        self.clean_lru.insert(self.next_stamp, blk);
        self.next_stamp += 1;
        Some(buf)
    }

    /// Mutable access to the dirty copy of `blk`, if staged.
    pub fn get_dirty_mut(&mut self, blk: u64) -> Option<&mut [u8; BLOCK_SIZE]> {
        self.dirty.get_mut(&blk).map(|b| &mut **b)
    }

    /// Inserts a clean copy (after a backend read), evicting the clean LRU
    /// block if at capacity. Dirty copies are never evicted.
    pub fn insert_clean(&mut self, blk: u64, data: Buf) {
        if self.dirty.contains_key(&blk) || self.clean_capacity == 0 {
            return;
        }
        if let Some((cached, _)) = self.clean.get_mut(&blk) {
            *cached = data;
            return;
        }
        self.admit_clean(blk, data);
    }

    /// Number of dirty (staged) blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Drains the dirty set in first-write order (commit time). The blocks
    /// move to the clean cache so subsequent reads still hit DRAM.
    pub fn take_dirty(&mut self) -> Vec<(u64, Buf)> {
        let mut out = Vec::with_capacity(self.dirty.len());
        for blk in self.dirty_order.drain(..) {
            if let Some(buf) = self.dirty.remove(&blk) {
                out.push((blk, buf));
            }
        }
        debug_assert!(self.dirty.is_empty());
        // Keep clean copies of the committed blocks (bounded).
        for (blk, buf) in &out {
            if self.clean_capacity > 0 && !self.clean.contains_key(blk) {
                self.admit_clean(*blk, buf.clone());
            }
        }
        out
    }

    /// Forgets a block entirely (file deletion).
    pub fn forget(&mut self, blk: u64) {
        if self.dirty.remove(&blk).is_some() {
            self.dirty_order.retain(|&b| b != blk);
        }
        self.forget_clean(blk);
    }

    /// Caches `data` as the most recently used clean copy of `blk` (not
    /// cached yet), evicting the LRU clean block at capacity.
    fn admit_clean(&mut self, blk: u64, data: Buf) {
        if self.clean.len() >= self.clean_capacity {
            if let Some((_, victim)) = self.clean_lru.pop_first() {
                self.clean.remove(&victim);
            }
        }
        self.clean.insert(blk, (data, self.next_stamp));
        self.clean_lru.insert(self.next_stamp, blk);
        self.next_stamp += 1;
    }

    /// Drops the clean copy of `blk`, if any.
    fn forget_clean(&mut self, blk: u64) {
        if let Some((_, stamp)) = self.clean.remove(&blk) {
            self.clean_lru.remove(&stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(b: u8) -> Buf {
        Box::new([b; BLOCK_SIZE])
    }

    #[test]
    fn read_your_writes() {
        let mut pc = PageCache::new(4);
        pc.write(1, buf(7));
        assert_eq!(pc.get(1).unwrap()[0], 7);
        assert_eq!(pc.dirty_len(), 1);
    }

    #[test]
    fn dirty_supersedes_clean() {
        let mut pc = PageCache::new(4);
        pc.insert_clean(1, buf(1));
        pc.write(1, buf(2));
        assert_eq!(pc.get(1).unwrap()[0], 2);
        let drained = pc.take_dirty();
        assert_eq!(drained.len(), 1);
        // Clean copy of the committed version remains readable.
        assert_eq!(pc.get(1).unwrap()[0], 2);
    }

    #[test]
    fn clean_lru_evicts_in_order() {
        let mut pc = PageCache::new(2);
        pc.insert_clean(1, buf(1));
        pc.insert_clean(2, buf(2));
        pc.get(1); // touch 1, so 2 becomes LRU
        pc.insert_clean(3, buf(3));
        assert!(pc.get(2).is_none(), "2 was LRU");
        assert!(pc.get(1).is_some());
        assert!(pc.get(3).is_some());
    }

    #[test]
    fn take_dirty_preserves_first_write_order() {
        let mut pc = PageCache::new(0);
        pc.write(5, buf(1));
        pc.write(3, buf(2));
        pc.write(5, buf(9)); // rewrite keeps original position
        let drained = pc.take_dirty();
        let order: Vec<u64> = drained.iter().map(|(b, _)| *b).collect();
        assert_eq!(order, vec![5, 3]);
        assert_eq!(drained[0].1[0], 9);
        assert_eq!(pc.dirty_len(), 0);
    }

    #[test]
    fn forget_removes_both_copies() {
        let mut pc = PageCache::new(4);
        pc.write(1, buf(1));
        pc.forget(1);
        assert!(pc.get(1).is_none());
        assert_eq!(pc.take_dirty().len(), 0);
        pc.insert_clean(2, buf(2));
        pc.forget(2);
        assert!(pc.get(2).is_none());
    }

    #[test]
    fn zero_capacity_keeps_no_clean_blocks() {
        let mut pc = PageCache::new(0);
        pc.insert_clean(1, buf(1));
        assert!(pc.get(1).is_none());
        pc.write(2, buf(2));
        let _ = pc.take_dirty();
        assert!(pc.get(2).is_none());
    }
}
