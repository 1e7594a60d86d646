//! DRAM page cache: the running transaction's dirty blocks plus a bounded
//! clean read cache. Both stacks (Tinca and Classic) get the same page
//! cache, so DRAM caching never skews the comparison.
//!
//! Every cached block is a node of one slab, found through one map. Clean
//! nodes form an intrusive recency list, so a touch, an admission and an
//! eviction are O(1). A buffer the cache lets go of (an evicted or
//! forgotten block, a superseded dirty copy) waits in a bounded spare list
//! for the next copy, so a read allocates nothing.

use std::collections::HashMap;

use blockdev::BLOCK_SIZE;

type Block = [u8; BLOCK_SIZE];
type Buf = Box<Block>;

/// Buffers kept for reuse (256 KB).
const SPARE_BUFS: usize = 64;

/// One cached block. Clean nodes form a ring through node 0, the list
/// head: its `newer` is the least recently used node, its `older` the
/// most recently used. A dirty node is in no list.
struct Node {
    blk: u64,
    buf: Buf,
    dirty: bool,
    older: u32,
    newer: u32,
}

/// DRAM block cache: dirty blocks (read-your-writes for the running
/// transaction) and a clean LRU.
pub(crate) struct PageCache {
    /// Block → its node in `nodes`.
    map: HashMap<u64, u32>,
    /// The list head, then the cached blocks.
    nodes: Vec<Node>,
    /// Dirty blocks in first-write order.
    dirty_order: Vec<u64>,
    clean_len: usize,
    clean_capacity: usize,
    spare: Vec<Buf>,
}

impl PageCache {
    pub(crate) fn new(clean_capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            nodes: vec![Node {
                blk: u64::MAX,
                buf: Box::new([0u8; BLOCK_SIZE]),
                dirty: false,
                older: 0,
                newer: 0,
            }],
            dirty_order: Vec::new(),
            clean_len: 0,
            clean_capacity,
            spare: Vec::new(),
        }
    }

    /// A buffer for a new copy: a spare one (holding stale bytes) if any.
    pub(crate) fn spare_buf(&mut self) -> Buf {
        self.spare
            .pop()
            .unwrap_or_else(|| Box::new([0u8; BLOCK_SIZE]))
    }

    /// Stages `data` as the dirty contents of `blk`.
    pub(crate) fn write(&mut self, blk: u64, data: Buf) {
        let Some(&i) = self.map.get(&blk) else {
            self.push_node(blk, data, true);
            self.dirty_order.push(blk);
            return;
        };
        if !self.nodes[i as usize].dirty {
            // A dirty copy supersedes the clean one.
            self.unlink(i);
            self.nodes[i as usize].dirty = true;
            self.dirty_order.push(blk);
        }
        let old = std::mem::replace(&mut self.nodes[i as usize].buf, data);
        self.recycle(old);
    }

    /// The newest cached contents of `blk` (a clean copy becomes the most
    /// recently used). A block cached in neither set is read by `read`
    /// into a spare buffer and admitted as the most recently used clean
    /// copy, evicting the LRU clean block at capacity.
    pub(crate) fn get_or_fill<E>(
        &mut self,
        blk: u64,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<&Block, E> {
        if let Some(&i) = self.map.get(&blk) {
            if !self.nodes[i as usize].dirty {
                self.unlink(i);
                self.link_mru(i);
            }
            return Ok(&self.nodes[i as usize].buf);
        }
        let mut buf = self.spare_buf();
        read(&mut buf[..])?;
        Ok(self.fill(blk, buf))
    }

    /// Mutable access to the dirty copy of `blk`, if staged.
    pub(crate) fn get_dirty_mut(&mut self, blk: u64) -> Option<&mut Block> {
        let &i = self.map.get(&blk)?;
        let node = &mut self.nodes[i as usize];
        node.dirty.then_some(&mut *node.buf)
    }

    /// Number of dirty (staged) blocks.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_order.len()
    }

    /// Drains the dirty set in first-write order (commit time), each block
    /// as a copy in a spare buffer. The blocks stay cached as clean copies
    /// (bounded), so subsequent reads still hit DRAM; with no clean
    /// capacity the cache hands over its own buffers instead.
    pub(crate) fn take_dirty(&mut self) -> Vec<(u64, Buf)> {
        let mut order = std::mem::take(&mut self.dirty_order);
        let mut out = Vec::with_capacity(order.len());
        for blk in order.drain(..) {
            self.make_room();
            let i = self.map[&blk];
            if self.clean_capacity == 0 {
                out.push((blk, self.remove(i)));
                continue;
            }
            let mut copy = self.spare_buf();
            copy.copy_from_slice(&self.nodes[i as usize].buf[..]);
            out.push((blk, copy));
            self.nodes[i as usize].dirty = false;
            self.link_mru(i);
        }
        self.dirty_order = order;
        out
    }

    /// Forgets a block entirely (file deletion).
    pub(crate) fn forget(&mut self, blk: u64) {
        let Some(&i) = self.map.get(&blk) else {
            return;
        };
        if self.nodes[i as usize].dirty {
            self.dirty_order.retain(|&b| b != blk);
        }
        let buf = self.remove(i);
        self.recycle(buf);
    }

    /// Admits `buf`, just read, as the most recently used clean copy of
    /// `blk` (cached in neither set) and returns it. With no clean
    /// capacity nothing is kept: the buffer goes to the spare list, which
    /// lends it until the next copy.
    fn fill(&mut self, blk: u64, buf: Buf) -> &Block {
        if self.clean_capacity == 0 {
            self.spare.push(buf);
            return &self.spare[self.spare.len() - 1];
        }
        self.make_room();
        let i = self.push_node(blk, buf, false);
        self.link_mru(i);
        &self.nodes[i as usize].buf
    }

    fn push_node(&mut self, blk: u64, buf: Buf, dirty: bool) -> u32 {
        let i = self.nodes.len() as u32;
        self.map.insert(blk, i);
        self.nodes.push(Node {
            blk,
            buf,
            dirty,
            older: 0,
            newer: 0,
        });
        i
    }

    fn recycle(&mut self, buf: Buf) {
        if self.spare.len() < SPARE_BUFS {
            self.spare.push(buf);
        }
    }

    /// Evicts the LRU clean block if the clean cache is full.
    fn make_room(&mut self) {
        if self.clean_capacity > 0 && self.clean_len >= self.clean_capacity {
            let buf = self.remove(self.nodes[0].newer);
            self.recycle(buf);
        }
    }

    /// Drops node `i` (unlinking it if clean) and returns its buffer. The
    /// last node of the slab moves into its place.
    fn remove(&mut self, i: u32) -> Buf {
        if !self.nodes[i as usize].dirty {
            self.unlink(i);
        }
        let node = self.nodes.swap_remove(i as usize);
        self.map.remove(&node.blk);
        if let Some(moved) = self.nodes.get(i as usize) {
            let (blk, dirty, older, newer) = (moved.blk, moved.dirty, moved.older, moved.newer);
            self.map.insert(blk, i);
            if !dirty {
                self.nodes[older as usize].newer = i;
                self.nodes[newer as usize].older = i;
            }
        }
        node.buf
    }

    fn unlink(&mut self, i: u32) {
        let Node { older, newer, .. } = self.nodes[i as usize];
        self.nodes[older as usize].newer = newer;
        self.nodes[newer as usize].older = older;
        self.clean_len -= 1;
    }

    fn link_mru(&mut self, i: u32) {
        let mru = self.nodes[0].older;
        let node = &mut self.nodes[i as usize];
        node.older = mru;
        node.newer = 0;
        self.nodes[mru as usize].newer = i;
        self.nodes[0].older = i;
        self.clean_len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn buf(b: u8) -> Buf {
        Box::new([b; BLOCK_SIZE])
    }

    impl PageCache {
        /// The newest copy of `blk`, touching a clean one; `None` on a miss.
        fn get(&mut self, blk: u64) -> Option<&Block> {
            self.get_or_fill(blk, |_| Err(())).ok()
        }

        /// Admits `data` after a miss on `blk`, as the file system does.
        fn miss_fill(&mut self, blk: u64, data: u8) {
            self.get_or_fill(blk, |b| {
                b.fill(data);
                Ok::<(), ()>(())
            })
            .unwrap();
        }

        /// The newest copy of `blk`, without touching the recency list.
        fn cached(&self, blk: u64) -> Option<&Block> {
            self.map.get(&blk).map(|&i| &*self.nodes[i as usize].buf)
        }

        /// Clean blocks from the least to the most recently used.
        fn clean_order(&self) -> Vec<u64> {
            let mut out = Vec::new();
            let mut cur = self.nodes[0].newer;
            while cur != 0 {
                out.push(self.nodes[cur as usize].blk);
                cur = self.nodes[cur as usize].newer;
            }
            out
        }
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
        pc.miss_fill(1, 1);
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
        pc.miss_fill(1, 1);
        pc.miss_fill(2, 2);
        pc.get(1); // touch 1, so 2 becomes LRU
        pc.miss_fill(3, 3);
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
        pc.miss_fill(2, 2);
        pc.forget(2);
        assert!(pc.get(2).is_none());
    }

    #[test]
    fn zero_capacity_keeps_no_clean_blocks() {
        let mut pc = PageCache::new(0);
        pc.miss_fill(1, 1);
        assert!(pc.get(1).is_none());
        pc.write(2, buf(2));
        let _ = pc.take_dirty();
        assert!(pc.get(2).is_none());
    }

    #[test]
    fn a_miss_returns_the_block_it_read_at_every_capacity() {
        for cap in [0, 1] {
            let mut pc = PageCache::new(cap);
            let got = pc.get_or_fill(4, |b| {
                b.fill(6);
                Ok::<(), ()>(())
            });
            assert_eq!(got.unwrap()[..], [6u8; BLOCK_SIZE][..]);
        }
    }

    #[test]
    fn buffers_are_recycled_up_to_the_bound() {
        let mut pc = PageCache::new(SPARE_BUFS * 2);
        for b in 0..SPARE_BUFS as u64 * 2 {
            pc.write(b, buf(1));
        }
        for b in 0..SPARE_BUFS as u64 * 2 {
            pc.forget(b);
        }
        assert_eq!(pc.spare.len(), SPARE_BUFS);
        let before = &*pc.spare[SPARE_BUFS - 1] as *const Block;
        assert_eq!(&*pc.spare_buf() as *const Block, before);
    }

    /// The stamp-ordered page cache this one replaced, kept as the
    /// reference its hits, misses and eviction victims must equal.
    struct StampCache {
        dirty: HashMap<u64, Buf>,
        dirty_order: Vec<u64>,
        clean: HashMap<u64, (Buf, u64)>,
        clean_lru: BTreeMap<u64, u64>,
        next_stamp: u64,
        clean_capacity: usize,
    }

    impl StampCache {
        fn new(clean_capacity: usize) -> Self {
            Self {
                dirty: HashMap::new(),
                dirty_order: Vec::new(),
                clean: HashMap::new(),
                clean_lru: BTreeMap::new(),
                next_stamp: 0,
                clean_capacity,
            }
        }

        fn write(&mut self, blk: u64, data: Buf) {
            if self.dirty.insert(blk, data).is_none() {
                self.dirty_order.push(blk);
            }
            self.forget_clean(blk);
        }

        fn get(&mut self, blk: u64) -> Option<&Block> {
            if let Some(b) = self.dirty.get(&blk) {
                return Some(b);
            }
            let (buf, stamp) = self.clean.get_mut(&blk)?;
            self.clean_lru.remove(stamp);
            *stamp = self.next_stamp;
            self.clean_lru.insert(self.next_stamp, blk);
            self.next_stamp += 1;
            Some(buf)
        }

        fn insert_clean(&mut self, blk: u64, data: Buf) {
            if self.dirty.contains_key(&blk) || self.clean_capacity == 0 {
                return;
            }
            if let Some((cached, _)) = self.clean.get_mut(&blk) {
                *cached = data;
                return;
            }
            self.admit_clean(blk, data);
        }

        fn take_dirty(&mut self) -> Vec<(u64, Buf)> {
            let mut out = Vec::with_capacity(self.dirty.len());
            for blk in self.dirty_order.drain(..) {
                if let Some(buf) = self.dirty.remove(&blk) {
                    out.push((blk, buf));
                }
            }
            for (blk, buf) in &out {
                if self.clean_capacity > 0 && !self.clean.contains_key(blk) {
                    self.admit_clean(*blk, buf.clone());
                }
            }
            out
        }

        fn forget(&mut self, blk: u64) {
            if self.dirty.remove(&blk).is_some() {
                self.dirty_order.retain(|&b| b != blk);
            }
            self.forget_clean(blk);
        }

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

        fn forget_clean(&mut self, blk: u64) {
            if let Some((_, stamp)) = self.clean.remove(&blk) {
                self.clean_lru.remove(&stamp);
            }
        }

        fn cached(&self, blk: u64) -> Option<&Block> {
            match self.dirty.get(&blk) {
                Some(b) => Some(b),
                None => self.clean.get(&blk).map(|(b, _)| &**b),
            }
        }
    }

    const BLOCKS: u64 = 12;

    #[derive(Clone, Debug)]
    enum Op {
        Write(u64, u8),
        /// A read: a hit touches, a miss fills (the file system's path).
        Read(u64, u8),
        /// `stage_mutate` on a block not dirty: read (filling a miss),
        /// then stage a modified copy.
        Mutate(u64, u8),
        TakeDirty,
        Forget(u64),
    }

    fn ops() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0..BLOCKS, any::<u8>()).prop_map(|(b, v)| Op::Write(b, v)),
            4 => (0..BLOCKS, any::<u8>()).prop_map(|(b, v)| Op::Read(b, v)),
            2 => (0..BLOCKS, any::<u8>()).prop_map(|(b, v)| Op::Mutate(b, v)),
            1 => Just(Op::TakeDirty),
            1 => (0..BLOCKS).prop_map(Op::Forget),
        ]
    }

    /// Clean blocks of the reference, least recently used first.
    fn stamp_order(r: &StampCache) -> Vec<u64> {
        r.clean_lru.values().copied().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn page_cache_matches_the_stamp_ordered_reference(
            cap in 0usize..4,
            seq in proptest::collection::vec(ops(), 1..120),
        ) {
            let cap = [0, 1, 3, 8][cap];
            let mut pc = PageCache::new(cap);
            let mut reference = StampCache::new(cap);
            for op in seq {
                match op {
                    Op::Write(b, v) => {
                        pc.write(b, buf(v));
                        reference.write(b, buf(v));
                    }
                    Op::Read(b, v) => {
                        let want = reference.get(b).map(|x| x[0]);
                        if want.is_none() {
                            reference.insert_clean(b, buf(v));
                        }
                        let got = pc.get_or_fill(b, |x| {
                            x.fill(v);
                            Ok::<(), ()>(())
                        });
                        prop_assert_eq!(got.unwrap()[0], want.unwrap_or(v));
                    }
                    Op::Mutate(b, v) => {
                        if reference.dirty.contains_key(&b) {
                            continue;
                        }
                        let mut staged = buf(0);
                        match reference.get(b) {
                            Some(x) => staged.copy_from_slice(x),
                            None => {
                                reference.insert_clean(b, buf(v));
                                staged.copy_from_slice(&buf(v)[..]);
                            }
                        }
                        staged[1] = v;
                        reference.write(b, staged);
                        let mut copy = pc.spare_buf();
                        copy.copy_from_slice(pc.get_or_fill(b, |x| {
                            x.fill(v);
                            Ok::<(), ()>(())
                        }).unwrap());
                        copy[1] = v;
                        pc.write(b, copy);
                    }
                    Op::TakeDirty => {
                        let got: Vec<(u64, Vec<u8>)> =
                            pc.take_dirty().into_iter().map(|(b, x)| (b, x.to_vec())).collect();
                        let want: Vec<(u64, Vec<u8>)> =
                            reference.take_dirty().into_iter().map(|(b, x)| (b, x.to_vec())).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::Forget(b) => {
                        pc.forget(b);
                        reference.forget(b);
                    }
                }
                // Equal recency orders after every step: equal eviction
                // victims, now and at every later admission.
                let order = pc.clean_order();
                prop_assert_eq!(&order, &stamp_order(&reference), "clean LRU order");
                prop_assert!(order.len() <= cap);
                prop_assert_eq!(pc.dirty_len(), reference.dirty.len());
                for b in 0..BLOCKS {
                    prop_assert_eq!(
                        pc.cached(b).map(|x| x.to_vec()),
                        reference.cached(b).map(|x| x.to_vec()),
                        "contents of block {}", b
                    );
                }
            }
        }
    }
}
