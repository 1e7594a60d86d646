//! The shadow reserve behind [`crate::TincaConfig::delta_stage`]
//! (DESIGN.md, "Delta staging").
//!
//! After a commit point the block a write hit replaced (`prev`, version
//! k−1 of its disk block) is normally freed. With delta staging it is
//! parked here instead, keyed by the entry that owned it, so the entry's
//! next write hit can rewrite it in place and flush only the lines that
//! differ. Every line of a reserved block is durable — it was a committed
//! `cur` — and nobody stores to it while it is parked.
//!
//! DRAM-only and advisory: to recovery a reserved block is a free block,
//! and what a delta-staged commit skips is decided by comparing the
//! block's real content, never by trusting this map.

use crate::freemon::FreeMonitor;
use crate::lru::LruList;

const NONE: u32 = u32::MAX;

/// Entry → reserved block, LRU over entries by last write.
pub(crate) struct ShadowReserve {
    /// Most blocks the reserve may hold (`0`: delta staging is off).
    cap: usize,
    /// Entry index → its reserved block ([`NONE`]: no shadow).
    of_entry: Vec<u32>,
    /// Entries that own a shadow, least recently written at the LRU end.
    order: LruList,
}

impl ShadowReserve {
    /// A reserve of at most `cap` blocks over `entry_count` entries;
    /// `cap == 0` builds the disabled (allocation-free) reserve.
    pub(crate) fn new(entry_count: u32, cap: usize) -> Self {
        let slots = if cap == 0 { 0 } else { entry_count };
        ShadowReserve {
            cap,
            of_entry: vec![NONE; slots as usize],
            order: LruList::new(slots),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cap != 0
    }

    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Blocks currently reserved.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Removes and returns entry `idx`'s shadow. The caller owns the
    /// block from here on: it becomes a copy-on-write target or goes to
    /// the free list.
    pub(crate) fn take(&mut self, idx: u32) -> Option<u32> {
        let slot = self.of_entry.get_mut(idx as usize)?;
        if *slot == NONE {
            return None;
        }
        self.order.remove(idx);
        Some(std::mem::replace(slot, NONE))
    }

    /// Sends entry `idx`'s shadow, if it holds one, to the free list.
    pub(crate) fn release(&mut self, idx: u32, free: &mut FreeMonitor) {
        if let Some(b) = self.take(idx) {
            free.release(b);
        }
    }

    /// Parks `blk`, the block entry `idx` just stopped referencing, as
    /// the entry's shadow (most recently written). A shadow the entry
    /// still held and, past the cap, the least recently written entry's
    /// shadow go to `free` — as does `blk` itself when the reserve is
    /// disabled.
    pub(crate) fn park(&mut self, idx: u32, blk: u32, free: &mut FreeMonitor) {
        if !self.enabled() {
            free.release(blk);
            return;
        }
        self.release(idx, free);
        self.of_entry[idx as usize] = blk;
        self.order.push_mru(idx);
        if self.order.len() > self.cap {
            if let Some(b) = self.pop_lru() {
                free.release(b);
            }
        }
    }

    /// Gives up the least recently written entry's shadow (allocation's
    /// last resort, and the cap's overflow).
    pub(crate) fn pop_lru(&mut self) -> Option<u32> {
        let idx = self.order.lru()?;
        self.take(idx)
    }

    /// `(entry, reserved block)` pairs, least recently written first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.order
            .iter_lru()
            .map(|idx| (idx, self.of_entry[idx as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reserve_holds_nothing() {
        let mut r = ShadowReserve::new(8, 0);
        assert!(!r.enabled());
        assert_eq!(r.take(3), None);
        assert_eq!(r.pop_lru(), None);
        // Parking with the reserve off is freeing.
        let mut free = FreeMonitor::new_all_used(8);
        r.park(3, 5, &mut free);
        assert!(free.is_free(5));
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn cap_overflow_frees_the_least_recently_written() {
        let mut free = FreeMonitor::new_all_used(16);
        let mut r = ShadowReserve::new(8, 2);
        r.park(0, 10, &mut free);
        r.park(1, 11, &mut free);
        r.park(2, 12, &mut free);
        assert_eq!(r.len(), 2);
        assert!(free.is_free(10), "entry 0 was written longest ago");
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(1, 11), (2, 12)]);
        // A second shadow for one entry displaces its first.
        r.park(1, 13, &mut free);
        assert!(free.is_free(11));
        assert_eq!(r.take(1), Some(13));
        assert_eq!(r.take(1), None);
        assert_eq!(r.pop_lru(), Some(12));
        assert_eq!(r.len(), 0);
    }
}
