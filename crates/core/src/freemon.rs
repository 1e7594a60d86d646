//! The free block monitor (§4.6): DRAM-only tracking of unused NVM blocks.

/// Tracks free NVM data blocks (and, reused for entry slots, free cache
/// entries). DRAM-only; reconstructed on startup/recovery by scanning the
/// persistent cache entries.
#[derive(Clone, Debug)]
pub(crate) struct FreeMonitor {
    free: Vec<u32>,
    is_free: Vec<bool>,
}

impl FreeMonitor {
    /// All of `0..count` start free.
    pub(crate) fn new_all_free(count: u32) -> Self {
        Self {
            free: (0..count).rev().collect(),
            is_free: vec![true; count as usize],
        }
    }

    /// Starts with everything allocated; used by recovery which then
    /// [`Self::release`]s unreferenced blocks.
    pub(crate) fn new_all_used(count: u32) -> Self {
        Self {
            free: Vec::new(),
            is_free: vec![false; count as usize],
        }
    }

    /// Takes a free block, if any.
    pub(crate) fn allocate(&mut self) -> Option<u32> {
        let b = self.free.pop()?;
        self.is_free[b as usize] = false;
        Some(b)
    }

    /// Returns a block to the free pool. Panics on double free.
    pub(crate) fn release(&mut self, b: u32) {
        assert!(!self.is_free[b as usize], "double free of block {b}");
        self.is_free[b as usize] = true;
        self.free.push(b);
    }

    pub(crate) fn free_count(&self) -> usize {
        self.free.len()
    }

    pub(crate) fn is_free(&self, b: u32) -> bool {
        self.is_free[b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_exhausted() {
        let mut m = FreeMonitor::new_all_free(3);
        let mut got = vec![];
        while let Some(b) = m.allocate() {
            got.push(b);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(m.free_count(), 0);
    }

    #[test]
    fn release_recycles() {
        let mut m = FreeMonitor::new_all_free(2);
        let a = m.allocate().unwrap();
        let _b = m.allocate().unwrap();
        m.release(a);
        assert_eq!(m.allocate(), Some(a));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = FreeMonitor::new_all_free(2);
        let a = m.allocate().unwrap();
        m.release(a);
        m.release(a);
    }

    #[test]
    fn all_used_start() {
        let mut m = FreeMonitor::new_all_used(4);
        assert_eq!(m.allocate(), None);
        m.release(2);
        assert!(m.is_free(2));
        assert_eq!(m.allocate(), Some(2));
    }
}
