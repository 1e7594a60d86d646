//! Dense DRAM sets of cache-entry indices (§4.6).

/// A set over entry indices `0..capacity`: one flag per entry plus a live
/// count. Membership is one indexed load, so the LRU walks that test every
/// candidate (victim search, destage harvest) hash nothing.
#[derive(Clone, Debug)]
pub(crate) struct EntrySet {
    flags: Vec<bool>,
    len: usize,
}

impl EntrySet {
    /// An empty set able to hold indices `0..capacity`.
    pub(crate) fn new(capacity: u32) -> Self {
        Self {
            flags: vec![false; capacity as usize],
            len: 0,
        }
    }

    pub(crate) fn contains(&self, idx: u32) -> bool {
        self.flags[idx as usize]
    }

    /// Adds `idx`; returns true if it was absent.
    pub(crate) fn insert(&mut self, idx: u32) -> bool {
        let flag = &mut self.flags[idx as usize];
        let added = !*flag;
        *flag = true;
        self.len += usize::from(added);
        added
    }

    /// Removes `idx`, if present.
    pub(crate) fn remove(&mut self, idx: u32) {
        let flag = &mut self.flags[idx as usize];
        self.len -= usize::from(*flag);
        *flag = false;
    }

    /// The live count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The indices whose flag is set, ascending. O(capacity): for audits,
    /// which compare it against [`len`](Self::len).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(&self.flags)
            .filter_map(|(idx, &set)| set.then_some(idx))
    }

    /// Sets `idx`'s flag without counting it: a stray flag, for the
    /// negative tests of the audits.
    #[cfg(test)]
    pub(crate) fn plant(&mut self, idx: u32) {
        self.flags[idx as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_keep_the_count() {
        let mut s = EntrySet::new(8);
        assert!(s.insert(3));
        assert!(!s.insert(3), "second insert is a no-op");
        assert!(s.insert(7));
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && !s.contains(4));
        s.remove(3);
        s.remove(3);
        assert_eq!(s.len(), 1, "second remove is a no-op");
        assert_eq!(s.iter().collect::<Vec<_>>(), [7]);
    }

    #[test]
    fn a_planted_flag_is_not_counted() {
        let mut s = EntrySet::new(4);
        s.insert(1);
        s.plant(2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().count(), 2);
    }
}
