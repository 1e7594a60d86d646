//! Intrusive LRU list over cache-entry indices (§4.6).
//!
//! The paper keeps the LRU list in DRAM ("these structures are not needed
//! to be persistently stored in NVM as they can be reconstructed on the
//! startup of system"). We use index-based intrusive links — no per-node
//! allocation on the hot path.

const NIL: u32 = u32::MAX;

/// A doubly-linked LRU list over `0..capacity` entry indices.
///
/// `head` is the MRU end, `tail` the LRU end. All operations are O(1);
/// iteration from the LRU end is used for victim selection.
#[derive(Clone, Debug)]
pub(crate) struct LruList {
    prev: Vec<u32>, // towards MRU
    next: Vec<u32>, // towards LRU
    linked: Vec<bool>,
    head: u32,
    tail: u32,
    len: usize,
    /// A caller's bookmark into the list ([`Self::iter_from_mark`]), or
    /// `NIL`. Removing the marked index moves the mark one step towards
    /// MRU (clearing it at the MRU end), so every index on its LRU side
    /// was already there when the caller set it.
    mark: u32,
}

impl LruList {
    /// Creates an empty list able to hold indices `0..capacity`.
    pub(crate) fn new(capacity: u32) -> Self {
        Self {
            prev: vec![NIL; capacity as usize],
            next: vec![NIL; capacity as usize],
            linked: vec![false; capacity as usize],
            head: NIL,
            tail: NIL,
            len: 0,
            mark: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, idx: u32) -> bool {
        self.linked[idx as usize]
    }

    /// Inserts `idx` at the MRU end. Panics if already present.
    pub(crate) fn push_mru(&mut self, idx: u32) {
        assert!(
            !self.linked[idx as usize],
            "index {idx} already in LRU list"
        );
        let i = idx as usize;
        self.prev[i] = NIL;
        self.next[i] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
        self.linked[i] = true;
        self.len += 1;
    }

    /// Removes `idx` from the list. Panics if absent.
    pub(crate) fn remove(&mut self, idx: u32) {
        assert!(self.linked[idx as usize], "index {idx} not in LRU list");
        let i = idx as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        if self.mark == idx {
            self.mark = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
        self.linked[i] = false;
        self.len -= 1;
    }

    /// Moves `idx` to the MRU end (a cache hit).
    pub(crate) fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.remove(idx);
        self.push_mru(idx);
    }

    /// The current LRU-end index, if any.
    pub(crate) fn lru(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Iterates indices from LRU to MRU (victim-selection order).
    pub(crate) fn iter_lru(&self) -> LruIter<'_> {
        LruIter {
            list: self,
            cur: self.tail,
        }
    }

    /// Marks `idx` (in the list), or clears the mark (`None`).
    pub(crate) fn set_mark(&mut self, idx: Option<u32>) {
        debug_assert!(idx.is_none_or(|i| self.contains(i)));
        self.mark = idx.unwrap_or(NIL);
    }

    /// Iterates from the mark towards MRU, or from the LRU end when no
    /// mark is set.
    pub(crate) fn iter_from_mark(&self) -> LruIter<'_> {
        LruIter {
            list: self,
            cur: if self.mark == NIL {
                self.tail
            } else {
                self.mark
            },
        }
    }

    /// The indices on the LRU side of the mark, LRU first (none when no
    /// mark is set).
    pub(crate) fn before_mark(&self) -> impl Iterator<Item = u32> + '_ {
        let mark = self.mark;
        self.iter_lru()
            .take_while(move |&idx| mark != NIL && idx != mark)
    }
}

/// Iterator over an [`LruList`] from the LRU end towards MRU.
pub(crate) struct LruIter<'a> {
    list: &'a LruList,
    cur: u32,
}

impl Iterator for LruIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let idx = self.cur;
        self.cur = self.list.prev[idx as usize];
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_order() {
        let mut l = LruList::new(8);
        l.push_mru(1);
        l.push_mru(2);
        l.push_mru(3);
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(l.lru(), Some(1));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut l = LruList::new(8);
        for i in 0..4 {
            l.push_mru(i);
        }
        l.touch(0);
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        assert_eq!(l.lru(), Some(1));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new(4);
        l.push_mru(1);
        l.push_mru(2);
        l.touch(2);
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn remove_middle_head_tail() {
        let mut l = LruList::new(8);
        for i in 0..5 {
            l.push_mru(i);
        }
        l.remove(2); // middle
        l.remove(4); // head (MRU)
        l.remove(0); // tail (LRU)
        assert_eq!(l.iter_lru().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!l.contains(2));
        assert!(l.contains(3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn removing_the_marked_index_moves_the_mark_towards_mru() {
        let mut l = LruList::new(8);
        for i in 0..5 {
            l.push_mru(i);
        }
        assert_eq!(l.iter_from_mark().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        l.set_mark(Some(2));
        assert_eq!(l.iter_from_mark().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(l.before_mark().collect::<Vec<_>>(), [0, 1]);
        l.remove(2);
        assert_eq!(l.iter_from_mark().collect::<Vec<_>>(), [3, 4]);
        l.touch(3);
        assert_eq!(l.iter_from_mark().collect::<Vec<_>>(), [4, 3]);
        assert_eq!(l.before_mark().collect::<Vec<_>>(), [0, 1]);
        // Removing the marked MRU end clears the mark.
        l.remove(3);
        l.remove(4);
        assert_eq!(l.before_mark().count(), 0);
        assert_eq!(l.iter_from_mark().collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn remove_last_element_empties() {
        let mut l = LruList::new(2);
        l.push_mru(0);
        l.remove(0);
        assert_eq!(l.len(), 0);
        assert_eq!(l.lru(), None);
        // reuse after emptying works
        l.push_mru(1);
        assert_eq!(l.lru(), Some(1));
    }

    #[test]
    #[should_panic(expected = "already in LRU")]
    fn double_push_panics() {
        let mut l = LruList::new(2);
        l.push_mru(0);
        l.push_mru(0);
    }

    #[test]
    #[should_panic(expected = "not in LRU")]
    fn remove_absent_panics() {
        let mut l = LruList::new(2);
        l.remove(1);
    }

    #[test]
    fn stress_against_reference_model() {
        use std::collections::VecDeque;
        let mut l = LruList::new(64);
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..10_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (x >> 33) as u32 % 64;
            match step % 3 {
                0 => {
                    if !l.contains(idx) {
                        l.push_mru(idx);
                        model.push_front(idx);
                    }
                }
                1 => {
                    if l.contains(idx) {
                        l.touch(idx);
                        model.retain(|&v| v != idx);
                        model.push_front(idx);
                    }
                }
                _ => {
                    if l.contains(idx) {
                        l.remove(idx);
                        model.retain(|&v| v != idx);
                    }
                }
            }
            assert_eq!(l.len(), model.len());
        }
        let got: Vec<u32> = l.iter_lru().collect();
        let want: Vec<u32> = model.iter().rev().copied().collect();
        assert_eq!(got, want);
    }
}
