//! Cache-line bookkeeping for the volatile overlay.

/// Size of a CPU cache line in bytes (the paper's platform: 64 B).
pub const CACHE_LINE: usize = 64;
/// Failure-atomicity unit of a plain store, in bytes.
pub const WORD_SIZE: usize = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = CACHE_LINE / WORD_SIZE;

/// One slot of the volatile overlay ("the CPU cache"): which line it holds
/// and what state that copy is in. The slot's bytes live in a parallel
/// slab, so staging and write-back move no bytes with the bookkeeping.
///
/// `dirty` is a bitmask over the line's eight 8-byte words; a set bit means
/// the word differs (or may differ) from the persistent image. `pair_lead`
/// marks words that are the *leading* half of a 16-byte atomic store — on a
/// crash such a word and its successor persist all-or-nothing.
///
/// `staged` means a run of the open fence epoch reads the slot's bytes, so
/// no store may overwrite them: a store moves the line to a fresh slot
/// (copy-on-write) and leaves this one an `orphan`, which only the epoch
/// still reads and the next fence or crash drops. Staging clears `dirty`,
/// so a staged or orphaned slot is always clean.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) line: u32,
    pub(crate) dirty: u8,
    pub(crate) pair_lead: u8,
    pub(crate) staged: bool,
    pub(crate) orphan: bool,
}

impl Slot {
    /// A clean copy of `line`, as first read in from the persistent image.
    pub(crate) fn clean(line: usize) -> Self {
        Self {
            line: line as u32,
            dirty: 0,
            pair_lead: 0,
            staged: false,
            orphan: false,
        }
    }

    /// `line` after a plain store over all of it: every word dirty, no
    /// atomic pair left.
    pub(crate) fn whole(line: usize) -> Self {
        Self {
            dirty: u8::MAX,
            ..Self::clean(line)
        }
    }

    /// Marks words `[first, last]` dirty and clears any atomic pairing that
    /// overlaps them (a later plain store breaks 16-byte atomicity).
    pub(crate) fn mark_dirty_words(&mut self, first: usize, last: usize) {
        debug_assert!(first <= last && last < WORDS_PER_LINE);
        let words = (u8::MAX >> (WORDS_PER_LINE - 1 - last)) & (u8::MAX << first);
        self.dirty |= words;
        // A pair dissolves when either half is overwritten: clear the lead
        // bit of every touched word and of the word before it.
        self.pair_lead &= !(words | (words >> 1));
    }

    /// Marks word `w` and `w + 1` as one 16-byte atomic unit.
    pub(crate) fn mark_atomic_pair(&mut self, w: usize) {
        debug_assert!(w + 1 < WORDS_PER_LINE);
        self.dirty |= (1 << w) | (1 << (w + 1));
        self.pair_lead |= 1 << w;
        // The trailing word cannot itself lead a pair.
        self.pair_lead &= !(1u8 << (w + 1));
    }
}

/// A run of the open fence epoch: lines `line .. line + len`, staged from
/// overlay slots `slot .. slot + len`, each with the word masks `dirty`
/// and `pair_lead`. A run of more than one line is one `clflush` over
/// lines held whole-dirty, without an atomic pair, in consecutive slots,
/// so one copy writes it back.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    pub(crate) line: usize,
    pub(crate) slot: usize,
    pub(crate) len: usize,
    pub(crate) dirty: u8,
    pub(crate) pair_lead: u8,
}

/// A whole-line run as one store left it: lines `line .. line + len`
/// (more than one), fresh to the overlay, became the live copies in
/// consecutive slots `slot .. slot + len`, each [`Slot::whole`]. The
/// record lives while nothing else has changed those slots, so a
/// `clflush` over exactly these lines stages them as one [`Run`] without
/// reading the slots or the line index again.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Appended {
    pub(crate) line: usize,
    pub(crate) slot: usize,
    pub(crate) len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_store_breaks_pair() {
        let mut l = Slot::clean(0);
        l.mark_atomic_pair(2);
        assert_eq!(l.pair_lead, 1 << 2);
        assert_eq!(l.dirty, (1 << 2) | (1 << 3));
        // Overwrite the trailing half with a plain store.
        l.mark_dirty_words(3, 3);
        assert_eq!(l.pair_lead, 0, "pair must be dissolved");
    }

    #[test]
    fn plain_store_on_lead_breaks_pair() {
        let mut l = Slot::clean(0);
        l.mark_atomic_pair(4);
        l.mark_dirty_words(4, 4);
        assert_eq!(l.pair_lead, 0);
    }

    #[test]
    fn dirty_mask_accumulates() {
        let mut l = Slot::clean(0);
        l.mark_dirty_words(0, 1);
        l.mark_dirty_words(7, 7);
        assert_eq!(l.dirty, 0b1000_0011);
    }

    #[test]
    fn pair_of_pairs_keeps_each_lead() {
        let mut l = Slot::clean(0);
        l.mark_atomic_pair(0);
        l.mark_atomic_pair(2);
        assert_eq!(l.pair_lead, 0b0101);
        assert_eq!(l.dirty, 0b1111);
    }

    #[test]
    fn repeat_atomic_pair_is_idempotent() {
        let mut l = Slot::clean(0);
        l.mark_atomic_pair(6);
        l.mark_atomic_pair(6);
        assert_eq!(l.pair_lead, 1 << 6);
    }
}
