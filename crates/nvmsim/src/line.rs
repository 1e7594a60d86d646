//! Cache-line bookkeeping for the volatile overlay.

/// Size of a CPU cache line in bytes (the paper's platform: 64 B).
pub const CACHE_LINE: usize = 64;
/// Failure-atomicity unit of a plain store, in bytes.
pub const WORD_SIZE: usize = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = CACHE_LINE / WORD_SIZE;

/// One cache line held in the volatile overlay ("in the CPU cache").
///
/// `dirty` is a bitmask over the line's eight 8-byte words; a set bit means
/// the word differs (or may differ) from the persistent image. `pair_lead`
/// marks words that are the *leading* half of a 16-byte atomic store — on a
/// crash such a word and its successor persist all-or-nothing.
#[derive(Clone, Debug)]
pub struct LineBuf {
    pub data: [u8; CACHE_LINE],
    pub dirty: u8,
    pub pair_lead: u8,
}

impl LineBuf {
    /// A clean line initialised from the persistent image.
    pub fn clean(data: [u8; CACHE_LINE]) -> Self {
        Self {
            data,
            dirty: 0,
            pair_lead: 0,
        }
    }

    /// Marks words `[first, last]` dirty and clears any atomic pairing that
    /// overlaps them (a later plain store breaks 16-byte atomicity).
    pub fn mark_dirty_words(&mut self, first: usize, last: usize) {
        debug_assert!(first <= last && last < WORDS_PER_LINE);
        let words = (u8::MAX >> (WORDS_PER_LINE - 1 - last)) & (u8::MAX << first);
        self.dirty |= words;
        // A pair dissolves when either half is overwritten: clear the lead
        // bit of every touched word and of the word before it.
        self.pair_lead &= !(words | (words >> 1));
    }

    /// Marks word `w` and `w + 1` as one 16-byte atomic unit.
    pub fn mark_atomic_pair(&mut self, w: usize) {
        debug_assert!(w + 1 < WORDS_PER_LINE);
        self.dirty |= (1 << w) | (1 << (w + 1));
        self.pair_lead |= 1 << w;
        // The trailing word cannot itself lead a pair.
        self.pair_lead &= !(1u8 << (w + 1));
    }

    /// True if no word differs from the persistent image.
    pub fn is_clean(&self) -> bool {
        self.dirty == 0
    }
}

/// A snapshot of a line taken at `clflush` time; it persists (possibly
/// partially, at word granularity) when the crash model decides so, or
/// fully at the next `sfence`.
#[derive(Clone, Debug)]
pub struct FlushRecord {
    pub line: usize,
    pub data: [u8; CACHE_LINE],
    pub dirty: u8,
    pub pair_lead: u8,
}

impl FlushRecord {
    /// Snapshots the dirty state of `lb` (cache line `line`) and leaves the
    /// overlay copy clean, as a write-back does.
    pub fn take(line: usize, lb: &mut LineBuf) -> Self {
        let rec = FlushRecord {
            line,
            data: lb.data,
            dirty: lb.dirty,
            pair_lead: lb.pair_lead,
        };
        lb.dirty = 0;
        lb.pair_lead = 0;
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_store_breaks_pair() {
        let mut l = LineBuf::clean([0; CACHE_LINE]);
        l.mark_atomic_pair(2);
        assert_eq!(l.pair_lead, 1 << 2);
        assert_eq!(l.dirty, (1 << 2) | (1 << 3));
        // Overwrite the trailing half with a plain store.
        l.mark_dirty_words(3, 3);
        assert_eq!(l.pair_lead, 0, "pair must be dissolved");
    }

    #[test]
    fn plain_store_on_lead_breaks_pair() {
        let mut l = LineBuf::clean([0; CACHE_LINE]);
        l.mark_atomic_pair(4);
        l.mark_dirty_words(4, 4);
        assert_eq!(l.pair_lead, 0);
    }

    #[test]
    fn dirty_mask_accumulates() {
        let mut l = LineBuf::clean([0; CACHE_LINE]);
        l.mark_dirty_words(0, 1);
        l.mark_dirty_words(7, 7);
        assert_eq!(l.dirty, 0b1000_0011);
        assert!(!l.is_clean());
    }

    #[test]
    fn pair_of_pairs_keeps_each_lead() {
        let mut l = LineBuf::clean([0; CACHE_LINE]);
        l.mark_atomic_pair(0);
        l.mark_atomic_pair(2);
        assert_eq!(l.pair_lead, 0b0101);
        assert_eq!(l.dirty, 0b1111);
    }

    #[test]
    fn repeat_atomic_pair_is_idempotent() {
        let mut l = LineBuf::clean([0; CACHE_LINE]);
        l.mark_atomic_pair(6);
        l.mark_atomic_pair(6);
        assert_eq!(l.pair_lead, 1 << 6);
    }
}
