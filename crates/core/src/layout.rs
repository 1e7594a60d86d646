//! NVM space layout (Fig. 5 of the paper): header, ring buffer,
//! cache-entry array, data blocks.

use blockdev::BLOCK_SIZE;

/// Magic number identifying a formatted Tinca NVM region ("TINCAv01").
pub(crate) const MAGIC: u64 = 0x5449_4e43_4176_3031;

/// Header field offsets (bytes). `Head` and `Tail` live on their own cache
/// lines so each can be flushed independently with a single `clflush`.
pub(crate) const MAGIC_OFF: usize = 0;
pub(crate) const RING_CAP_OFF: usize = 8;
pub(crate) const ENTRY_COUNT_OFF: usize = 16;
pub(crate) const DATA_BLOCKS_OFF: usize = 24;
/// The **descriptors-armed** word: nonzero once the region may hold
/// multi-writer window descriptors (see [`MW_DESC_OFF`]). It shares line
/// 0 with the geometry, so recovery reads it with the load it already
/// issues, and loads the descriptor table only when it is set.
pub(crate) const MW_ARMED_OFF: usize = 32;
/// The **entry watermark**: every entry slot at or above it is all-zero
/// (invalid), so recovery loads only the slots below it. Format persists
/// it as 0 with the rest of the header and zeroes the whole table; the
/// one entry-allocation path raises it in steps of [`WATERMARK_STEP`]
/// (capped at the entry count) with an 8 B atomic store, a `clflush` and
/// an `sfence`, before the first store to any slot the raise covers. It
/// shares line 0 with the geometry, so recovery reads it with the load it
/// already issues.
pub(crate) const WATERMARK_OFF: usize = 40;
/// Entries one watermark raise covers: 16 lines of the entry table.
pub(crate) const WATERMARK_STEP: u32 = 64;
pub(crate) const HEAD_OFF: usize = 64;
pub(crate) const TAIL_OFF: usize = 128;

/// Byte offset of the pool's **spanning-intent record**: one cache line in
/// the header block, used only on shard 0's device of a multi-shard pool.
/// Formatting persists bytes `0..INTENT_OFF` and never touches this line,
/// so an all-zero line means "no spanning transaction in flight" on both
/// fresh and legacy regions.
pub(crate) const INTENT_OFF: usize = 192;
/// Intent state word: `0` when no intent exists, otherwise
/// `(intent_id << 8) | state` with `state` one of
/// [`INTENT_PREPARED`]/[`INTENT_RESOLVED`]. Published, resolved, and
/// retired with single 8 B atomic stores.
pub(crate) const INTENT_STATE_OFF: usize = INTENT_OFF;
/// Participant shard bitmap (bit `s` set when shard `s` holds a fragment;
/// shards ≥ 64 saturate onto bit 63). Advisory — recovery trusts the
/// per-slot intent tags, not this summary.
pub(crate) const INTENT_SHARDS_OFF: usize = INTENT_OFF + 8;
/// Intent state: every fragment is being prepared; none is visible yet.
/// Recovery must roll tagged fragments **back**.
pub(crate) const INTENT_PREPARED: u64 = 1;
/// Intent state: every fragment is durable; the transaction is committed.
/// Recovery must roll tagged fragments **forward**.
pub(crate) const INTENT_RESOLVED: u64 = 2;

/// Bits of a ring slot holding the disk block number. Disk block numbers
/// are bounded by [`crate::entry::CacheEntry`]'s 56-bit field, so the top
/// byte of the 8 B slot is free to carry a spanning-intent tag.
pub(crate) const SLOT_BLK_MASK: u64 = (1 << 56) - 1;
/// Shift of the intent tag within a ring slot.
pub(crate) const SLOT_TAG_SHIFT: u32 = 56;

/// Encodes a ring slot: the disk block number plus an intent tag in the
/// top byte. Tag `0` (ordinary single-shard commit) stores exactly
/// `disk_blk` — bit-for-bit what the untagged protocol stored.
pub(crate) fn slot_value(disk_blk: u64, tag: u8) -> u64 {
    debug_assert!(disk_blk <= SLOT_BLK_MASK);
    disk_blk | (tag as u64) << SLOT_TAG_SHIFT
}

/// Splits a raw ring-slot value into `(disk_blk, tag)`.
pub fn split_slot(raw: u64) -> (u64, u8) {
    (raw & SLOT_BLK_MASK, (raw >> SLOT_TAG_SHIFT) as u8)
}

/// The slot tag identifying fragments of spanning intent `id`. The high
/// bit is always set so a tag is never `0`; the id's low 7 bits
/// disambiguate the (single) in-flight intent from stale tags of earlier
/// intents that may still sit in committed ring slots.
pub fn intent_tag(intent_id: u64) -> u8 {
    0x80 | (intent_id & 0x7f) as u8
}

/// Byte offset of the **multi-writer window descriptor table**: one cache
/// line per descriptor, used only when the pool runs the lock-free commit
/// path ([`crate::CommitMode::LockFreeRing`]). An all-zero table means "no
/// window in flight". The table is *armed* ([`MW_ARMED_OFF`]) by a
/// ring-mode format or recovery, persisted before any descriptor can be
/// written; nothing but a format clears the word, and a format that finds
/// it set zeroes the table first, so a clear word implies an all-zero
/// table on fresh, re-formatted and mutex-mode regions alike. A
/// descriptor is four 8 B words:
/// the state word, the window's first ring sequence number, its length,
/// and a reserved word written 0. Only single-shard windows have one — a
/// spanning fragment commits on a quiesced shard through the mutex path's
/// protocol and is judged by its slots' intent tags.
pub(crate) const MW_DESC_OFF: usize = 256;
/// Number of window descriptors (bounds in-flight windows per shard).
pub(crate) const MW_WINDOWS: usize = 32;
/// Bytes per descriptor — a full cache line, so concurrent writers never
/// share a line when staging or publishing their own descriptor.
pub(crate) const MW_DESC_BYTES: usize = 64;

/// Descriptor word 0 (the *state word*, published with one 8 B atomic
/// store): `(window ordinal << 8) | state`. An all-zero word is
/// [`MW_FREE`].
pub(crate) const MW_FREE: u64 = 0;
/// State: the window's ring slots are reserved and its entries are being
/// staged; nothing in it is visible to recovery yet.
pub(crate) const MW_RESERVED: u64 = 1;
/// State: the writer finished staging and flushing; the window is durable
/// once the sequencer's fence drains it, and `Head` may advance past it.
pub(crate) const MW_STAGED: u64 = 2;

/// Slot tag marking a **dead** ring slot inside a multi-writer window that
/// failed mid-staging: the slot was reserved but never received a real
/// block number, so roll-forward must skip it (a stale value left from the
/// ring's previous lap could otherwise name another in-flight window's
/// block). The high bit is clear, so a dead tag can never collide with an
/// [`intent_tag`]; it is nonzero, so scrubbing rewrites it like any tag.
pub(crate) const MW_DEAD_TAG: u8 = 0x7f;

/// Byte address of multi-writer descriptor `slot` (`0..MW_WINDOWS`).
pub(crate) fn mw_desc_addr(slot: usize) -> usize {
    debug_assert!(slot < MW_WINDOWS);
    MW_DESC_OFF + slot * MW_DESC_BYTES
}

/// Encodes a descriptor state word from a window ordinal and state.
pub(crate) fn mw_state_word(ordinal: u64, state: u64) -> u64 {
    debug_assert!(state <= MW_STAGED);
    (ordinal << 8) | state
}

/// Splits a descriptor state word into `(ordinal, state)`.
pub(crate) fn mw_split_state(word: u64) -> (u64, u64) {
    (word >> 8, word & 0xff)
}

/// Size reserved for the header.
pub(crate) const HEADER_BYTES: usize = BLOCK_SIZE;

// The intent record must sit inside the persisted header — cache-line
// aligned, after the format prefix (`Tail` is its last word), before the
// ring — so the existing metadata ranges `0..data_off` cover it.
const _: () = assert!(INTENT_OFF.is_multiple_of(64));
const _: () = assert!(INTENT_OFF >= TAIL_OFF + 8);
const _: () = assert!(INTENT_SHARDS_OFF + 8 <= HEADER_BYTES);

// The armed word and the entry watermark share line 0 with the geometry
// words recovery validates, ahead of `Head`'s line.
const _: () = assert!(MW_ARMED_OFF == DATA_BLOCKS_OFF + 8 && MW_ARMED_OFF + 8 <= HEAD_OFF);
const _: () = assert!(WATERMARK_OFF == MW_ARMED_OFF + 8 && WATERMARK_OFF + 8 <= HEAD_OFF);
// A raise covers whole entry-table lines.
const _: () = assert!((WATERMARK_STEP as usize * ENTRY_BYTES).is_multiple_of(64));

// The descriptor table must sit inside the header — cache-line aligned,
// after the intent record's line, one line per descriptor — so the
// existing metadata ranges `0..data_off` cover it and the header persist
// of a format (`0..INTENT_OFF`) never reaches it.
const _: () = assert!(MW_DESC_OFF.is_multiple_of(64));
const _: () = assert!(MW_DESC_OFF >= INTENT_SHARDS_OFF + 8);
const _: () = assert!(MW_DESC_BYTES == 64);
const _: () = assert!(MW_DESC_OFF + MW_WINDOWS * MW_DESC_BYTES <= HEADER_BYTES);

/// Size of one cache entry in bytes (§4.2: 16 B, atomically writable with
/// `LOCK cmpxchg16b`).
pub(crate) const ENTRY_BYTES: usize = 16;

/// Size of one ring-buffer slot (an on-disk block number, 8 B).
pub(crate) const RING_SLOT_BYTES: usize = 8;

/// Computed partitioning of the NVM region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Byte offset of the ring buffer.
    pub ring_off: usize,
    /// Ring capacity in slots (block numbers).
    pub ring_cap: u64,
    /// Byte offset of the cache-entry array.
    pub entries_off: usize,
    /// Number of cache-entry slots (== number of data blocks).
    pub entry_count: u32,
    /// Byte offset of the data-block area (4 KB aligned).
    pub data_off: usize,
    /// Number of 4 KB data blocks.
    pub data_blocks: u32,
}

impl Layout {
    /// Partitions an NVM region of `capacity` bytes with a ring buffer of
    /// (at least) `ring_bytes`. The paper's default ring is 1 MB; the
    /// scaled-down experiments use 64 KB.
    pub(crate) fn compute(capacity: usize, ring_bytes: usize) -> Layout {
        let ring_bytes = ring_bytes.next_multiple_of(BLOCK_SIZE);
        let ring_cap = (ring_bytes / RING_SLOT_BYTES) as u64;
        let fixed = HEADER_BYTES + ring_bytes;
        assert!(
            capacity > fixed + BLOCK_SIZE,
            "NVM region too small: {capacity} bytes"
        );
        let usable = capacity - fixed;
        // Each data block costs 4 KB of data plus 16 B of entry; round the
        // entry area up to a block so the data area stays 4 KB aligned.
        let mut data_blocks = usable / (BLOCK_SIZE + ENTRY_BYTES);
        loop {
            let entry_area = (data_blocks * ENTRY_BYTES).next_multiple_of(BLOCK_SIZE);
            if fixed + entry_area + data_blocks * BLOCK_SIZE <= capacity {
                let entries_off = fixed;
                let data_off = fixed + entry_area;
                return Layout {
                    ring_off: HEADER_BYTES,
                    ring_cap,
                    entries_off,
                    entry_count: data_blocks as u32,
                    data_off,
                    data_blocks: data_blocks as u32,
                };
            }
            data_blocks -= 1;
        }
    }

    /// Byte address of ring slot for sequence number `seq`.
    pub fn ring_slot_addr(&self, seq: u64) -> usize {
        self.ring_off + (seq % self.ring_cap) as usize * RING_SLOT_BYTES
    }

    /// Byte address of cache entry `idx`.
    pub(crate) fn entry_addr(&self, idx: u32) -> usize {
        debug_assert!(idx < self.entry_count);
        self.entries_off + idx as usize * ENTRY_BYTES
    }

    /// Byte address of NVM data block `blk`.
    pub fn data_addr(&self, blk: u32) -> usize {
        debug_assert!(
            blk < self.data_blocks,
            "NVM block {blk} >= {}",
            self.data_blocks
        );
        self.data_off + blk as usize * BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fits_capacity() {
        for cap in [1 << 20, 16 << 20, 128 << 20] {
            let l = Layout::compute(cap, 64 << 10);
            let total = l.data_off + l.data_blocks as usize * BLOCK_SIZE;
            assert!(total <= cap, "{l:?} exceeds {cap}");
            assert!(l.data_blocks > 0);
            assert_eq!(l.data_off % BLOCK_SIZE, 0);
            assert_eq!(l.entries_off % BLOCK_SIZE, 0);
        }
    }

    #[test]
    fn entry_overhead_is_small() {
        // §4.2: an 8 GB cache needs 32 MB of entries — 0.4 % of capacity.
        let l = Layout::compute(128 << 20, 64 << 10);
        let entry_bytes = l.entry_count as usize * ENTRY_BYTES;
        let frac = entry_bytes as f64 / (128 << 20) as f64;
        assert!(frac < 0.005, "entry overhead {frac} should be < 0.5 %");
    }

    #[test]
    fn ring_wraps() {
        let l = Layout::compute(1 << 20, 4096);
        let cap = l.ring_cap;
        assert_eq!(l.ring_slot_addr(0), l.ring_slot_addr(cap));
        assert_ne!(l.ring_slot_addr(0), l.ring_slot_addr(1));
    }

    #[test]
    fn addresses_do_not_overlap() {
        let l = Layout::compute(4 << 20, 8192);
        assert!(l.ring_off >= HEADER_BYTES);
        assert!(l.entries_off >= l.ring_off + l.ring_cap as usize * RING_SLOT_BYTES);
        assert!(l.data_off >= l.entries_off + l.entry_count as usize * ENTRY_BYTES);
    }

    #[test]
    fn entry_addresses_are_16_aligned() {
        let l = Layout::compute(4 << 20, 8192);
        for idx in [0u32, 1, 5, l.entry_count - 1] {
            assert_eq!(l.entry_addr(idx) % 16, 0);
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_region_rejected() {
        let _ = Layout::compute(8192, 4096);
    }

    #[test]
    fn untagged_slots_store_the_bare_block_number() {
        for blk in [0u64, 1, 96, SLOT_BLK_MASK] {
            assert_eq!(slot_value(blk, 0), blk);
            assert_eq!(split_slot(blk), (blk, 0));
        }
    }

    #[test]
    fn mw_descriptor_words_round_trip() {
        for ordinal in [0u64, 1, 31, 1 << 40] {
            for state in [MW_FREE, MW_RESERVED, MW_STAGED] {
                assert_eq!(
                    mw_split_state(mw_state_word(ordinal, state)),
                    (ordinal, state)
                );
            }
        }
        // The all-zero header a fresh format leaves behind decodes FREE.
        assert_eq!(mw_split_state(0), (0, MW_FREE));
        // Descriptors are line-disjoint from each other and the intent line.
        for s in 0..MW_WINDOWS {
            assert_eq!(mw_desc_addr(s) % 64, 0);
            assert!(mw_desc_addr(s) >= INTENT_SHARDS_OFF + 8);
            assert!(mw_desc_addr(s) + MW_DESC_BYTES <= HEADER_BYTES);
        }
    }

    #[test]
    fn tagged_slots_round_trip() {
        for id in [0u64, 1, 7, 127, 128, 1 << 40] {
            let tag = intent_tag(id);
            assert_ne!(tag, 0, "intent tags must be distinguishable from none");
            for blk in [0u64, 5, SLOT_BLK_MASK] {
                assert_eq!(split_slot(slot_value(blk, tag)), (blk, tag));
            }
        }
    }
}
