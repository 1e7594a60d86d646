//! Fixed-size B-tree pages, and the cached view that edits them in place.
//!
//! Every kvdb page is one 4 KB block (the unit both personalities commit:
//! a Tinca transaction block, or a WAL page image). A page starts with a
//! 24-byte header:
//!
//! ```text
//! [0..4)   magic  "KVPG"
//! [4]      kind   0 = meta, 1 = branch, 2 = leaf
//! [5]      pad    0
//! [6..8)   nkeys  u16 LE (leaf/branch entry count; 0 for meta)
//! [8..16)  lsn    u64 LE (sequence of the commit that wrote this image)
//! [16..20) crc    CRC-32 (IEEE) over the whole page with this field zeroed
//! [20..24) extra  reserved, 0
//! ```
//!
//! Bodies are packed little-endian records, and every byte past the body
//! is zero:
//!
//! * **leaf** — `nkeys` × `[klen u8][vlen u16][key][val]`, keys strictly
//!   ascending;
//! * **branch** — `[first_child u32]` then `nkeys` ×
//!   `[klen u8][child u32][key]`: `first_child` holds keys `< key₀`,
//!   `childᵢ` holds keys `≥ keyᵢ` and `< keyᵢ₊₁`;
//! * **meta** (page 0) — `[root u32][page_count u32][free_len u32]` then
//!   `free_len` × `[u32]` free page ids.
//!
//! LSN rule: every page of one commit carries that commit's sequence, and
//! a page is never re-stamped below the LSN it carried. The meta page is
//! only rewritten when it changes, so after a reopen its LSN can trail the
//! newest leaf's; [`crate::Db`] therefore resumes the sequence from the
//! highest LSN it has loaded, not from the meta page's alone.
//!
//! **The view.** A cached node is a `Page`: the page's bytes plus a
//! DRAM-only slot index holding each record's offset and the 16-byte
//! big-endian head of its key. Search compares heads as integers and whole
//! keys only when two heads are equal. A head is 16 bytes, not 8, because
//! TPC-C's 13-byte record keys (warehouse, table, row) share their first 8
//! bytes across a leaf. Edits work on the bytes: a same-length value update
//! is a copy, an insert or a delete shifts the body's tail inside the page
//! and zeroes what it vacates, and a split copies the byte-midpoint half to
//! a new page. So the bytes are at every moment the node's one canonical
//! image: records packed after the header, zeros after the body.
//!
//! **The incremental seal.** CRC-32 is affine over GF(2): for two pages of
//! one length, `crc(new) = crc(old) ⊕ L(old ⊕ new)`, `L` being the register
//! run from 0. A difference inside line `j` adds that line's register,
//! advanced through the `63 − j` zero lines after it by one precomputed
//! 32 × 32 matrix (`LINE_SHIFT`). So a page saves each line's bytes the
//! first time it writes to it, and `Page::seal` stamps the LSN (line 0)
//! and folds only those lines into the CRC the page already carries. A page
//! built here, or one that wrote more than half its lines (an insert near
//! the front of a full leaf, a split), takes the full `crc32_page`; a
//! page read from the store was checked in full by [`check_seal`].
//!
//! Loading validates magic, kind, CRC, bounds, and key order, so a torn or
//! stale page surfaces as [`PageError`] — the crash oracles treat any load
//! failure on a reachable page as a torn-page violation.

use std::fmt;
use std::ops::Range;

/// Page size — one cache/disk block.
pub const PAGE_SIZE: usize = blockdev::BLOCK_SIZE;
/// Header bytes before the body.
const HEADER_LEN: usize = 24;
/// Longest encodable key.
pub const MAX_KEY: usize = 64;
/// Longest encodable value.
pub const MAX_VAL: usize = 1024;

const MAGIC: [u8; 4] = *b"KVPG";
const CRC_OFF: usize = 16;
const META: u8 = 0;
const BRANCH: u8 = 1;
const LEAF: u8 = 2;
/// The seal's unit: one CPU cache line.
const LINE: usize = nvmsim::CACHE_LINE;
const LINES: usize = PAGE_SIZE / LINE;

/// Why a page failed to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageError {
    BadMagic,
    BadKind(u8),
    BadCrc { stored: u32, computed: u32 },
    Truncated,
    KeysOutOfOrder,
    Oversized,
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::BadMagic => write!(f, "bad page magic"),
            PageError::BadKind(k) => write!(f, "unknown page kind {k}"),
            PageError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            PageError::Truncated => write!(f, "record runs past the page end"),
            PageError::KeysOutOfOrder => write!(f, "keys not strictly ascending"),
            PageError::Oversized => write!(f, "encoded page exceeds {PAGE_SIZE} bytes"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing-by-16 tables derived from [`CRC_TABLE`]: `CRC_SLICES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, so sixteen input
/// bytes fold into the state with sixteen independent lookups instead of a
/// chain of sixteen dependent ones. A `static`: an unoptimised build copies
/// a `const` array at every index, here 16 KB per lookup.
static CRC_SLICES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    t[0] = CRC_TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = CRC_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// The byte-at-a-time step: the reference for the sliced loop in tests and
/// the tail of every buffer.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One slicing-by-16 step: folds the 16 bytes `ch` into the state `c`.
#[inline(always)]
fn fold16(c: u32, ch: &[u8; 16]) -> u32 {
    let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
    CRC_SLICES[15][(lo & 0xFF) as usize]
        ^ CRC_SLICES[14][((lo >> 8) & 0xFF) as usize]
        ^ CRC_SLICES[13][((lo >> 16) & 0xFF) as usize]
        ^ CRC_SLICES[12][(lo >> 24) as usize]
        ^ CRC_SLICES[11][ch[4] as usize]
        ^ CRC_SLICES[10][ch[5] as usize]
        ^ CRC_SLICES[9][ch[6] as usize]
        ^ CRC_SLICES[8][ch[7] as usize]
        ^ CRC_SLICES[7][ch[8] as usize]
        ^ CRC_SLICES[6][ch[9] as usize]
        ^ CRC_SLICES[5][ch[10] as usize]
        ^ CRC_SLICES[4][ch[11] as usize]
        ^ CRC_SLICES[3][ch[12] as usize]
        ^ CRC_SLICES[2][ch[13] as usize]
        ^ CRC_SLICES[1][ch[14] as usize]
        ^ CRC_SLICES[0][ch[15] as usize]
}

/// Folds `bytes` into the running CRC state `c` (the raw register: start
/// from `!0`, invert once at the end). Streaming, so a caller can feed a
/// buffer in segments.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<16>();
    for ch in chunks {
        c = fold16(c, ch);
    }
    crc32_bytewise(c, tail)
}

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

const HALF_PAGE: usize = PAGE_SIZE / 2;

/// `LINE_SHIFT[n]` is the CRC register's advance through `n` lines of zero
/// bytes, as a 32 × 32 bit matrix: column `i` is where state bit `i` ends
/// up. The register update is linear over GF(2), so a state advances as the
/// XOR of its set bits' columns ([`shift`]). A `static`, as [`CRC_SLICES`].
static LINE_SHIFT: [[u32; 32]; LINES] = {
    let mut m = [[0u32; 32]; LINES];
    let mut k = 0;
    while k < LINES {
        let mut i = 0;
        while i < 32 {
            // Matrix 0 is the identity; matrix k advances matrix k − 1's
            // column through one more line of zeros.
            let (mut c, mut n) = if k == 0 {
                (1 << i, LINE)
            } else {
                (m[k - 1][i], 0)
            };
            while n < LINE {
                c = CRC_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
                n += 1;
            }
            m[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    m
};

/// The register state `x` advanced by the matrix `m`.
fn shift(m: &[u32; 32], x: u32) -> u32 {
    m.iter().enumerate().fold(0, |acc, (i, col)| {
        acc ^ (col & 0u32.wrapping_sub((x >> i) & 1))
    })
}

/// The page CRC: CRC-32 of `page` with its CRC field read as zero — what
/// a seal stamps and [`check_seal`] compares against.
///
/// One slicing-by-16 chain is a serial dependency through the state; the
/// two page halves run as two independent chains in one loop instead, and
/// linearity joins them: the state after both halves is the first half's
/// state advanced through a half page of zeros, XOR the second half's state
/// started from zero.
fn crc32_page(page: &[u8; PAGE_SIZE]) -> u32 {
    let (a, b) = page.split_at(HALF_PAGE);
    let (a, _) = a.as_chunks::<16>();
    let (b, _) = b.as_chunks::<16>();
    // The field sits at the start of the first half's second chunk.
    let mut crc_chunk = a[CRC_OFF / 16];
    crc_chunk[..4].fill(0);
    let mut ca = fold16(fold16(0xFFFF_FFFF, &a[0]), &crc_chunk);
    let mut cb = fold16(fold16(0, &b[0]), &b[1]);
    for (x, y) in a[2..].iter().zip(&b[2..]) {
        ca = fold16(ca, x);
        cb = fold16(cb, y);
    }
    !(cb ^ shift(&LINE_SHIFT[LINES / 2], ca))
}

/// The page CRC of `page` from `crc`, the page CRC it had when every line
/// of `pre` still held the bytes saved there: each changed line adds its
/// difference's register, advanced through the lines after it. The CRC
/// field itself is only written by a seal, so it holds `crc` on both sides
/// and adds nothing.
fn crc32_page_delta(page: &[u8; PAGE_SIZE], crc: u32, pre: &[(u8, [u8; LINE])]) -> u32 {
    let (lines, _) = page.as_chunks::<LINE>();
    pre.iter().fold(crc, |crc, (line, old)| {
        let line = usize::from(*line);
        let mut diff = [0u8; LINE];
        for ((d, a), b) in diff.iter_mut().zip(old).zip(&lines[line]) {
            *d = a ^ b;
        }
        let reg = diff.as_chunks::<16>().0.iter().fold(0, fold16);
        crc ^ shift(&LINE_SHIFT[LINES - 1 - line], reg)
    })
}

/// The meta page (page 0): tree root, allocation frontier, free list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Meta {
    pub root: u32,
    pub page_count: u32,
    pub free: Vec<u32>,
}

impl Meta {
    /// Free-list ids the 4 KB meta page can hold. Beyond this, freed
    /// pages are leaked (documented bound; never reached by the drivers).
    pub(crate) fn free_capacity() -> usize {
        (PAGE_SIZE - HEADER_LEN - 12) / 4
    }
}

/// Writes the 24 header bytes (CRC field and reserved word zeroed).
fn header(page: &mut [u8; PAGE_SIZE], kind: u8, nkeys: u16, lsn: u64) {
    page[..HEADER_LEN].fill(0);
    page[0..4].copy_from_slice(&MAGIC);
    page[4] = kind;
    page[6..8].copy_from_slice(&nkeys.to_le_bytes());
    page[8..16].copy_from_slice(&lsn.to_le_bytes());
}

fn lsn_of(page: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| page[8 + i]))
}

/// The little-endian `u32` at `at`.
fn word(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Checks a page's magic and CRC, the first step of loading any page.
pub fn check_seal(buf: &[u8; PAGE_SIZE]) -> Result<(), PageError> {
    if buf[0..4] != MAGIC {
        return Err(PageError::BadMagic);
    }
    let stored = word(buf, CRC_OFF);
    let computed = crc32_page(buf);
    if stored != computed {
        return Err(PageError::BadCrc { stored, computed });
    }
    Ok(())
}

/// One record's offset in its page and the head of its key.
#[derive(Clone, Copy)]
struct Slot {
    head: u128,
    off: u16,
}

/// The first 16 bytes of `key`, zero-padded, as a big-endian integer. Two
/// keys whose heads differ are in their heads' order; equal heads decide
/// nothing.
fn head(key: &[u8]) -> u128 {
    let mut h = [0u8; 16];
    let n = key.len().min(16);
    h[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(h)
}

/// A leaf record's bytes.
pub(crate) fn leaf_record(key: &[u8], val: &[u8]) -> Vec<u8> {
    [
        &[key.len() as u8][..],
        &(val.len() as u16).to_le_bytes(),
        key,
        val,
    ]
    .concat()
}

/// A branch record's bytes.
pub(crate) fn branch_record(key: &[u8], child: u32) -> Vec<u8> {
    [&[key.len() as u8][..], &child.to_le_bytes(), key].concat()
}

/// A cached leaf or branch page: its bytes, a DRAM-only index of its
/// records, and what the next [`Page::seal`] needs.
pub(crate) struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
    slots: Vec<Slot>,
    /// End of the body.
    end: usize,
    /// Lines written since the last seal, one bit each.
    touched: u64,
    /// Each line of `touched` with its bytes at the last seal, unless
    /// `full`.
    pre: Vec<(u8, [u8; LINE])>,
    /// The next seal computes the whole-page CRC: the page was built here,
    /// or more than half its lines were written.
    pub(crate) full: bool,
}

impl Page {
    /// Indexes `bytes`, validating kind, bounds and key order.
    fn new(bytes: Box<[u8; PAGE_SIZE]>, full: bool) -> Result<Page, PageError> {
        let leaf = match bytes[4] {
            LEAF => true,
            BRANCH => false,
            kind => return Err(PageError::BadKind(kind)),
        };
        let fixed = if leaf { 3 } else { 5 };
        let (mut off, mut prev) = (HEADER_LEN + if leaf { 0 } else { 4 }, 0..0);
        let mut slots = Vec::new();
        for _ in 0..u16::from_le_bytes([bytes[6], bytes[7]]) {
            if off + fixed > PAGE_SIZE {
                return Err(PageError::Truncated);
            }
            let vlen = if leaf {
                usize::from(u16::from_le_bytes([bytes[off + 1], bytes[off + 2]]))
            } else {
                0
            };
            let key = off + fixed..off + fixed + usize::from(bytes[off]);
            if key.len() > MAX_KEY || vlen > MAX_VAL || key.end + vlen > PAGE_SIZE {
                return Err(PageError::Truncated);
            }
            if !slots.is_empty() && bytes[prev] >= bytes[key.clone()] {
                return Err(PageError::KeysOutOfOrder);
            }
            let (head, slot) = (head(&bytes[key.clone()]), off as u16);
            slots.push(Slot { head, off: slot });
            (off, prev) = (key.end + vlen, key);
        }
        let (touched, pre) = (0, Vec::new());
        Ok(Page {
            bytes,
            slots,
            end: off,
            touched,
            pre,
            full,
        })
    }

    /// A page built here holding `recs` in order; `first` is a branch's
    /// leftmost child. `Err(Oversized)` if they do not fit.
    pub(crate) fn build(leaf: bool, first: u32, recs: &[Vec<u8>]) -> Result<Page, PageError> {
        let (body, n) = (HEADER_LEN + if leaf { 0 } else { 4 }, recs.len() as u16);
        let recs = recs.concat();
        if body + recs.len() > PAGE_SIZE {
            return Err(PageError::Oversized);
        }
        let mut bytes = Box::new([0; PAGE_SIZE]);
        header(&mut bytes, if leaf { LEAF } else { BRANCH }, n, 0);
        // A leaf's body starts at the header's end: no `first` to write.
        bytes[HEADER_LEN..body].copy_from_slice(&first.to_le_bytes()[..body - HEADER_LEN]);
        bytes[body..body + recs.len()].copy_from_slice(&recs);
        Page::new(bytes, true)
    }

    /// Checks and indexes a page read from the store; returns it and the
    /// LSN it carries.
    pub(crate) fn load(bytes: Box<[u8; PAGE_SIZE]>) -> Result<(Page, u64), PageError> {
        check_seal(&bytes)?;
        let lsn = lsn_of(&bytes);
        Ok((Page::new(bytes, false)?, lsn))
    }

    pub(crate) fn is_leaf(&self) -> bool {
        self.bytes[4] == LEAF
    }

    /// Records: a leaf's entries, a branch's separators.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The key of the record at `off`.
    fn key_at(&self, off: u16) -> &[u8] {
        let start = usize::from(off) + if self.is_leaf() { 3 } else { 5 };
        &self.bytes[start..start + usize::from(self.bytes[usize::from(off)])]
    }

    fn record(&self, i: usize) -> Range<usize> {
        let end = self
            .slots
            .get(i + 1)
            .map_or(self.end, |s| usize::from(s.off));
        usize::from(self.slots[i].off)..end
    }

    pub(crate) fn key(&self, i: usize) -> &[u8] {
        self.key_at(self.slots[i].off)
    }

    /// A leaf's value `i`.
    pub(crate) fn val(&self, i: usize) -> &[u8] {
        let rec = self.record(i);
        &self.bytes[rec.start + 3 + self.key(i).len()..rec.end]
    }

    /// A branch's leftmost child.
    pub(crate) fn first(&self) -> u32 {
        word(&self.bytes[..], HEADER_LEN)
    }

    /// The child right of a branch's separator `i`.
    pub(crate) fn child(&self, i: usize) -> u32 {
        word(&self.bytes[..], usize::from(self.slots[i].off) + 1)
    }

    /// `Ok` with the record holding `key`, or `Err` with where it would go.
    pub(crate) fn search(&self, key: &[u8]) -> Result<usize, usize> {
        let h = head(key);
        self.slots
            .binary_search_by(|s| s.head.cmp(&h).then_with(|| self.key_at(s.off).cmp(key)))
    }

    /// The child of a branch that covers `key`.
    pub(crate) fn child_for(&self, key: &[u8]) -> u32 {
        match self.search(key) {
            Ok(i) => self.child(i),
            Err(0) => self.first(),
            Err(i) => self.child(i - 1),
        }
    }

    /// Borrows `range` for writing, first saving the bytes of every line
    /// it reaches that this seal period has not written yet.
    fn modify(&mut self, range: Range<usize>) -> &mut [u8] {
        if !range.is_empty() {
            let (first, last) = (range.start / LINE, (range.end - 1) / LINE);
            let lines = (u64::MAX >> (LINES - 1 - last)) & (u64::MAX << first);
            let mut fresh = lines & !self.touched;
            self.touched |= lines;
            if self.touched.count_ones() as usize > LINES / 2 {
                self.full = true;
                self.pre = Vec::new();
            }
            while fresh != 0 && !self.full {
                let line = fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                let old = self.bytes.as_chunks::<LINE>().0[line];
                self.pre.push((line as u8, old));
            }
        }
        &mut self.bytes[range]
    }

    /// Replaces the `old` bytes at `at` with `parts`, shifting the body's
    /// tail and zeroing what it vacates, and moves slots `from..` with the
    /// tail. False, with the page untouched, if the body would not fit.
    fn splice(&mut self, from: usize, at: usize, old: usize, parts: &[&[u8]]) -> bool {
        let new: usize = parts.iter().map(|p| p.len()).sum();
        let (end, new_end) = (self.end, self.end - old + new);
        if new_end > PAGE_SIZE {
            return false;
        }
        let stop = if new == old {
            at + new
        } else {
            end.max(new_end)
        };
        let bytes = self.modify(at..stop);
        if new != old {
            bytes.copy_within(old..end - at, new);
        }
        let mut o = 0;
        for part in parts {
            bytes[o..o + part.len()].copy_from_slice(part);
            o += part.len();
        }
        if new_end < end {
            bytes[new_end - at..].fill(0);
        }
        self.end = new_end;
        if new != old {
            for s in &mut self.slots[from..] {
                s.off = (usize::from(s.off) + new - old) as u16;
            }
        }
        true
    }

    /// Writes the record `parts` over record `i` on `Ok(i)`, or inserts it
    /// as record `i` on `Err(i)`. False, with the page untouched, if it does
    /// not fit.
    fn place(&mut self, at: Result<usize, usize>, key: &[u8], parts: &[&[u8]]) -> bool {
        let (i, old) = match at {
            Ok(i) => (i, self.record(i).len()),
            Err(i) => (i, 0),
        };
        let off = self.slots.get(i).map_or(self.end, |s| usize::from(s.off));
        if !self.splice(i + usize::from(at.is_ok()), off, old, parts) {
            return false;
        }
        if at.is_err() {
            let (head, off) = (head(key), off as u16);
            self.slots.insert(i, Slot { head, off });
            self.set_len();
        }
        true
    }

    fn set_len(&mut self) {
        let n = self.slots.len() as u16;
        self.modify(6..8).copy_from_slice(&n.to_le_bytes());
    }

    /// Sets a leaf's value for `key` at its [`Page::search`] result `at`.
    /// False, with the page untouched, if the leaf would overflow.
    pub(crate) fn put(&mut self, at: Result<usize, usize>, key: &[u8], val: &[u8]) -> bool {
        let vlen = (val.len() as u16).to_le_bytes();
        self.place(at, key, &[&[key.len() as u8], &vlen, key, val])
    }

    /// Inserts a branch separator as record `i`; false if it does not fit.
    pub(crate) fn insert_sep(&mut self, i: usize, key: &[u8], child: u32) -> bool {
        self.place(
            Err(i),
            key,
            &[&[key.len() as u8], &child.to_le_bytes(), key],
        )
    }

    /// Removes record `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        let rec = self.record(i);
        self.slots.remove(i);
        // A shrinking splice always fits.
        self.splice(i, rec.start, rec.len(), &[]);
        self.set_len();
    }

    /// Sets a branch's leftmost child.
    pub(crate) fn set_first(&mut self, child: u32) {
        self.modify(HEADER_LEN..HEADER_LEN + 4)
            .copy_from_slice(&child.to_le_bytes());
    }

    /// Splits the page with one record change applied that did not fit:
    /// `rec` replaces record `i` on `Ok(i)` or goes in before it on
    /// `Err(i)`. A leaf splits at its byte midpoint, a branch at its middle
    /// separator, which moves up. This page keeps the left half; returns
    /// the separator to promote and the right half's page.
    pub(crate) fn split(
        &mut self,
        at: Result<usize, usize>,
        rec: Vec<u8>,
    ) -> Result<(Vec<u8>, Page), PageError> {
        let mut recs: Vec<Vec<u8>> = (0..self.len())
            .map(|i| self.bytes[self.record(i)].to_vec())
            .collect();
        match at {
            Ok(i) => recs[i] = rec,
            Err(i) => recs.insert(i, rec),
        }
        if self.is_leaf() {
            let mid = split_point(&recs);
            let right = Page::build(true, 0, &recs[mid..])?;
            *self = Page::build(true, 0, &recs[..mid])?;
            Ok((right.key(0).to_vec(), right))
        } else {
            let mid = recs.len() / 2;
            let right = Page::build(false, word(&recs[mid], 1), &recs[mid + 1..])?;
            *self = Page::build(false, self.first(), &recs[..mid])?;
            Ok((recs[mid][5..].to_vec(), right))
        }
    }

    /// Stamps `lsn` and the CRC, and returns the sealed image. The CRC
    /// folds in only the lines written since the last seal unless the page
    /// needs a full one.
    pub(crate) fn seal(&mut self, lsn: u64) -> &[u8; PAGE_SIZE] {
        self.modify(8..16).copy_from_slice(&lsn.to_le_bytes());
        let crc = if self.full {
            crc32_page(&self.bytes)
        } else {
            crc32_page_delta(&self.bytes, word(&self.bytes[..], CRC_OFF), &self.pre)
        };
        self.bytes[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
        self.touched = 0;
        self.pre.clear();
        self.full = false;
        &self.bytes
    }
}

/// Where a leaf's records split (the byte midpoint): after the first
/// records that reach half their bytes, keeping one record on each side.
fn split_point(recs: &[Vec<u8>]) -> usize {
    let total: usize = recs.iter().map(Vec::len).sum();
    let mut acc = 0;
    let at = recs.iter().position(|rec| {
        acc += rec.len();
        acc >= total / 2
    });
    at.map_or(recs.len() / 2, |i| i + 1)
        .clamp(1, recs.len() - 1)
}

/// Encodes the meta page into `page`, overwriting all of it.
pub(crate) fn encode_meta(
    meta: &Meta,
    lsn: u64,
    page: &mut [u8; PAGE_SIZE],
) -> Result<(), PageError> {
    if meta.free.len() > Meta::free_capacity() {
        return Err(PageError::Oversized);
    }
    header(page, META, 0, lsn);
    let mut off = HEADER_LEN;
    page[off..off + 4].copy_from_slice(&meta.root.to_le_bytes());
    page[off + 4..off + 8].copy_from_slice(&meta.page_count.to_le_bytes());
    page[off + 8..off + 12].copy_from_slice(&(meta.free.len() as u32).to_le_bytes());
    off += 12;
    for id in &meta.free {
        page[off..off + 4].copy_from_slice(&id.to_le_bytes());
        off += 4;
    }
    page[off..].fill(0);
    let crc = crc32_page(page);
    page[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decodes the meta page; returns it and its `lsn`.
pub fn decode_meta(buf: &[u8; PAGE_SIZE]) -> Result<(Meta, u64), PageError> {
    check_seal(buf)?;
    if buf[4] != META {
        return Err(PageError::BadKind(buf[4]));
    }
    let off = HEADER_LEN;
    let root = word(buf, off);
    let page_count = word(buf, off + 4);
    let free_len = word(buf, off + 8) as usize;
    if off + 12 + free_len * 4 > PAGE_SIZE {
        return Err(PageError::Truncated);
    }
    let free = (0..free_len).map(|i| word(buf, off + 12 + i * 4)).collect();
    Ok((
        Meta {
            root,
            page_count,
            free,
        },
        lsn_of(buf),
    ))
}

/// Whether a raw page is entirely zero — i.e. never written by kvdb
/// (fresh store). Distinguishes "format me" from "corrupt".
pub fn is_blank(buf: &[u8; PAGE_SIZE]) -> bool {
    buf.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 filler: any byte stream will do, it only has to differ
    /// from position to position.
    fn filler(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// A node by value: the fixtures' shape, built and read back through
    /// the view.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Node {
        Leaf(Vec<(Vec<u8>, Vec<u8>)>),
        Branch {
            first: u32,
            seps: Vec<(Vec<u8>, u32)>,
        },
    }

    fn build(node: &Node) -> Result<Page, PageError> {
        match node {
            Node::Leaf(entries) => {
                let recs: Vec<_> = entries.iter().map(|(k, v)| leaf_record(k, v)).collect();
                Page::build(true, 0, &recs)
            }
            Node::Branch { first, seps } => {
                let recs: Vec<_> = seps.iter().map(|(k, c)| branch_record(k, *c)).collect();
                Page::build(false, *first, &recs)
            }
        }
    }

    /// Builds and seals the node's page into `page`, overwriting all of it.
    fn encode_node(node: &Node, lsn: u64, page: &mut [u8; PAGE_SIZE]) -> Result<(), PageError> {
        page.copy_from_slice(build(node)?.seal(lsn));
        Ok(())
    }

    /// Loads a page and reads every record back through the view.
    fn decode_node(buf: &[u8; PAGE_SIZE]) -> Result<(Node, u64), PageError> {
        let (page, lsn) = Page::load(Box::new(*buf))?;
        Ok((node_of(&page), lsn))
    }

    fn node_of(page: &Page) -> Node {
        let keys = (0..page.len()).map(|i| page.key(i).to_vec());
        if page.is_leaf() {
            Node::Leaf(
                keys.zip((0..page.len()).map(|i| page.val(i).to_vec()))
                    .collect(),
            )
        } else {
            Node::Branch {
                first: page.first(),
                seps: keys.zip((0..page.len()).map(|i| page.child(i))).collect(),
            }
        }
    }

    fn encoded_node(node: &Node, lsn: u64) -> [u8; PAGE_SIZE] {
        // A dirty buffer: the encoder must overwrite every byte.
        let mut page = [0xA5u8; PAGE_SIZE];
        encode_node(node, lsn, &mut page).unwrap();
        page
    }

    fn encoded_meta(meta: &Meta, lsn: u64) -> [u8; PAGE_SIZE] {
        let mut page = [0xA5u8; PAGE_SIZE];
        encode_meta(meta, lsn, &mut page).unwrap();
        page
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_alignment() {
        let buf = filler(0x9E37_79B9_7F4A_7C15, 8200 + 16);
        for align in 0..16 {
            // Every short length (all remainders, 0..=4 whole chunks), then a
            // stride coprime to 16 up to past two pages.
            for len in (0..=80).chain((81..=8200).step_by(131)).chain([4096, 8200]) {
                let s = &buf[align..align + len];
                assert_eq!(
                    crc32(s),
                    !crc32_bytewise(0xFFFF_FFFF, s),
                    "align {align} len {len}"
                );
                // Streaming: any split point gives the same state.
                let (a, b) = s.split_at(len / 3);
                assert_eq!(
                    crc32_update(crc32_update(0xFFFF_FFFF, a), b),
                    crc32_update(0xFFFF_FFFF, s),
                    "align {align} len {len} split"
                );
            }
        }
    }

    /// `crc32_page` is by definition the bytewise CRC of a copy with the
    /// CRC field zeroed, whatever the field holds.
    #[test]
    fn crc32_page_matches_bytewise_over_the_field_zeroed_page() {
        let zeroed_bytewise = |page: &[u8; PAGE_SIZE]| {
            let mut copy = *page;
            copy[CRC_OFF..CRC_OFF + 4].fill(0);
            assert_eq!(crc32(&copy), !crc32_bytewise(0xFFFF_FFFF, &copy));
            crc32(&copy)
        };
        let mut pages = vec![[0u8; PAGE_SIZE], [0xFFu8; PAGE_SIZE]];
        for seed in 0..64u64 {
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&filler(seed, PAGE_SIZE));
            pages.push(page);
        }
        for (i, page) in pages.iter().enumerate() {
            assert_eq!(crc32_page(page), zeroed_bytewise(page), "page {i}");
            // One changed byte on either side of the seam between the two
            // streams, and at both ends, moves the CRC the same way.
            for at in [0, 15, 20, 31, 32, HALF_PAGE - 1, HALF_PAGE, PAGE_SIZE - 1] {
                let mut bad = *page;
                bad[at] ^= 0x40;
                assert_eq!(crc32_page(&bad), zeroed_bytewise(&bad), "page {i} at {at}");
                assert_ne!(crc32_page(&bad), crc32_page(page), "page {i} at {at}");
            }
            let mut other_field = *page;
            other_field[CRC_OFF..CRC_OFF + 4].copy_from_slice(&[1, 2, 3, 4]);
            assert_eq!(crc32_page(&other_field), crc32_page(page), "page {i} field");
        }
    }

    /// The definition of `check_seal` is the CRC of a copy with the field
    /// zeroed. Same verdict and the same `BadCrc` values on sealed, random
    /// and corrupted pages.
    #[test]
    fn check_seal_segmented_matches_the_zeroed_copy() {
        let zeroed_copy = |page: &[u8; PAGE_SIZE]| {
            let stored = u32::from_le_bytes([page[16], page[17], page[18], page[19]]);
            let mut unsealed = *page;
            unsealed[CRC_OFF..CRC_OFF + 4].fill(0);
            let computed = !crc32_bytewise(0xFFFF_FFFF, &unsealed);
            if stored == computed {
                Ok(())
            } else {
                Err(PageError::BadCrc { stored, computed })
            }
        };
        for seed in 0..32u64 {
            // Random bytes under a valid magic: the CRC is all that is judged.
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&filler(seed, PAGE_SIZE));
            page[0..4].copy_from_slice(&MAGIC);
            assert!(matches!(check_seal(&page), Err(PageError::BadCrc { .. })));
            assert_eq!(check_seal(&page), zeroed_copy(&page), "random {seed}");

            // A sealed page passes; one flipped bit anywhere (header, CRC
            // field, body, last byte) fails with the same values.
            let node = Node::Leaf(vec![(vec![seed as u8 + 1; 9], filler(seed, 700))]);
            let sealed = encoded_node(&node, seed);
            assert_eq!(check_seal(&sealed), Ok(()));
            assert_eq!(zeroed_copy(&sealed), Ok(()));
            for at in [5, 15, 16, 19, 20, 24, 777, 2047, 2048, 3000, PAGE_SIZE - 1] {
                let mut bad = sealed;
                bad[at] ^= 1 << (seed % 8);
                assert!(check_seal(&bad).is_err(), "seed {seed} flip at {at}");
                assert_eq!(check_seal(&bad), zeroed_copy(&bad), "seed {seed} at {at}");
                assert!(
                    matches!(decode_node(&bad), Err(PageError::BadCrc { .. })),
                    "seed {seed} flip at {at}"
                );
            }
        }
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The on-device format did not move: `(stored CRC, FNV-1a of the whole
    /// page)` of these fixtures, generated by the by-value encoder this one
    /// replaced.
    #[test]
    fn encoded_pages_match_recorded_vectors() {
        let vector =
            |p: [u8; PAGE_SIZE]| (u32::from_le_bytes([p[16], p[17], p[18], p[19]]), fnv(&p));
        let nodes = [
            (
                Node::Leaf(vec![
                    (b"alpha".to_vec(), b"1".to_vec()),
                    (b"beta".to_vec(), vec![0xAB; 100]),
                    (b"gamma".to_vec(), Vec::new()),
                ]),
                42,
                (0x25d1_35ee, 0xa7a4_7606_be63_2898),
            ),
            (
                Node::Leaf(
                    (0..20u32)
                        .map(|i| {
                            (
                                format!("key-{i:06}").into_bytes(),
                                vec![i as u8; (i * 37 % 200) as usize],
                            )
                        })
                        .collect(),
                ),
                0x0102_0304_0506_0708,
                (0x5d30_527c, 0x93b5_4b72_fc65_4ff2),
            ),
            (
                Node::Leaf(Vec::new()),
                1,
                (0xf32d_8852, 0x6e44_d6ad_76ce_d6a4),
            ),
            (
                Node::Branch {
                    first: 7,
                    seps: vec![(b"k1".to_vec(), 9), (b"k2".to_vec(), 12)],
                },
                3,
                (0xa552_c3ec, 0xcaf3_475c_f713_0bd4),
            ),
            (
                Node::Branch {
                    first: 0xDEAD_BEEF,
                    seps: (0..100u32)
                        .map(|i| (format!("sep-{i:05}").into_bytes(), i * 3 + 1))
                        .collect(),
                },
                u64::MAX,
                (0xe502_6fd5, 0xeb13_ad28_fe72_f43a),
            ),
        ];
        for (node, lsn, want) in &nodes {
            assert_eq!(vector(encoded_node(node, *lsn)), *want, "{node:?}");
        }
        let metas = [
            (
                Meta {
                    root: 5,
                    page_count: 17,
                    free: vec![3, 9, 11],
                },
                8,
                (0xe3e0_5302, 0x0e1b_3bf9_ee45_8fd5),
            ),
            (
                Meta {
                    root: 1,
                    page_count: 2,
                    free: Vec::new(),
                },
                1,
                (0xf118_e838, 0x5b79_cb4b_0980_b308),
            ),
        ];
        for (meta, lsn, want) in &metas {
            assert_eq!(vector(encoded_meta(meta, *lsn)), *want, "{meta:?}");
        }
    }

    #[test]
    fn leaf_round_trips() {
        let node = Node::Leaf(vec![
            (b"alpha".to_vec(), b"1".to_vec()),
            (b"beta".to_vec(), vec![0xAB; 100]),
            (b"gamma".to_vec(), Vec::new()),
        ]);
        let page = encoded_node(&node, 42);
        assert_eq!(decode_node(&page).unwrap(), (node, 42));
    }

    #[test]
    fn branch_round_trips() {
        let node = Node::Branch {
            first: 7,
            seps: vec![(b"k1".to_vec(), 9), (b"k2".to_vec(), 12)],
        };
        let page = encoded_node(&node, 3);
        assert_eq!(decode_node(&page).unwrap(), (node, 3));
    }

    #[test]
    fn meta_round_trips() {
        let meta = Meta {
            root: 5,
            page_count: 17,
            free: vec![3, 9, 11],
        };
        let page = encoded_meta(&meta, 8);
        assert_eq!(decode_meta(&page).unwrap(), (meta, 8));
    }

    #[test]
    fn corruption_is_detected() {
        let node = Node::Leaf(vec![(b"k".to_vec(), b"v".to_vec())]);
        let mut page = encoded_node(&node, 1);
        page[100] ^= 0x01;
        assert!(matches!(decode_node(&page), Err(PageError::BadCrc { .. })));
        let blank = [0u8; PAGE_SIZE];
        assert!(is_blank(&blank));
        assert_eq!(decode_node(&blank), Err(PageError::BadMagic));
    }

    #[test]
    fn out_of_order_keys_rejected() {
        // A sealed page whose two keys are swapped behind the view's back.
        let node = Node::Leaf(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"z".to_vec(), b"2".to_vec()),
        ]);
        let mut page = encoded_node(&node, 1);
        page[HEADER_LEN + 3] = b'z';
        page[HEADER_LEN + 8] = b'a';
        let crc = crc32_page(&page);
        page[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_node(&page), Err(PageError::KeysOutOfOrder));
    }

    #[test]
    fn oversized_node_refused() {
        let entries: Vec<_> = (0..10u8)
            .map(|i| (vec![i; MAX_KEY], vec![i; MAX_VAL]))
            .collect();
        let node = Node::Leaf(entries);
        let mut page = [0u8; PAGE_SIZE];
        assert_eq!(encode_node(&node, 1, &mut page), Err(PageError::Oversized));
    }

    /// The reference page CRC: bytewise, over a copy with the field zeroed.
    fn reference_crc(page: &[u8; PAGE_SIZE]) -> u32 {
        let mut copy = *page;
        copy[CRC_OFF..CRC_OFF + 4].fill(0);
        !crc32_bytewise(0xFFFF_FFFF, &copy)
    }

    /// A seeded LCG draw in `0..n`.
    fn draw(x: &mut u64, n: u64) -> u64 {
        *x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        (*x >> 33) % n
    }

    /// Seals `page` at `lsn` and checks the image against a fresh build of
    /// `want` and the reference CRC; returns whether the seal was
    /// incremental.
    fn seal_matches(page: &mut Page, want: &Node, lsn: u64) -> bool {
        let incremental = !page.full;
        let sealed = *page.seal(lsn);
        assert_eq!(sealed, encoded_node(want, lsn), "lsn {lsn}");
        assert_eq!(word(&sealed, CRC_OFF), reference_crc(&sealed), "lsn {lsn}");
        incremental
    }

    /// Seeded in-place leaf edits — inserts, updates of the same and of
    /// other lengths, rewrites of the bytes already there, deletes, puts
    /// that do not fit — sealed every few edits: the bytes always equal a
    /// fresh build of the model, and the CRC the reference one.
    #[test]
    fn leaf_edits_in_place_match_a_fresh_build_and_seal_exactly() {
        let mut x = 0x5EED;
        let mut page = Page::build(true, 0, &[]).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let (mut incremental, mut refused) = (0, 0);
        for step in 1..=4000u64 {
            let key = format!("k{:03}", draw(&mut x, 120)).into_bytes();
            let at = page.search(&key);
            match (draw(&mut x, 5), at) {
                (0, Ok(i)) => {
                    page.remove(i);
                    model.remove(&key);
                }
                (1, Ok(i)) => {
                    // The same bytes written back: a touched line that does
                    // not change.
                    let same = page.val(i).to_vec();
                    assert!(page.put(at, &key, &same));
                }
                _ => {
                    let len = if draw(&mut x, 3) == 0 {
                        draw(&mut x, 200)
                    } else {
                        40
                    };
                    let val = vec![step as u8; len as usize];
                    if page.put(at, &key, &val) {
                        model.insert(key, val);
                    } else {
                        refused += 1;
                    }
                }
            }
            if step % 4 == 0 {
                let want = Node::Leaf(model.clone().into_iter().collect());
                incremental += u32::from(seal_matches(&mut page, &want, step));
            }
        }
        assert!(incremental > 200 && refused > 50, "{incremental} {refused}");
    }

    /// The same for a branch: separator inserts and removals and
    /// leftmost-child changes.
    #[test]
    fn branch_edits_in_place_match_a_fresh_build_and_seal_exactly() {
        let mut x = 0xB4A7;
        let mut page = Page::build(false, 7, &[]).unwrap();
        let (mut first, mut seps) = (7u32, std::collections::BTreeMap::new());
        for step in 1..=2000u64 {
            let key = format!("sep-{:04}", draw(&mut x, 400)).into_bytes();
            match (draw(&mut x, 3), page.search(&key)) {
                (0, Ok(i)) => {
                    page.remove(i);
                    seps.remove(&key);
                }
                (1, _) => {
                    first = step as u32;
                    page.set_first(first);
                }
                (_, Err(i)) if page.insert_sep(i, &key, step as u32) => {
                    seps.insert(key, step as u32);
                }
                _ => {}
            }
            if step % 3 == 0 {
                let want = Node::Branch {
                    first,
                    seps: seps.clone().into_iter().collect(),
                };
                seal_matches(&mut page, &want, step);
            }
        }
    }

    /// A split keeps the left records here and hands back a right page and
    /// separator equal to fresh builds, at `split_half`'s byte midpoint.
    #[test]
    fn split_halves_match_fresh_builds() {
        let entries: Vec<_> = (0..30u8)
            .map(|i| (vec![b'k', i], vec![i; 100 + usize::from(i) * 3]))
            .collect();
        let fits = entries.iter().take_while({
            let mut end = HEADER_LEN;
            move |(k, v)| {
                end += 3 + k.len() + v.len();
                end <= PAGE_SIZE
            }
        });
        let n = fits.count();
        let mut page = build(&Node::Leaf(entries[..n].to_vec())).unwrap();
        let (key, val) = &entries[n];
        let at = page.search(key);
        assert!(!page.put(at, key, val));
        let (sep, mut right) = page.split(at, leaf_record(key, val)).unwrap();
        let all = &entries[..=n];
        let mid = split_point(
            &all.iter()
                .map(|(k, v)| leaf_record(k, v))
                .collect::<Vec<_>>(),
        );
        assert_eq!(sep, all[mid].0);
        seal_matches(&mut page, &Node::Leaf(all[..mid].to_vec()), 9);
        seal_matches(&mut right, &Node::Leaf(all[mid..].to_vec()), 9);
    }
}
