//! Fixed-size B-tree page codec.
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
//! Bodies are packed little-endian records:
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
//! highest LSN it has decoded, not from the meta page's alone.
//!
//! The decode path validates magic, kind, CRC, bounds, and key order, so
//! a torn or stale page surfaces as [`PageError`] — the crash oracles
//! treat any decode failure on a reachable page as a torn-page violation.

use std::fmt;

/// Page size — one cache/disk block.
pub const PAGE_SIZE: usize = blockdev::BLOCK_SIZE;
/// Header bytes before the body.
pub(crate) const HEADER_LEN: usize = 24;
/// Longest encodable key.
pub const MAX_KEY: usize = 64;
/// Longest encodable value.
pub const MAX_VAL: usize = 1024;

const MAGIC: [u8; 4] = *b"KVPG";
const CRC_OFF: usize = 16;

/// Why a page failed to decode.
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

/// The CRC register's advance through [`HALF_PAGE`] zero bytes, as a 32 × 32
/// bit matrix: `CRC_SHIFT_HALF[i]` is where state bit `i` ends up. The
/// register update is linear over GF(2), so a state advances as the XOR of
/// its set bits' columns.
const CRC_SHIFT_HALF: [u32; 32] = {
    let mut cols = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut c = 1u32 << i;
        let mut n = 0;
        while n < HALF_PAGE {
            c = CRC_TABLE[(c & 0xFF) as usize] ^ (c >> 8);
            n += 1;
        }
        cols[i] = c;
        i += 1;
    }
    cols
};

/// The page CRC: CRC-32 of `page` with its CRC field read as zero — what
/// [`seal`] stamps and [`check_seal`] compares against.
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
    let mut joined = cb;
    for (i, col) in CRC_SHIFT_HALF.iter().enumerate() {
        if (ca >> i) & 1 != 0 {
            joined ^= col;
        }
    }
    !joined
}

/// A decoded B-tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Sorted `(key, value)` records.
    Leaf(Vec<(Vec<u8>, Vec<u8>)>),
    /// `first` holds keys below `seps[0].0`; `seps[i].1` holds keys in
    /// `[seps[i].0, seps[i+1].0)`.
    Branch {
        first: u32,
        seps: Vec<(Vec<u8>, u32)>,
    },
}

impl Node {
    /// Bytes this node would occupy encoded (header included).
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf(entries) => {
                HEADER_LEN
                    + entries
                        .iter()
                        .map(|(k, v)| 3 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Branch { seps, .. } => {
                HEADER_LEN + 4 + seps.iter().map(|(k, _)| 5 + k.len()).sum::<usize>()
            }
        }
    }

    /// Whether the node still fits one page.
    pub fn fits(&self) -> bool {
        self.encoded_len() <= PAGE_SIZE
    }
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

/// Zeroes the page past the body's end `off` (the caller's buffer may hold
/// anything), then stamps the CRC.
fn seal(page: &mut [u8; PAGE_SIZE], off: usize) {
    page[off..].fill(0);
    let crc = crc32_page(page);
    page[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
}

fn check_seal(buf: &[u8; PAGE_SIZE]) -> Result<(), PageError> {
    if buf[0..4] != MAGIC {
        return Err(PageError::BadMagic);
    }
    let stored = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
    let computed = crc32_page(buf);
    if stored != computed {
        return Err(PageError::BadCrc { stored, computed });
    }
    Ok(())
}

/// Encodes a node into `page`, overwriting all of it; `Err(Oversized)` if
/// the node no longer fits (callers split before encoding, so this is a
/// defensive check) — `page` is untouched then.
pub(crate) fn encode_node(
    node: &Node,
    lsn: u64,
    page: &mut [u8; PAGE_SIZE],
) -> Result<(), PageError> {
    if !node.fits() {
        return Err(PageError::Oversized);
    }
    let off = match node {
        Node::Leaf(entries) => {
            header(page, 2, entries.len() as u16, lsn);
            let mut off = HEADER_LEN;
            for (k, v) in entries {
                page[off] = k.len() as u8;
                page[off + 1..off + 3].copy_from_slice(&(v.len() as u16).to_le_bytes());
                off += 3;
                page[off..off + k.len()].copy_from_slice(k);
                off += k.len();
                page[off..off + v.len()].copy_from_slice(v);
                off += v.len();
            }
            off
        }
        Node::Branch { first, seps } => {
            header(page, 1, seps.len() as u16, lsn);
            page[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&first.to_le_bytes());
            let mut off = HEADER_LEN + 4;
            for (k, child) in seps {
                page[off] = k.len() as u8;
                page[off + 1..off + 5].copy_from_slice(&child.to_le_bytes());
                off += 5;
                page[off..off + k.len()].copy_from_slice(k);
                off += k.len();
            }
            off
        }
    };
    seal(page, off);
    Ok(())
}

/// Decodes a node page, validating magic, CRC, bounds, and key order.
/// Returns the node and the `lsn` it was stamped with.
pub(crate) fn decode_node(buf: &[u8; PAGE_SIZE]) -> Result<(Node, u64), PageError> {
    check_seal(buf)?;
    let kind = buf[4];
    let nkeys = u16::from_le_bytes([buf[6], buf[7]]) as usize;
    let lsn = u64::from_le_bytes(buf[8..16].try_into().map_err(|_| PageError::Truncated)?);
    let take = |off: &mut usize, n: usize| -> Result<&[u8], PageError> {
        if *off + n > PAGE_SIZE {
            return Err(PageError::Truncated);
        }
        let s = &buf[*off..*off + n];
        *off += n;
        Ok(s)
    };
    match kind {
        2 => {
            let mut off = HEADER_LEN;
            let mut entries = Vec::with_capacity(nkeys);
            for _ in 0..nkeys {
                let hdr = take(&mut off, 3)?;
                let (klen, vlen) = (
                    hdr[0] as usize,
                    u16::from_le_bytes([hdr[1], hdr[2]]) as usize,
                );
                if klen > MAX_KEY || vlen > MAX_VAL {
                    return Err(PageError::Truncated);
                }
                let k = take(&mut off, klen)?.to_vec();
                let v = take(&mut off, vlen)?.to_vec();
                if let Some((prev, _)) = entries.last() {
                    if *prev >= k {
                        return Err(PageError::KeysOutOfOrder);
                    }
                }
                entries.push((k, v));
            }
            Ok((Node::Leaf(entries), lsn))
        }
        1 => {
            let mut off = HEADER_LEN;
            let first = u32::from_le_bytes(
                take(&mut off, 4)?
                    .try_into()
                    .map_err(|_| PageError::Truncated)?,
            );
            let mut seps = Vec::with_capacity(nkeys);
            for _ in 0..nkeys {
                let hdr = take(&mut off, 5)?;
                let klen = hdr[0] as usize;
                if klen > MAX_KEY {
                    return Err(PageError::Truncated);
                }
                let child =
                    u32::from_le_bytes(hdr[1..5].try_into().map_err(|_| PageError::Truncated)?);
                let k = take(&mut off, klen)?.to_vec();
                if let Some((prev, _)) = seps.last() {
                    if *prev >= k {
                        return Err(PageError::KeysOutOfOrder);
                    }
                }
                seps.push((k, child));
            }
            Ok((Node::Branch { first, seps }, lsn))
        }
        k => Err(PageError::BadKind(k)),
    }
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
    header(page, 0, 0, lsn);
    let mut off = HEADER_LEN;
    page[off..off + 4].copy_from_slice(&meta.root.to_le_bytes());
    page[off + 4..off + 8].copy_from_slice(&meta.page_count.to_le_bytes());
    page[off + 8..off + 12].copy_from_slice(&(meta.free.len() as u32).to_le_bytes());
    off += 12;
    for id in &meta.free {
        page[off..off + 4].copy_from_slice(&id.to_le_bytes());
        off += 4;
    }
    seal(page, off);
    Ok(())
}

/// Decodes the meta page; returns it and its `lsn`.
pub fn decode_meta(buf: &[u8; PAGE_SIZE]) -> Result<(Meta, u64), PageError> {
    check_seal(buf)?;
    if buf[4] != 0 {
        return Err(PageError::BadKind(buf[4]));
    }
    let lsn = u64::from_le_bytes(buf[8..16].try_into().map_err(|_| PageError::Truncated)?);
    let off = HEADER_LEN;
    let word =
        |o: usize| -> u32 { u32::from_le_bytes([buf[o], buf[o + 1], buf[o + 2], buf[o + 3]]) };
    let root = word(off);
    let page_count = word(off + 4);
    let free_len = word(off + 8) as usize;
    if off + 12 + free_len * 4 > PAGE_SIZE {
        return Err(PageError::Truncated);
    }
    let free = (0..free_len).map(|i| word(off + 12 + i * 4)).collect();
    Ok((
        Meta {
            root,
            page_count,
            free,
        },
        lsn,
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
        // Encode bypassing the sorted-insert invariant.
        let node = Node::Leaf(vec![
            (b"z".to_vec(), b"1".to_vec()),
            (b"a".to_vec(), b"2".to_vec()),
        ]);
        let page = encoded_node(&node, 1);
        assert_eq!(decode_node(&page), Err(PageError::KeysOutOfOrder));
    }

    #[test]
    fn oversized_node_refused() {
        let entries: Vec<_> = (0..10u8)
            .map(|i| (vec![i; MAX_KEY], vec![i; MAX_VAL]))
            .collect();
        let node = Node::Leaf(entries);
        assert!(!node.fits());
        let mut page = [0u8; PAGE_SIZE];
        assert_eq!(encode_node(&node, 1, &mut page), Err(PageError::Oversized));
    }
}
