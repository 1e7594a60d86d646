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
//! [8..16)  lsn    u64 LE (commit sequence that last wrote the page)
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
//! The decode path validates magic, kind, CRC, bounds, and key order, so
//! a torn or stale page surfaces as [`PageError`] — the crash oracles
//! treat any decode failure on a reachable page as a torn-page violation.

use std::fmt;

/// Page size — one cache/disk block.
pub const PAGE_SIZE: usize = blockdev::BLOCK_SIZE;
/// Header bytes before the body.
pub const HEADER_LEN: usize = 24;
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

/// Slicing-by-8 tables derived from [`CRC_TABLE`]: `CRC_SLICES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, so eight input bytes
/// fold into the state with eight independent lookups instead of a chain of
/// eight dependent ones.
const CRC_SLICES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC_TABLE;
    let mut k = 1;
    while k < 8 {
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

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        c = CRC_SLICES[7][(lo & 0xFF) as usize]
            ^ CRC_SLICES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_SLICES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_SLICES[4][(lo >> 24) as usize]
            ^ CRC_SLICES[3][ch[4] as usize]
            ^ CRC_SLICES[2][ch[5] as usize]
            ^ CRC_SLICES[1][ch[6] as usize]
            ^ CRC_SLICES[0][ch[7] as usize];
    }
    !crc32_bytewise(c, chunks.remainder())
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
    pub fn encoded_len(&self) -> usize {
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
    pub fn free_capacity() -> usize {
        (PAGE_SIZE - HEADER_LEN - 12) / 4
    }
}

fn header(kind: u8, nkeys: u16, lsn: u64) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[0..4].copy_from_slice(&MAGIC);
    page[4] = kind;
    page[6..8].copy_from_slice(&nkeys.to_le_bytes());
    page[8..16].copy_from_slice(&lsn.to_le_bytes());
    page
}

fn seal(mut page: [u8; PAGE_SIZE]) -> [u8; PAGE_SIZE] {
    let crc = crc32(&page);
    page[CRC_OFF..CRC_OFF + 4].copy_from_slice(&crc.to_le_bytes());
    page
}

fn check_seal(buf: &[u8; PAGE_SIZE]) -> Result<(), PageError> {
    if buf[0..4] != MAGIC {
        return Err(PageError::BadMagic);
    }
    let stored = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
    let mut unsealed = *buf;
    unsealed[CRC_OFF..CRC_OFF + 4].fill(0);
    let computed = crc32(&unsealed);
    if stored != computed {
        return Err(PageError::BadCrc { stored, computed });
    }
    Ok(())
}

/// Encodes a node; `Err(Oversized)` if it no longer fits (callers split
/// before encoding, so this is a defensive check).
pub fn encode_node(node: &Node, lsn: u64) -> Result<[u8; PAGE_SIZE], PageError> {
    if !node.fits() {
        return Err(PageError::Oversized);
    }
    match node {
        Node::Leaf(entries) => {
            let mut page = header(2, entries.len() as u16, lsn);
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
            Ok(seal(page))
        }
        Node::Branch { first, seps } => {
            let mut page = header(1, seps.len() as u16, lsn);
            page[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&first.to_le_bytes());
            let mut off = HEADER_LEN + 4;
            for (k, child) in seps {
                page[off] = k.len() as u8;
                page[off + 1..off + 5].copy_from_slice(&child.to_le_bytes());
                off += 5;
                page[off..off + k.len()].copy_from_slice(k);
                off += k.len();
            }
            Ok(seal(page))
        }
    }
}

/// Decodes a node page, validating magic, CRC, bounds, and key order.
/// Returns the node and the `lsn` it was stamped with.
pub fn decode_node(buf: &[u8; PAGE_SIZE]) -> Result<(Node, u64), PageError> {
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

/// Encodes the meta page.
pub fn encode_meta(meta: &Meta, lsn: u64) -> Result<[u8; PAGE_SIZE], PageError> {
    if meta.free.len() > Meta::free_capacity() {
        return Err(PageError::Oversized);
    }
    let mut page = header(0, 0, lsn);
    let mut off = HEADER_LEN;
    page[off..off + 4].copy_from_slice(&meta.root.to_le_bytes());
    page[off + 4..off + 8].copy_from_slice(&meta.page_count.to_le_bytes());
    page[off + 8..off + 12].copy_from_slice(&(meta.free.len() as u32).to_le_bytes());
    off += 12;
    for id in &meta.free {
        page[off..off + 4].copy_from_slice(&id.to_le_bytes());
        off += 4;
    }
    Ok(seal(page))
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

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_alignment() {
        // splitmix64 filler: any byte stream will do, it only has to differ
        // from position to position.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..8200 + 8)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for align in 0..8 {
            // Every short length (all remainders, 0..=9 whole chunks), then a
            // stride coprime to 8 up to past two pages.
            for len in (0..=80).chain((81..=8200).step_by(131)).chain([4096, 8200]) {
                let s = &buf[align..align + len];
                assert_eq!(
                    crc32(s),
                    !crc32_bytewise(0xFFFF_FFFF, s),
                    "align {align} len {len}"
                );
            }
        }
    }

    #[test]
    fn leaf_round_trips() {
        let node = Node::Leaf(vec![
            (b"alpha".to_vec(), b"1".to_vec()),
            (b"beta".to_vec(), vec![0xAB; 100]),
            (b"gamma".to_vec(), Vec::new()),
        ]);
        let page = encode_node(&node, 42).unwrap();
        assert_eq!(decode_node(&page).unwrap(), (node, 42));
    }

    #[test]
    fn branch_round_trips() {
        let node = Node::Branch {
            first: 7,
            seps: vec![(b"k1".to_vec(), 9), (b"k2".to_vec(), 12)],
        };
        let page = encode_node(&node, 3).unwrap();
        assert_eq!(decode_node(&page).unwrap(), (node, 3));
    }

    #[test]
    fn meta_round_trips() {
        let meta = Meta {
            root: 5,
            page_count: 17,
            free: vec![3, 9, 11],
        };
        let page = encode_meta(&meta, 8).unwrap();
        assert_eq!(decode_meta(&page).unwrap(), (meta, 8));
    }

    #[test]
    fn corruption_is_detected() {
        let node = Node::Leaf(vec![(b"k".to_vec(), b"v".to_vec())]);
        let mut page = encode_node(&node, 1).unwrap();
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
        let page = encode_node(&node, 1).unwrap();
        assert_eq!(decode_node(&page), Err(PageError::KeysOutOfOrder));
    }

    #[test]
    fn oversized_node_refused() {
        let entries: Vec<_> = (0..10u8)
            .map(|i| (vec![i; MAX_KEY], vec![i; MAX_VAL]))
            .collect();
        let node = Node::Leaf(entries);
        assert!(!node.fits());
        assert_eq!(encode_node(&node, 1), Err(PageError::Oversized));
    }
}
