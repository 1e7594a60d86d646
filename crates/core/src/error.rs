//! Error type for cache operations.

use std::fmt;

use blockdev::IoError;

/// Errors reported by [`crate::TincaPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TincaError {
    /// The transaction stages more blocks than the ring buffer can record.
    TxnTooLarge { blocks: usize, ring_cap: u64 },
    /// The transaction cannot fit in the cache even after evicting every
    /// unpinned block (a committing transaction may pin up to two NVM
    /// blocks per staged block, §5.4.3). `available` counts the free pool
    /// plus every block evictable during this commit.
    CacheExhausted { needed: usize, available: usize },
    /// No evictable victim was found while allocating a block mid-commit.
    NoVictim,
    /// The NVM region does not carry a valid Tinca header.
    BadMagic { found: u64 },
    /// The NVM header disagrees with the geometry derived from the current
    /// configuration (e.g. the region was formatted with a different
    /// `ring_bytes` or capacity). Recovering with mismatched geometry
    /// would misaddress every entry and data block, so recovery refuses.
    GeometryMismatch {
        /// Which header field disagrees (`"ring_cap"`, `"entry_count"`,
        /// `"data_blocks"`).
        field: &'static str,
        /// The value stored in the NVM header.
        found: u64,
        /// The value the current configuration expects.
        expected: u64,
    },
    /// A persisted cache entry contradicts the rest of the entry table
    /// after recovery judged the ring: it maps a disk block or names an
    /// NVM block that another valid entry already holds, or its NVM block
    /// lies outside the data area. Recovery refuses to rebuild the DRAM
    /// index over it.
    CorruptEntry {
        /// Index of the offending entry.
        entry: u32,
        /// What is wrong with it.
        fault: &'static str,
        /// The disk or NVM block number the fault concerns.
        block: u64,
    },
    /// `flush_all` was called while a transaction was mid-commit
    /// (`Head != Tail`): flushing would write back blocks the crash
    /// protocol may still revoke.
    CommitInProgress { head: u64, tail: u64 },
    /// A disk I/O failed after exhausting the configured retries (or
    /// immediately, for permanent faults).
    Io(IoError),
}

impl From<IoError> for TincaError {
    fn from(e: IoError) -> Self {
        TincaError::Io(e)
    }
}

impl fmt::Display for TincaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TincaError::TxnTooLarge { blocks, ring_cap } => {
                write!(
                    f,
                    "transaction of {blocks} blocks exceeds ring capacity {ring_cap}"
                )
            }
            TincaError::CacheExhausted { needed, available } => {
                write!(
                    f,
                    "transaction needs up to {needed} NVM blocks but only {available} \
                     are free or evictable"
                )
            }
            TincaError::NoVictim => write!(f, "no evictable cache block (all pinned)"),
            TincaError::BadMagic { found } => {
                write!(f, "NVM region is not a Tinca cache (magic {found:#x})")
            }
            TincaError::GeometryMismatch {
                field,
                found,
                expected,
            } => {
                write!(
                    f,
                    "NVM header geometry mismatch: {field} is {found} but the \
                     configuration expects {expected} (changed ring_bytes or capacity?)"
                )
            }
            TincaError::CorruptEntry {
                entry,
                fault,
                block,
            } => {
                write!(f, "corrupt cache entry {entry}: {fault} (block {block})")
            }
            TincaError::CommitInProgress { head, tail } => {
                write!(
                    f,
                    "operation refused while a transaction is committing \
                     (head={head}, tail={tail})"
                )
            }
            TincaError::Io(e) => write!(f, "disk I/O failed: {e}"),
        }
    }
}

impl std::error::Error for TincaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TincaError::TxnTooLarge {
            blocks: 100,
            ring_cap: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
        let e = TincaError::BadMagic { found: 0xabc };
        assert!(e.to_string().contains("0xabc"));
        let e = TincaError::GeometryMismatch {
            field: "ring_cap",
            found: 128,
            expected: 8192,
        };
        assert!(e.to_string().contains("ring_cap"));
        assert!(e.to_string().contains("128"));
        assert!(e.to_string().contains("8192"));
        let e = TincaError::CorruptEntry {
            entry: 12,
            fault: "NVM block outside the data area",
            block: 4096,
        };
        assert!(e.to_string().contains("entry 12"));
        assert!(e.to_string().contains("outside the data area"));
        assert!(e.to_string().contains("4096"));
        let e = TincaError::CommitInProgress { head: 9, tail: 5 };
        assert!(e.to_string().contains("head=9"));
        let e = TincaError::from(IoError::BadBlock { blk: 77 });
        assert_eq!(e, TincaError::Io(IoError::BadBlock { blk: 77 }));
        assert!(e.to_string().contains("77"));
    }
}
