//! Error type for the Classic cache.

use std::fmt;

use blockdev::IoError;

/// Why a Classic cache operation failed.
///
/// The Classic baseline has no retry or quarantine machinery — that is
/// Tinca's contribution — so any disk error aborts the operation in
/// progress and is handed to the caller (the journaling file system
/// above, which treats it like a failed bio).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassicError {
    /// A backing-disk request failed.
    Io {
        /// The cache operation that needed the disk (`"writeback"`,
        /// `"read miss fill"`, ...).
        op: &'static str,
        /// The disk block the failed request addressed.
        disk_blk: u64,
        /// The underlying device error.
        source: IoError,
    },
    /// [`crate::ClassicCache::recover`] found no Classic header.
    NotFormatted { magic: u64 },
    /// The header's block count or associativity disagrees with the
    /// configuration the region is opened with.
    GeometryMismatch,
}

impl ClassicError {
    /// Tags a disk error with the cache operation it interrupted.
    pub fn io(op: &'static str, disk_blk: u64, source: IoError) -> ClassicError {
        ClassicError::Io {
            op,
            disk_blk,
            source,
        }
    }
}

impl fmt::Display for ClassicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassicError::Io {
                op,
                disk_blk,
                source,
            } => write!(
                f,
                "classic cache {op} of disk block {disk_blk} failed: {source}"
            ),
            ClassicError::NotFormatted { magic } => {
                write!(f, "not a Classic cache region (magic {magic:#x})")
            }
            ClassicError::GeometryMismatch => write!(f, "header/configuration mismatch"),
        }
    }
}

impl std::error::Error for ClassicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClassicError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_op_and_block() {
        let e = ClassicError::io("writeback", 42, IoError::BadBlock { blk: 42 });
        let s = e.to_string();
        assert!(s.contains("writeback") && s.contains("42"));
    }
}
