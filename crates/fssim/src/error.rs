//! File-system and cache-layer error types.

use std::fmt;

use blockdev::IoError;
use classic::ClassicError;
use tinca::TincaError;
use ubj::UbjError;

/// Errors reported by [`crate::Backend`], one case per cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendError {
    Tinca(TincaError),
    Classic(ClassicError),
    Ubj(UbjError),
    /// A bare-disk request failed.
    Io(IoError),
    /// A transaction was asked of a cache that has none (Classic or the
    /// bare disk): the file system must journal above it.
    NoTransactions,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Tinca(e) => e.fmt(f),
            BackendError::Classic(e) => e.fmt(f),
            BackendError::Ubj(e) => e.fmt(f),
            BackendError::Io(e) => e.fmt(f),
            BackendError::NoTransactions => write!(
                f,
                "the cache has no transactional support — use JBD2 journaling above it"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<TincaError> for BackendError {
    fn from(e: TincaError) -> Self {
        BackendError::Tinca(e)
    }
}

impl From<ClassicError> for BackendError {
    fn from(e: ClassicError) -> Self {
        BackendError::Classic(e)
    }
}

impl From<UbjError> for BackendError {
    fn from(e: UbjError) -> Self {
        BackendError::Ubj(e)
    }
}

impl From<IoError> for BackendError {
    fn from(e: IoError) -> Self {
        BackendError::Io(e)
    }
}

/// Errors reported by [`crate::FsSim`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound(String),
    /// A file with this name already exists.
    Exists(String),
    /// File name longer than the name-table entry allows (55 bytes).
    NameTooLong(String),
    /// No free inodes / name slots.
    TooManyFiles,
    /// No free data blocks.
    NoSpace,
    /// Read/write beyond the maximum file size.
    FileTooLarge,
    /// The file system's or the journal's superblock is missing or damaged.
    BadSuperblock(String),
    /// The journal cannot hold a transaction even when empty.
    JournalFull,
    /// The cache layer failed an operation.
    Backend(BackendError),
}

impl<E: Into<BackendError>> From<E> for FsError {
    fn from(e: E) -> Self {
        FsError::Backend(e.into())
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "no such file: {n}"),
            FsError::Exists(n) => write!(f, "file exists: {n}"),
            FsError::NameTooLong(n) => write!(f, "file name too long: {n}"),
            FsError::TooManyFiles => write!(f, "out of inodes or name slots"),
            FsError::NoSpace => write!(f, "out of data blocks"),
            FsError::FileTooLarge => write!(f, "file exceeds maximum size"),
            FsError::BadSuperblock(m) => write!(f, "bad superblock: {m}"),
            FsError::JournalFull => write!(f, "journal too small for the transaction limit"),
            FsError::Backend(e) => write!(f, "cache backend error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_subject() {
        assert!(FsError::NotFound("a.txt".into())
            .to_string()
            .contains("a.txt"));
        assert!(FsError::NoSpace.to_string().contains("data blocks"));
    }
}
