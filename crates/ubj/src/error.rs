//! Error type for the UBJ cache.

use std::fmt;

/// Why a UBJ operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UbjError {
    /// [`crate::UbjCache::recover`] found no UBJ header.
    NotFormatted,
    /// The header's entry or block count disagrees with the layout the
    /// region's capacity implies.
    GeometryMismatch,
    /// A transaction needs at least half of the NVM buffer.
    TxnTooLarge { blocks: usize, buffer_blocks: u32 },
    /// Every NVM block is dirty or frozen and nothing is left to
    /// checkpoint.
    NvmExhausted,
}

impl fmt::Display for UbjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UbjError::NotFormatted => write!(f, "not a UBJ region"),
            UbjError::GeometryMismatch => write!(f, "header/capacity mismatch"),
            UbjError::TxnTooLarge {
                blocks,
                buffer_blocks,
            } => write!(
                f,
                "transaction of {blocks} blocks cannot fit the {buffer_blocks}-block NVM buffer"
            ),
            UbjError::NvmExhausted => {
                write!(f, "NVM buffer exhausted: everything dirty or frozen")
            }
        }
    }
}

impl std::error::Error for UbjError {}
