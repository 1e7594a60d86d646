//! The durability seam: one [`PageStore`] trait, two personalities.
//!
//! [`crate::Db`] reads pages and commits batches of dirty page images;
//! *how* a batch becomes durable and atomic is the store's business:
//!
//! * [`crate::WalStore`] — ARIES-lite redo WAL over the classic
//!   Ext4+JBD2+Flashcache stack (page images appended and fsynced, home
//!   pages written back at checkpoints, replay on recovery);
//! * [`crate::TincaStore`] — no WAL at all: the batch is one Tinca
//!   transaction and the ring commit is the durability point.

use std::fmt;

use crate::page::{PageError, PAGE_SIZE};

/// KV-store errors. Storage faults are values, never panics — the crash
/// apps distinguish an injected [`nvmsim::CrashTripped`] panic from a
/// genuine bug by the fact that the genuine path returns `Err`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// The backing store failed (device, filesystem, or cache error).
    Store(String),
    /// A page failed structural validation — torn or stale on-device data.
    Corrupt { page: u32, err: PageError },
    /// The store's page budget is exhausted.
    Full,
    /// Key longer than [`crate::page::MAX_KEY`].
    KeyTooLarge(usize),
    /// Value longer than [`crate::page::MAX_VAL`].
    ValTooLarge(usize),
    /// A mutation outside `begin`..`commit`, or a nested `begin`.
    TxnState(&'static str),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Store(m) => write!(f, "store error: {m}"),
            KvError::Corrupt { page, err } => write!(f, "page {page} corrupt: {err}"),
            KvError::Full => write!(f, "out of pages"),
            KvError::KeyTooLarge(n) => write!(f, "key too large: {n} bytes"),
            KvError::ValTooLarge(n) => write!(f, "value too large: {n} bytes"),
            KvError::TxnState(m) => write!(f, "transaction misuse: {m}"),
        }
    }
}

telemetry::counters! {
    /// Device-write accounting for the WAL-elimination comparison: how many
    /// bytes actually reached persistent media on behalf of this store.
    pub struct StoreStats {
        /// KV commits executed.
        pub commits: u64,
        /// Dirty pages carried by those commits.
        pub pages_committed: u64,
        /// Bytes written back to the NVM medium (cache lines × 64).
        pub nvm_bytes: u64,
        /// Bytes written to the disk (blocks × 4096).
        pub disk_bytes: u64,
    }
}

impl StoreStats {
    /// Total bytes that hit persistent devices.
    pub fn device_bytes(&self) -> u64 {
        self.nvm_bytes + self.disk_bytes
    }

    /// Write amplification relative to the logical commit payload.
    pub fn amplification(&self) -> f64 {
        let logical = self.pages_committed * PAGE_SIZE as u64;
        if logical == 0 {
            return 0.0;
        }
        self.device_bytes() as f64 / logical as f64
    }
}

/// What [`crate::Db`] needs from a durability backend.
pub trait PageStore {
    /// Reads page `id` into `buf`. A page that was never committed reads
    /// as all zeros ([`crate::page::is_blank`]).
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError>;

    /// Atomically and durably applies one commit's dirty page images.
    /// After a crash anywhere inside this call, recovery must surface
    /// either every image or none of them.
    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError>;

    /// Pages this store can address.
    fn page_capacity(&self) -> u32;

    /// Device-write accounting so far.
    fn stats(&self) -> StoreStats;
}
