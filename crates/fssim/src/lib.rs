// Test code may unwrap/expect/panic freely; non-test code is held to the
// disallowed-methods ban in this crate's clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

//! # fssim — a mini block file system with pluggable crash consistency
//!
//! The paper compares two stacks (Fig. 1):
//!
//! * **Classic** — Ext4 + JBD2 redo journaling above a Flashcache-managed
//!   NVM block cache: every committed block is written twice (journal copy,
//!   then checkpoint copy), and every cache write synchronously rewrites a
//!   metadata block.
//! * **Tinca** — the same file system with journaling *offloaded* to the
//!   transactional NVM cache: JBD2's `start_this_handle` /
//!   `jbd2_journal_commit_transaction` are replaced by `tinca_init_txn` /
//!   `tinca_commit`, and checkpointing is removed entirely (§5.1).
//!
//! `fssim` reproduces that comparison in user space: a small block file
//! system (flat namespace, inode table, block bitmap, direct + indirect +
//! double-indirect pointers, DRAM page cache) whose *commit* step is
//! selected by [`JournalMode`]:
//!
//! * [`JournalMode::Jbd2`] — data-journaling redo log with descriptor /
//!   commit blocks, circular journal space, lazy checkpointing, and replay
//!   recovery; runs on any [`Backend`].
//! * [`JournalMode::Tinca`] — one `commit_txn` call per transaction; needs
//!   a transactional backend (Tinca or UBJ).
//! * [`JournalMode::None`] — in-place writes, no crash consistency
//!   (the paper's "Ext4 without journaling" baseline of Figs. 3–4).
//!
//! The cache below is one closed [`Backend`]: Tinca, Classic, UBJ or the
//! bare disk. Its failures are [`BackendError`]s, one case per cache, and
//! the file system reports them as [`FsError::Backend`]. Asking a Tinca-mode
//! transaction of Classic or the bare disk is
//! [`BackendError::NoTransactions`].
//!
//! ```
//! use fssim::stack::{build, StackConfig, System};
//!
//! let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
//! let f = stack.fs.create("greeting.txt").unwrap();
//! stack.fs.write(f, 0, b"hello nvm").unwrap();
//! stack.fs.fsync().unwrap(); // one Tinca transaction, no journal
//! let mut buf = [0u8; 9];
//! stack.fs.read(f, 0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello nvm");
//! ```

mod backend;
mod bytes;
mod error;
mod fs;
mod geometry;
mod inode;
mod jbd2;
mod pagecache;
mod snapshot;
pub mod stack;

pub use backend::Backend;
pub use error::{BackendError, FsError};
pub use fs::{FileId, FsSim, FsStats};
pub use geometry::Geometry;
pub use inode::{Inode, INODES_PER_BLOCK, MAX_FILE_BLOCKS};
pub use jbd2::{JournalMode, JournalStats};
pub use snapshot::CacheSnapshot;
