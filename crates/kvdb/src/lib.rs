//! kvdb — an embedded transactional B-tree KV personality over Tinca.
//!
//! The paper's argument is that a transactional NVM cache lets the
//! *file system* shed its journal. This crate makes the same argument
//! one level up the storage stack, where the "journaling of journal"
//! problem (§2.2) classically lives: an embedded ordered KV store whose
//! commit unit is a batch of dirty B-tree pages, with two durability
//! personalities behind one [`PageStore`] seam:
//!
//! * **WalMode** ([`WalStore`]) — the conventional shape: an ARIES-lite
//!   redo WAL on a journaling file system over the classic
//!   Ext4+JBD2+Flashcache stack. Every logical page travels through the
//!   app WAL, the FS journal, the FS home location, and the database
//!   file.
//! * **TincaMode** ([`TincaStore`]) — no WAL anywhere: each KV commit
//!   stages its dirty pages as one Tinca pool transaction and the ring
//!   commit is the durability point. Commits whose pages map to more
//!   than one shard ride the pool's persistent two-phase spanning path.
//!
//! Both personalities are driven by the same TPC-C record stream
//! ([`KvTpccDriver`]), crash-fuzzed by the same campaigns
//! ([`crash`]), and compared by the `wal_elim` bench figure.
//!
//! ```
//! use kvdb::{Db, TincaStore, TincaStoreConfig};
//!
//! let mut db = Db::open(TincaStore::format(TincaStoreConfig::default())).unwrap();
//! db.begin().unwrap();
//! db.put(b"k1", b"v1").unwrap();
//! db.commit().unwrap(); // one pool transaction; ring commit = durable
//! assert_eq!(db.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
//! ```
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]

pub mod crash;
pub mod db;
pub mod driver;
pub mod page;
pub mod store;
mod tincastore;
pub mod wal;

pub use crash::{judge, KvApp, KvPlan, Personality, CAMPAIGNS, TXNS};
pub use db::{Db, TreeError};
pub use driver::{apply_txn, KvTpccDriver, KvTxn};
pub use page::{Meta, PageError, MAX_KEY, MAX_VAL, PAGE_SIZE};
pub use store::{KvError, PageStore, StoreStats};
pub use tincastore::{TincaStore, TincaStoreConfig};
pub use wal::{WalConfig, WalStore};
