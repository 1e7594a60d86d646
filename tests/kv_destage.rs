//! Tier-1 guard of the pool extensions `kvdb::TincaStore` runs: a TPC-C
//! tree that outgrows the store's NVM must send its dirty victims to disk
//! on the destage lane, never on a commit, while coalesced flushes and
//! delta staging stay on.
//!
//! With 128 KB of NVM a shard and eight warehouses, the daemon's first
//! batch fires near transaction 670 and the first eviction comes near
//! transaction 820, each of a victim a batch had already made clean.

use kvdb::{apply_txn, Db, KvTpccDriver, TincaStore, TincaStoreConfig};

const SEED: u64 = 1;
const WAREHOUSES: u32 = 8;
const TXNS: usize = 900;

#[test]
fn dirty_victims_leave_on_the_destage_lane_not_on_a_commit() {
    let store = TincaStore::format(TincaStoreConfig {
        nvm_bytes_per_shard: 128 << 10,
        ..TincaStoreConfig::default()
    });
    let mut db = Db::open(store).expect("open a fresh store");
    let mut driver = KvTpccDriver::new(SEED, WAREHOUSES);
    for _ in 0..TXNS {
        apply_txn(&mut db, &driver.next_txn()).expect("commit");
    }
    let s = db.store().pool().stats();
    assert!(s.destage_batches > 0, "the destage daemon never fired");
    assert_eq!(
        s.writebacks, s.destage_blocks,
        "a commit wrote a dirty victim back itself"
    );
    assert!(s.evictions > 0, "the tree never outgrew the NVM");
    assert!(s.coalesced_flushes > 0, "no commit coalesced its flushes");
    assert!(s.delta_stages > 0, "no page rewrite was delta-staged");
}
