//! The TPC-C record driver for kvdb: the same seeded key stream the
//! block-level benchmarks use ([`workloads::tpcc::gen_txn_keys`]),
//! applied as KV transactions. One stream, two durability personalities
//! — the WAL-elimination figure runs the *identical* plan against
//! [`crate::WalStore`] and [`crate::TincaStore`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::tpcc::{gen_txn_keys, RecordKey, Regions, TxnKeys};

use crate::db::Db;
use crate::store::{KvError, PageStore};

/// Bytes per TPC-C record value (a scaled-down row image).
pub(crate) const VALUE_LEN: usize = 120;

/// One planned KV transaction: the record keys it touches and the exact
/// encoded writes `apply` will issue (also the crash oracle's staged set).
#[derive(Clone, Debug)]
pub struct KvTxn {
    pub keys: TxnKeys,
    /// Encoded key → value, for every in-place write and append.
    pub writes: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Deterministic record image for `key` as of commit `seq`: the commit
/// sequence is recoverable from the first 8 bytes, so verification can
/// tell *which* transaction's write survived a crash.
pub(crate) fn value_for(key: &RecordKey, seq: u64) -> Vec<u8> {
    let enc = key.encode();
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&seq.to_le_bytes());
    while v.len() < VALUE_LEN {
        v.extend_from_slice(&enc);
    }
    v.truncate(VALUE_LEN);
    v
}

/// Seeded generator of TPC-C KV transactions.
pub struct KvTpccDriver {
    rng: StdRng,
    regions: Regions,
    warehouses: u32,
    cursors: Vec<u64>,
    seq: u64,
}

impl KvTpccDriver {
    /// A driver rolling the standard transaction mix over `warehouses`
    /// warehouses. The region layout (256 pages per warehouse) only
    /// shapes row skew here; record placement is the B-tree's business.
    pub fn new(seed: u64, warehouses: u32) -> KvTpccDriver {
        KvTpccDriver {
            rng: StdRng::seed_from_u64(seed),
            regions: Regions::new(256),
            warehouses,
            cursors: vec![0; warehouses as usize],
            seq: 0,
        }
    }

    /// Rolls the next transaction. The home warehouse rotates so every
    /// warehouse's hot rows get traffic.
    pub fn next_txn(&mut self) -> KvTxn {
        self.seq += 1;
        let home = (self.seq % u64::from(self.warehouses)) as u32;
        let keys = gen_txn_keys(
            &mut self.rng,
            &self.regions,
            home,
            self.warehouses,
            &mut self.cursors,
        );
        let writes = keys
            .writes
            .iter()
            .chain(keys.appends.iter())
            .map(|k| (k.encode().to_vec(), value_for(k, self.seq)))
            .collect();
        KvTxn { keys, writes }
    }

    /// Transactions rolled so far (= the commit seq of the last one).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// Applies one planned transaction: reads its read set, writes its write
/// set, commits. The `Db` transaction makes all of it atomic-durable.
pub fn apply_txn<S: PageStore>(db: &mut Db<S>, txn: &KvTxn) -> Result<(), KvError> {
    db.begin()?;
    for k in &txn.keys.reads {
        let _ = db.get(&k.encode())?;
    }
    for (k, v) in &txn.writes {
        db.put(k, v)?;
    }
    db.commit()
}
