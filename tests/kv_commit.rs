//! Tier-1 coverage of kvdb's commit batch: the meta page (page 0) rides in
//! a commit **iff** root, allocation frontier or free list changed since the
//! last durable meta image — a split that omits it loses the tree, a plain
//! update that carries it is the every-commit metadata write the paper's §3
//! charges Flashcache with. A counting [`PageStore`] over a 2-shard
//! [`TincaStore`] sees every batch; a power cut after a run of meta-less
//! commits then checks that a reopen from the stale meta page finds the
//! whole tree and keeps page LSNs monotone.

use std::collections::BTreeMap;

use kvdb::page::{decode_meta, is_blank};
use kvdb::{Db, KvError, Meta, PageStore, StoreStats, TincaStore, TincaStoreConfig, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca_repro::nvmsim::CrashPolicy;

const SEED: u64 = 0x7126_0015;
const KEYS: u32 = 600;
const TXNS: usize = 320;

fn lsn_of(page: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(page[8..16].try_into().expect("8 bytes"))
}

/// Passes every call through and keeps what crossed the seam.
struct Counting {
    inner: TincaStore,
    /// The meta image of the last batch that carried page 0.
    durable_meta: Option<Meta>,
    /// Page ids of the last batch.
    last_batch: Vec<u32>,
    /// Lowest LSN stamped on a page of the last batch.
    last_batch_min_lsn: u64,
    /// Highest LSN on any page read back.
    max_lsn_read: u64,
    meta_batches: u64,
    meta_less_batches: u64,
}

impl Counting {
    fn new(inner: TincaStore) -> Counting {
        Counting {
            inner,
            durable_meta: None,
            last_batch: Vec::new(),
            last_batch_min_lsn: 0,
            max_lsn_read: 0,
            meta_batches: 0,
            meta_less_batches: 0,
        }
    }
}

impl PageStore for Counting {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        self.inner.read_page(id, buf)?;
        if !is_blank(buf) {
            self.max_lsn_read = self.max_lsn_read.max(lsn_of(buf));
        }
        Ok(())
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        self.inner.commit_pages(dirty)?;
        self.last_batch = dirty.iter().map(|(id, _)| *id).collect();
        self.last_batch_min_lsn = dirty.iter().map(|(_, p)| lsn_of(p)).min().unwrap_or(0);
        match dirty.iter().find(|(id, _)| *id == 0) {
            Some((_, page)) => {
                self.durable_meta = Some(decode_meta(page).expect("meta image decodes").0);
                self.meta_batches += 1;
            }
            None => self.meta_less_batches += 1,
        }
        Ok(())
    }

    fn page_capacity(&self) -> u32 {
        self.inner.page_capacity()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

fn val(i: u32, tag: u32) -> Vec<u8> {
    format!("val-{i:06}-{tag:06}-{}", "x".repeat(300)).into_bytes()
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One transaction: `puts` random upserts, then the contiguous run
/// `deletes` (so whole leaves empty). Upserts grow the tree — splits move
/// the frontier and the root; runs shrink it — emptied leaves join the
/// free list, the root collapses.
fn txn(
    db: &mut Db<Counting>,
    model: &mut Model,
    rng: &mut StdRng,
    n: u32,
    puts: u32,
    deletes: std::ops::Range<u32>,
) {
    db.begin().unwrap();
    for _ in 0..puts {
        let i = rng.gen_range(0..KEYS);
        db.put(&key(i), &val(i, n)).unwrap();
        model.insert(key(i), val(i, n));
    }
    for i in deletes {
        let k = key(i % KEYS);
        assert_eq!(db.delete(&k).unwrap(), model.remove(&k).is_some());
    }
    let before = db.store().durable_meta.clone();
    let batches = db.store().meta_batches + db.store().meta_less_batches;
    let staged = db.meta().clone();
    db.commit().unwrap();
    let store = db.store();
    if store.meta_batches + store.meta_less_batches == batches {
        // Every delete missed: nothing changed, nothing committed.
        assert_eq!(before.as_ref(), Some(&staged), "txn {n}");
        return;
    }
    assert_eq!(
        store.last_batch.contains(&0),
        before.as_ref() != Some(&staged),
        "txn {n}: batch {:?}, durable meta {before:?}, staged meta {staged:?}",
        store.last_batch
    );
    assert_eq!(store.durable_meta.as_ref(), Some(&staged), "txn {n}");
}

#[test]
fn meta_page_rides_iff_root_frontier_or_free_list_changed() {
    let cfg = TincaStoreConfig {
        nvm_bytes_per_shard: 1 << 20,
        ..TincaStoreConfig::default()
    };
    let mut db = Db::open(Counting::new(TincaStore::format(cfg))).unwrap();
    assert_eq!(db.store().last_batch, vec![0, 1], "format commits the meta");
    let mut model = Model::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut grew, mut freed, mut rerooted) = (0, 0, 0);
    for n in 0..TXNS as u32 {
        // Grow; sweep the key space empty from the left, so the root
        // branch runs out of separators and collapses; grow again, with
        // short delete runs mixed in.
        let (puts, deletes) = match n {
            0..=119 => (rng.gen_range(1..=2), 0..0),
            120..=169 => (0, (n - 120) * 13..(n - 119) * 13),
            _ => {
                let base = rng.gen_range(0..KEYS);
                (rng.gen_range(1..=2), base..base + n % 4)
            }
        };
        let was = db.meta().clone();
        txn(&mut db, &mut model, &mut rng, n, puts, deletes);
        let now = db.meta();
        grew += u32::from(now.page_count > was.page_count);
        freed += u32::from(now.free.len() > was.free.len());
        rerooted += u32::from(now.root != was.root);
    }
    // Both directions of the iff were exercised, for each meta field.
    let s = db.store();
    assert!(
        grew >= 5 && freed >= 5 && rerooted >= 2,
        "{grew} {freed} {rerooted}"
    );
    assert!(s.meta_batches >= 12, "{} meta batches", s.meta_batches);
    assert!(
        s.meta_less_batches >= 100,
        "{} meta-less batches",
        s.meta_less_batches
    );

    // A run of plain updates: no split, no free — meta-less commits only.
    let survivors: Vec<Vec<u8>> = model.keys().take(8).cloned().collect();
    assert_eq!(survivors.len(), 8);
    for (j, k) in survivors.iter().enumerate() {
        db.begin().unwrap();
        let v = val(j as u32, 999_000 + j as u32);
        db.put(k, &v).unwrap();
        model.insert(k.clone(), v);
        db.commit().unwrap();
        assert!(
            !db.store().last_batch.contains(&0),
            "update {j} wrote page 0"
        );
    }
    let last_lsn = db.commit_seq();

    // Power cut; the meta page on the device is 8+ commits old.
    let store = db.into_store().inner;
    for d in store.devices() {
        d.crash(CrashPolicy::Random(SEED));
    }
    let (devices, disk, clock, cfg) = store.into_parts();
    let store = TincaStore::recover(devices, disk, clock, cfg).unwrap();
    let mut db = Db::open(Counting::new(store)).unwrap();
    let meta_lsn = db.commit_seq();
    assert!(
        meta_lsn + 8 <= last_lsn,
        "meta lsn {meta_lsn} vs {last_lsn}"
    );
    db.validate().unwrap();
    let got: Model = db.scan_all().unwrap().into_iter().collect();
    assert_eq!(got, model);

    // The scan read every page back: the next commit stamps above all of
    // them, not above the stale meta LSN.
    assert_eq!(db.store().max_lsn_read, last_lsn);
    db.begin().unwrap();
    db.put(&survivors[0], b"after the cut").unwrap();
    db.commit().unwrap();
    assert!(!db.store().last_batch.is_empty());
    assert!(
        db.store().last_batch_min_lsn > db.store().max_lsn_read,
        "page re-stamped at {} after carrying {}",
        db.store().last_batch_min_lsn,
        db.store().max_lsn_read
    );
}
