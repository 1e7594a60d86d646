//! B-tree correctness: unit tests for splits, merges and the page codec,
//! plus property tests against a `BTreeMap` model on both durability
//! personalities, and a seeded model run on a tree that outgrows the page
//! cache.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::collections::BTreeMap;
use std::ops::Bound;

use kvdb::{
    Db, KvError, PageStore, StoreStats, TincaStore, TincaStoreConfig, WalConfig, WalStore,
    PAGE_SIZE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tinca_db() -> Db<TincaStore> {
    Db::open(TincaStore::format(TincaStoreConfig {
        nvm_bytes_per_shard: 1 << 20,
        ..TincaStoreConfig::default()
    }))
    .unwrap()
}

fn wal_db() -> Db<WalStore> {
    Db::open(WalStore::tiny(WalConfig::default()).unwrap()).unwrap()
}

fn k(i: u32) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

fn v(i: u32, tag: u32) -> Vec<u8> {
    format!("val-{i:06}-{tag:04}-{}", "x".repeat(32)).into_bytes()
}

#[test]
fn put_get_roundtrip_both_personalities() {
    for mode in ["tinca", "wal"] {
        type PutGet<'a> = &'a mut dyn FnMut(&[u8], &[u8]) -> Option<Vec<u8>>;
        let check = |db: PutGet<'_>| {
            assert_eq!(db(b"alpha", b"1"), Some(b"1".to_vec()), "{mode}");
        };
        match mode {
            "tinca" => {
                let mut db = tinca_db();
                check(&mut |key, val| {
                    db.begin().unwrap();
                    db.put(key, val).unwrap();
                    db.commit().unwrap();
                    db.get(key).unwrap()
                });
            }
            _ => {
                let mut db = wal_db();
                check(&mut |key, val| {
                    db.begin().unwrap();
                    db.put(key, val).unwrap();
                    db.commit().unwrap();
                    db.get(key).unwrap()
                });
            }
        }
    }
}

#[test]
fn splits_preserve_order_and_contents() {
    let mut db = tinca_db();
    let n = 500u32;
    db.begin().unwrap();
    for i in 0..n {
        // Insertion order hostile to naive splitting: alternating ends.
        let i = if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 };
        db.put(&k(i), &v(i, 0)).unwrap();
    }
    db.commit().unwrap();
    db.validate().unwrap();
    let all = db.scan_all().unwrap();
    assert_eq!(all.len(), n as usize);
    for (i, (key, val)) in all.iter().enumerate() {
        assert_eq!(key, &k(i as u32));
        assert_eq!(val, &v(i as u32, 0));
    }
}

#[test]
fn overwrites_do_not_grow_the_tree() {
    let mut db = tinca_db();
    db.begin().unwrap();
    for i in 0..200 {
        db.put(&k(i), &v(i, 0)).unwrap();
    }
    db.commit().unwrap();
    let count_before = db.scan_all().unwrap().len();
    db.begin().unwrap();
    for i in 0..200 {
        db.put(&k(i), &v(i, 1)).unwrap();
    }
    db.commit().unwrap();
    db.validate().unwrap();
    assert_eq!(db.scan_all().unwrap().len(), count_before);
    assert_eq!(db.get(&k(77)).unwrap(), Some(v(77, 1)));
}

#[test]
fn delete_shrinks_back_to_empty_root() {
    let mut db = tinca_db();
    let n = 400u32;
    db.begin().unwrap();
    for i in 0..n {
        db.put(&k(i), &v(i, 0)).unwrap();
    }
    db.commit().unwrap();
    db.begin().unwrap();
    for i in 0..n {
        assert!(db.delete(&k(i)).unwrap(), "key {i} missing at delete");
        if i % 67 == 0 {
            db.validate().unwrap();
        }
    }
    db.commit().unwrap();
    db.validate().unwrap();
    assert!(db.scan_all().unwrap().is_empty());
    // The emptied tree's pages were freed and get reused.
    db.begin().unwrap();
    for i in 0..n {
        db.put(&k(i), &v(i, 2)).unwrap();
    }
    db.commit().unwrap();
    db.validate().unwrap();
    assert_eq!(db.scan_all().unwrap().len(), n as usize);
}

#[test]
fn scan_bounds_match_btreemap_semantics() {
    let mut db = tinca_db();
    let mut model = BTreeMap::new();
    db.begin().unwrap();
    for i in (0..300).step_by(3) {
        db.put(&k(i), &v(i, 0)).unwrap();
        model.insert(k(i), v(i, 0));
    }
    db.commit().unwrap();
    let lo = k(30);
    let hi = k(180);
    let got = db.scan(Bound::Included(&lo), Bound::Excluded(&hi)).unwrap();
    let want: Vec<_> = model
        .range::<Vec<u8>, _>((Bound::Included(&lo), Bound::Excluded(&hi)))
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn txn_state_is_enforced() {
    let mut db = tinca_db();
    assert!(matches!(db.put(b"a", b"b"), Err(KvError::TxnState(_))));
    assert!(matches!(db.commit(), Err(KvError::TxnState(_))));
    db.begin().unwrap();
    assert!(matches!(db.begin(), Err(KvError::TxnState(_))));
    db.commit().unwrap();
}

#[test]
fn size_limits_are_enforced() {
    let mut db = tinca_db();
    db.begin().unwrap();
    assert!(matches!(
        db.put(&[7u8; kvdb::MAX_KEY + 1], b"v"),
        Err(KvError::KeyTooLarge(_))
    ));
    assert!(matches!(db.put(b"", b"v"), Err(KvError::KeyTooLarge(0))));
    assert!(matches!(
        db.put(b"k", &vec![0u8; kvdb::MAX_VAL + 1]),
        Err(KvError::ValTooLarge(_))
    ));
    db.commit().unwrap();
}

#[test]
fn wal_store_survives_checkpoints() {
    // A checkpoint threshold small enough that the workload crosses it
    // several times: contents must be identical before and after.
    let mut db = Db::open(
        WalStore::tiny(WalConfig {
            checkpoint_bytes: 64 << 10,
            ..WalConfig::default()
        })
        .unwrap(),
    )
    .unwrap();
    let mut model = BTreeMap::new();
    for round in 0..6u32 {
        db.begin().unwrap();
        for i in 0..40 {
            let key = k(i * 7 % 97);
            let val = v(i, round);
            db.put(&key, &val).unwrap();
            model.insert(key, val);
        }
        db.commit().unwrap();
    }
    db.validate().unwrap();
    let got: BTreeMap<_, _> = db.scan_all().unwrap().into_iter().collect();
    assert_eq!(got, model);
    assert!(db.store().stats().commits >= 6);
}

#[test]
fn stats_count_commits_and_device_bytes() {
    let mut db = tinca_db();
    db.begin().unwrap();
    db.put(b"k", b"v").unwrap();
    db.commit().unwrap();
    let s = db.store().stats();
    assert!(s.commits >= 1);
    assert!(s.pages_committed >= 2, "meta + leaf");
    assert!(s.device_bytes() > 0);
    assert!(s.amplification() > 0.0);
}

// ---------------------------------------------------------------------------
// Property tests vs the BTreeMap model
// ---------------------------------------------------------------------------

/// Clean reopen on the same devices: recover the pool, reopen the tree
/// from the committed meta page — which, after meta-less commits, is older
/// than the newest leaves.
fn reopen_tinca(db: Db<TincaStore>) -> Db<TincaStore> {
    let (devices, disk, clock, cfg) = db.into_store().into_parts();
    Db::open(TincaStore::recover(devices, disk, clock, cfg).unwrap()).unwrap()
}

/// A checkpoint threshold the scripts cross every few commits, so a reopen
/// finds pages both in `kv.db` and only in the WAL.
const SMALL_WAL: WalConfig = WalConfig {
    checkpoint_bytes: 40 << 10,
    page_capacity: 8192,
    traced: false,
};

/// Remount on the same stack: the store's DRAM home-page buffer is dropped,
/// WAL replay has to rebuild it.
fn reopen_wal(cfg: WalConfig) -> impl Fn(Db<WalStore>) -> Db<WalStore> {
    move |db| Db::open(WalStore::mount(db.into_store().into_stack(), cfg).unwrap()).unwrap()
}

/// One scripted op: key index into a small key universe, a value tag, and
/// a kind — 0 reopens the store after the transaction commits, odd kinds
/// put, even kinds delete.
type ScriptOp = (u16, u8, u8);

fn script(max_len: usize) -> impl Strategy<Value = Vec<ScriptOp>> {
    proptest::collection::vec((0u16..400, 0u8..255, 0u8..11), 1..max_len)
}

fn run_model_script<S: PageStore>(
    mut db: Db<S>,
    ops: &[ScriptOp],
    reopen: impl Fn(Db<S>) -> Db<S>,
) {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for chunk in ops.chunks(5) {
        db.begin().unwrap();
        for &(ki, vi, kind) in chunk {
            let key = k(u32::from(ki) % 113);
            if kind == 0 {
                continue;
            } else if kind % 2 == 1 {
                let val = v(u32::from(ki), u32::from(vi));
                db.put(&key, &val).unwrap();
                model.insert(key, val);
            } else {
                let want = model.remove(&key).is_some();
                assert_eq!(db.delete(&key).unwrap(), want);
            }
        }
        db.commit().unwrap();
        if chunk.iter().any(|op| op.2 == 0) {
            let lsn = db.commit_seq();
            db = reopen(db);
            assert!(db.commit_seq() <= lsn);
            db.validate().unwrap();
            let got: BTreeMap<_, _> = db.scan_all().unwrap().into_iter().collect();
            assert_eq!(got, model, "contents after reopen");
            // Every page was just read back: the next commit stamps above
            // all of them even if the meta page is older.
            assert_eq!(db.commit_seq(), lsn, "newest LSN read back");
        }
    }
    db.validate().unwrap();
    let got: BTreeMap<_, _> = db.scan_all().unwrap().into_iter().collect();
    assert_eq!(got, model);
    for (key, val) in &model {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(val));
    }
}

proptest! {
    #[test]
    fn tinca_db_matches_btreemap_model(ops in script(120)) {
        run_model_script(tinca_db(), &ops, reopen_tinca);
    }

    #[test]
    fn wal_db_matches_btreemap_model(ops in script(60)) {
        run_model_script(wal_db(), &ops, reopen_wal(WalConfig::default()));
    }

    #[test]
    fn wal_db_reopens_across_checkpoints(ops in script(60)) {
        let db = Db::open(WalStore::tiny(SMALL_WAL).unwrap()).unwrap();
        run_model_script(db, &ops, reopen_wal(SMALL_WAL));
    }

    #[test]
    fn reopen_preserves_contents(
        ops in proptest::collection::vec((0u16..200, 0u8..255), 1..60),
    ) {
        let mut db = tinca_db();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        db.begin().unwrap();
        for &(ki, vi) in &ops {
            let key = k(u32::from(ki) % 67);
            let val = v(u32::from(ki), u32::from(vi));
            db.put(&key, &val).unwrap();
            model.insert(key, val);
        }
        db.commit().unwrap();
        // Clean reopen on the same devices: recover the pool, reopen the
        // tree from the committed meta page.
        let (devices, disk, clock, cfg) = db.into_store().into_parts();
        let store = TincaStore::recover(devices, disk, clock, cfg).unwrap();
        let mut db = Db::open(store).unwrap();
        db.validate().unwrap();
        let got: BTreeMap<_, _> = db.scan_all().unwrap().into_iter().collect();
        prop_assert_eq!(got, model);
    }
}

// ---------------------------------------------------------------------------
// The write descent under eviction
// ---------------------------------------------------------------------------

/// Committed pages in memory, counting reads; a page never committed
/// reads as zeros.
#[derive(Default)]
struct MemStore {
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
    reads: u64,
    stats: StoreStats,
}

impl PageStore for MemStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        self.reads += 1;
        match self.pages.get(&id) {
            Some(page) => buf.copy_from_slice(&page[..]),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        for (id, page) in dirty {
            self.pages.insert(*id, Box::new(*page));
        }
        self.stats.commits += 1;
        self.stats.pages_committed += dirty.len() as u64;
        Ok(())
    }

    fn page_capacity(&self) -> u32 {
        u32::MAX
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

/// Live pages at which the first round stops growing: past the page
/// cache's 1 024, so every commit from there on evicts.
const PEAK_PAGES: u32 = 1_100;

/// What one round of [`evicting_model_run`] exercised.
#[derive(Debug, Default)]
struct Round {
    /// Transactions that allocated a page: leaf or branch splits.
    splits: u32,
    /// Transactions that freed a page.
    frees: u32,
    /// Transactions that moved the root while shrinking: root collapses.
    collapses: u32,
    /// Pages read back from the store: each one was evicted first.
    reads: u64,
}

/// A random key: eight hex digits, then 0–23 filler bytes.
fn random_key(rng: &mut StdRng) -> Vec<u8> {
    let mut key = format!("{:08x}", rng.gen::<u32>()).into_bytes();
    key.resize(8 + rng.gen_range(0..24usize), b'~');
    key
}

/// Seeded puts, deletes, gets and scans against a `BTreeMap` model, with
/// `validate` every 500 ops. Each round grows the tree past [`PEAK_PAGES`]
/// and then deletes every key, so splits and frees run while the cache
/// evicts, and the root collapses level by level over pages that were
/// evicted and read back. Ops come in runs of neighbouring keys, so whole
/// leaves fill and empty within a transaction.
fn evicting_model_run(seed: u64, rounds: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Db::open(MemStore::default()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut ops = 0u32;
    let mut peak_keys = None;
    for round in 0..rounds {
        let mut seen = Round::default();
        let reads = db.store().reads;
        let mut growing = true;
        while growing || !model.is_empty() {
            let before = db.meta().clone();
            db.begin().unwrap();
            for _ in 0..8 {
                let at = random_key(&mut rng);
                let run: Vec<Vec<u8>> = match rng.gen_range(0..10u32) {
                    0..=6 if growing => (0..8u8).map(|j| [&at[..], &[b'0' + j]].concat()).collect(),
                    // The next live keys, wrapping, so the tree empties.
                    0..=6 => model
                        .range(at.clone()..)
                        .chain(model.range(..at.clone()))
                        .take(8)
                        .map(|(k, _)| k.clone())
                        .collect(),
                    _ => vec![at.clone()],
                };
                for key in run {
                    match rng.gen_range(0..10u32) {
                        // Growing, mostly puts; shrinking, mostly deletes.
                        0..=7 if growing => {
                            let mut val = vec![rng.gen::<u8>(); rng.gen_range(900..=1020usize)];
                            val[0] = b'v';
                            db.put(&key, &val).unwrap();
                            model.insert(key, val);
                        }
                        0..=7 => {
                            let want = model.remove(&key).is_some();
                            assert_eq!(db.delete(&key).unwrap(), want, "delete");
                        }
                        8 => assert_eq!(db.get(&key).unwrap().as_ref(), model.get(&key)),
                        _ => {
                            let (lo, hi) = (&key[..2], [key[0], key[1].saturating_add(1)]);
                            let got = db.scan(Bound::Included(lo), Bound::Excluded(&hi)).unwrap();
                            let want: Vec<_> = model
                                .range::<[u8], _>((Bound::Included(lo), Bound::Excluded(&hi[..])))
                                .map(|(k, v)| (k.clone(), v.clone()))
                                .collect();
                            assert_eq!(got, want, "scan");
                        }
                    }
                    ops += 1;
                    if ops.is_multiple_of(500) {
                        db.validate().unwrap();
                    }
                }
            }
            db.commit().unwrap();
            let after = db.meta();
            seen.splits += u32::from(
                after.page_count > before.page_count || after.free.len() < before.free.len(),
            );
            seen.frees += u32::from(after.free.len() > before.free.len());
            seen.collapses += u32::from(!growing && after.root != before.root);
            if growing {
                // Only the first round counts pages: a free list that
                // overflows its page leaks ids, so later rounds stop at
                // the same key count instead.
                let live = after.page_count - 1 - after.free.len() as u32;
                growing = match peak_keys {
                    None if live > PEAK_PAGES => {
                        peak_keys = Some(model.len());
                        false
                    }
                    None => true,
                    Some(n) => model.len() < n,
                };
            }
        }
        seen.reads = db.store().reads - reads;
        db.validate().unwrap();
        assert!(db.scan_all().unwrap().is_empty());
        assert!(
            seen.splits > 20 && seen.frees > 20 && seen.collapses > 0 && seen.reads > 50,
            "round {round}: {seen:?}"
        );
    }
}

#[test]
fn writes_match_the_model_while_the_cache_evicts() {
    evicting_model_run(0xE71C, 1);
}

#[test]
#[ignore = "long: run via cargo test -p kvdb --release --test btree -- --ignored"]
fn writes_match_the_model_while_the_cache_evicts_stress() {
    evicting_model_run(0xE71C_57E5, 10);
}
