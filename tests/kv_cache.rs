//! Tier-1 coverage of kvdb's DRAM page cache, a true LRU over 1 024
//! decoded pages, on one tree that outgrows it:
//! - a transaction that dirties more pages than the cache holds commits
//!   whole, because dirty pages are pinned until commit;
//! - a hot key set created first sits on the lowest page ids, and once
//!   warm it is never read back while cold inserts keep the cache evicting
//!   — an eviction by lowest page id would read it back every transaction;
//! - every committed key reads back after eviction, and the commit
//!   sequence stays at or above every LSN read.
//!
//! One tree serves all three: every check needs 1 000+ pages.

use std::collections::BTreeMap;

use kvdb::{Db, KvError, PageStore, StoreStats, PAGE_SIZE};

/// Committed pages in memory; counts page reads and remembers the newest
/// LSN it handed out. A page never committed reads as zeros.
#[derive(Default)]
struct MemStore {
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
    reads: u64,
    max_lsn_read: u64,
    stats: StoreStats,
}

impl PageStore for MemStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        self.reads += 1;
        match self.pages.get(&id) {
            Some(page) => {
                buf.copy_from_slice(&page[..]);
                let lsn = u64::from_le_bytes(page[8..16].try_into().expect("8 bytes"));
                self.max_lsn_read = self.max_lsn_read.max(lsn);
            }
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

const HOT: u32 = 16;

fn hot(i: u32) -> Vec<u8> {
    format!("hot-{i:04}").into_bytes()
}

fn row(i: u32) -> Vec<u8> {
    format!("row-{i:08}").into_bytes()
}

/// 1 020 bytes: three fit a page, so ascending inserts leave two per leaf.
fn val(i: u32) -> Vec<u8> {
    let mut v = format!("{i}/").into_bytes();
    v.resize(1020, b'.');
    v
}

/// Pages reachable from the root (nothing is ever freed here).
fn live_pages(db: &Db<MemStore>) -> u32 {
    db.meta().page_count - 1
}

#[test]
fn page_cache_is_an_lru_that_pins_dirty_pages() {
    let mut db = Db::open(MemStore::default()).unwrap();
    let mut model = BTreeMap::new();
    let mut put = |db: &mut Db<MemStore>, key: Vec<u8>, i: u32| {
        db.put(&key, &val(i)).unwrap();
        model.insert(key, val(i));
    };

    // One transaction: the hot set first, so it takes the lowest page ids,
    // then cold rows until the tree is past the cache.
    db.begin().unwrap();
    for i in 0..HOT {
        put(&mut db, hot(i), i);
    }
    let mut cold = 0;
    while live_pages(&db) <= 1_030 {
        put(&mut db, row(cold), cold);
        cold += 1;
    }
    let committed = db.store().stats.pages_committed;
    db.commit().unwrap();
    assert_eq!(
        db.store().stats.pages_committed - committed,
        u64::from(live_pages(&db)) + 1,
        "one batch carries every page of the tree and the meta page"
    );

    // Transactions that read the whole hot set and append cold rows: the
    // first faults the hot pages back in (the big commit left them the
    // oldest), after that nothing is read while the tree grows.
    let mut txn = |db: &mut Db<MemStore>| {
        db.begin().unwrap();
        for i in 0..HOT {
            assert_eq!(db.get(&hot(i)).unwrap(), Some(val(i)), "hot key {i}");
        }
        for _ in 0..8 {
            put(db, row(cold), cold);
            cold += 1;
        }
        db.commit().unwrap();
    };
    txn(&mut db);
    let (reads, pages) = (db.store().reads, live_pages(&db));
    for _ in 0..30 {
        txn(&mut db);
    }
    assert!(live_pages(&db) >= pages + 100, "{} pages", live_pages(&db));
    assert_eq!(
        db.store().reads - reads,
        0,
        "pages read back while the hot set and the insert edge stay in use"
    );

    // Everything committed reads back, evicted pages from the store; the
    // next commit would stamp above every page read. Newest rows first: an
    // ascending sweep would evict each page just before reaching it.
    let reads = db.store().reads;
    for chunk in model.iter().rev().collect::<Vec<_>>().chunks(256) {
        db.begin().unwrap();
        for (k, v) in chunk {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(*v));
        }
        db.commit().unwrap();
    }
    assert!(db.store().reads > reads + 100, "cold pages were evicted");
    assert!(db.commit_seq() >= db.store().max_lsn_read);
}
