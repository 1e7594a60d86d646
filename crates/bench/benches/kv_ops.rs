//! kvdb's host cost apart from its store's: `apply_txn` over the TPC-C
//! record stream (seed 1, 4 warehouses, 5 000 warm-up transactions, the
//! benchmark's `kv_tpcc` settings), once over an in-memory `PageStore` —
//! the B-tree, its page cache and the page seal alone — and once over
//! `TincaStore`, which adds the pool's transactional commit.
//!
//! `cargo bench -p bench --bench kv_ops`

use criterion::{criterion_group, criterion_main, Criterion};
use kvdb::{
    apply_txn, Db, KvError, KvTpccDriver, KvTxn, PageStore, StoreStats, TincaStore,
    TincaStoreConfig, PAGE_SIZE,
};

const WARMUP: usize = 5_000;
const MEASURED: usize = 5_000;

/// Committed pages in a table indexed by page id.
#[derive(Default)]
struct MemStore {
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    stats: StoreStats,
}

impl PageStore for MemStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        match self.pages.get(id as usize) {
            Some(Some(page)) => buf.copy_from_slice(&page[..]),
            _ => buf.fill(0),
        }
        Ok(())
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        for (id, page) in dirty {
            let i = *id as usize;
            if i >= self.pages.len() {
                self.pages.resize_with(i + 1, || None);
            }
            self.pages[i] = Some(Box::new(*page));
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

/// Times one `apply_txn` per iteration over `store`, after the warm-up,
/// with the transactions rolled beforehand.
fn run<S: PageStore>(c: &mut Criterion, name: &str, store: S) {
    let mut driver = KvTpccDriver::new(1, 4);
    // The timing loop makes one untimed call before the timed ones.
    let txns: Vec<KvTxn> = (0..WARMUP + MEASURED + 1)
        .map(|_| driver.next_txn())
        .collect();
    let mut db = Db::open(store).expect("open a fresh store");
    for txn in &txns[..WARMUP] {
        apply_txn(&mut db, txn).expect("warm-up transaction");
    }
    let mut next = txns[WARMUP..].iter();
    let mut group = c.benchmark_group("kv_apply_txn");
    group.sample_size(MEASURED);
    group.bench_function(name, |b| {
        b.iter(|| {
            let txn = next.next().expect("one rolled transaction per call");
            apply_txn(&mut db, txn).expect("measured transaction");
        });
    });
    group.finish();
}

fn bench_apply_txn(c: &mut Criterion) {
    run(c, "mem_store", MemStore::default());
    run(
        c,
        "tinca_store",
        TincaStore::format(TincaStoreConfig::default()),
    );
}

criterion_group!(benches, bench_apply_txn);
criterion_main!(benches);
