//! The commit seal is exact. A commit re-CRCs only the 64 B lines its
//! transaction wrote (or the whole page, when it wrote most of them); every
//! page of every batch must still carry the CRC a from-scratch bytewise
//! CRC-32 gives over the page with its CRC field zeroed. A recording
//! [`PageStore`] checks each image as it crosses the seam, under a seeded
//! mix of puts, same- and other-length updates, deletes, splits, root
//! collapses and page-cache eviction, across a reopen, plus the two
//! directed cases: a transaction that writes a line's old bytes back, and
//! an insert that shifts most of a leaf.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::collections::BTreeMap;

use kvdb::page::check_seal;
use kvdb::{Db, KvError, PageStore, StoreStats, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CRC-32 (IEEE, reflected) byte-at-a-time table, from the polynomial.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`, one byte at a time.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Committed pages in memory; checks the seal of every page it is handed.
#[derive(Default)]
struct Recording {
    pages: BTreeMap<u32, Box<[u8; PAGE_SIZE]>>,
    stats: StoreStats,
}

impl PageStore for Recording {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        match self.pages.get(&id) {
            Some(page) => buf.copy_from_slice(&page[..]),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        let batch = self.stats.commits;
        for (id, page) in dirty {
            assert_eq!(check_seal(page), Ok(()), "batch {batch} page {id}");
            let mut zeroed = *page;
            zeroed[16..20].fill(0);
            let stamped = u32::from_le_bytes(page[16..20].try_into().unwrap());
            assert_eq!(stamped, crc32_bytewise(&zeroed), "batch {batch} page {id}");
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

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

fn val(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

fn put(db: &mut Db<Recording>, model: &mut Model, k: Vec<u8>, v: Vec<u8>) {
    db.put(&k, &v).unwrap();
    model.insert(k, v);
}

fn delete(db: &mut Db<Recording>, model: &mut Model, k: &[u8]) {
    assert_eq!(db.delete(k).unwrap(), model.remove(k).is_some());
}

/// Random transactions over `keys` keys: inserts and updates of random
/// lengths, same-length rewrites, values written and then put back, deletes
/// and runs of deletes that empty whole leaves.
fn churn(db: &mut Db<Recording>, model: &mut Model, rng: &mut StdRng, txns: usize, keys: u32) {
    for _ in 0..txns {
        db.begin().unwrap();
        for _ in 0..rng.gen_range(1..8) {
            let k = key(rng.gen_range(0..keys));
            match rng.gen_range(0..10) {
                0..=3 => {
                    let len = [8, 120, 700][rng.gen_range(0..3)];
                    let v = val(rng, len);
                    put(db, model, k, v);
                }
                4 | 5 => {
                    // Same length as the value there: a copy in place.
                    let len = model.get(&k).map_or(120, Vec::len);
                    let v = val(rng, len);
                    put(db, model, k, v);
                }
                6 => {
                    // Dirty the lines, then write their old bytes back.
                    if let Some(old) = model.get(&k).cloned() {
                        let v = val(rng, old.len());
                        db.put(&k, &v).unwrap();
                        db.put(&k, &old).unwrap();
                    }
                }
                7 | 8 => delete(db, model, &k),
                _ => {
                    let first = rng.gen_range(0..keys);
                    for i in first..(first + 40).min(keys) {
                        delete(db, model, &key(i));
                    }
                }
            }
        }
        db.commit().unwrap();
    }
}

fn assert_holds(db: &mut Db<Recording>, model: &Model) {
    db.validate().unwrap();
    let got: Model = db.scan_all().unwrap().into_iter().collect();
    assert!(got == *model, "tree diverged from the model");
}

fn run(seed: u64, scale: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Db::open(Recording::default()).unwrap();
    let mut model = Model::new();

    // Past the 1 024-page cache: 1 000-byte values, three or four a leaf.
    let mut i = 0;
    while db.meta().page_count < 1_150 {
        db.begin().unwrap();
        for _ in 0..64 {
            let v = val(&mut rng, 1000);
            put(&mut db, &mut model, key(i), v);
            i += 1;
        }
        db.commit().unwrap();
    }
    // Evicted pages come back from the store and are sealed again.
    churn(&mut db, &mut model, &mut rng, 100 * scale, i);
    assert_holds(&mut db, &model);

    // A reopen: every page is loaded and checked before it is edited.
    let store = db.into_store();
    let mut db = Db::open(store).unwrap();
    churn(&mut db, &mut model, &mut rng, 100 * scale, i);
    assert_holds(&mut db, &model);

    // Delete everything, committing as we go: leaves empty, branches
    // collapse into the root, the root resets to an empty leaf.
    let mut keys: Vec<Vec<u8>> = model.keys().cloned().collect();
    for j in (1..keys.len()).rev() {
        keys.swap(j, rng.gen_range(0..=j));
    }
    for chunk in keys.chunks(97) {
        db.begin().unwrap();
        for k in chunk {
            delete(&mut db, &mut model, k);
        }
        db.commit().unwrap();
    }
    assert_holds(&mut db, &model);
    assert!(model.is_empty());
    churn(&mut db, &mut model, &mut rng, 20 * scale, 300);
    assert_holds(&mut db, &model);
    assert!(db.store().stats.commits > 200 * scale as u64);
}

#[test]
fn every_sealed_page_carries_its_bytewise_crc() {
    for seed in 0..2 {
        run(seed, 1);
    }
}

#[test]
#[ignore = "long: run via cargo test -p kvdb --release --test seal -- --ignored"]
fn every_sealed_page_carries_its_bytewise_crc_10x() {
    for seed in 0..10 {
        run(0x5EA1 + seed, 10);
    }
}

/// A leaf of small records takes a key below all of them: the insert
/// shifts the whole body, so the seal falls back to the full CRC. Then a
/// same-length update of the moved record seals incrementally again.
#[test]
fn an_insert_that_shifts_most_of_a_leaf_seals_exactly() {
    let mut db = Db::open(Recording::default()).unwrap();
    let small = |i: u32| format!("s-{i:03}").into_bytes();
    db.begin().unwrap();
    for i in 1..=95 {
        db.put(&small(i), &[i as u8; 30]).unwrap();
    }
    db.commit().unwrap();
    assert_eq!(db.meta().page_count, 2, "one leaf holds them all");
    for (k, v) in [(small(0), [0u8; 30]), (small(1), [7u8; 30])] {
        db.begin().unwrap();
        db.put(&k, &v).unwrap();
        db.commit().unwrap();
    }
    assert_eq!(db.meta().page_count, 2);
    assert_eq!(db.get(&small(1)).unwrap(), Some(vec![7u8; 30]));
    assert_eq!(db.store().stats.commits, 4);
}
