//! Tier-1 coverage of delta staging (`TincaConfig::delta_stage`), as
//! `kvdb::TincaStore` configures it: a page rewritten with a one-record
//! change flushes the few lines that differ from the reserved copy of its
//! previous version, not all 64 — and a power cut in the middle of that
//! in-place rewrite recovers the last acknowledged image, because the
//! block being rewritten was referenced by nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kvdb::{PageStore, TincaStore, TincaStoreConfig, PAGE_SIZE};
use tinca_repro::crashsim::quiet_crash_panics;
use tinca_repro::nvmsim::{CrashPolicy, CrashTripped};

const PAGE: u32 = 5;
/// Where the "record" sits in the page, and how long it is (a TPC-C row).
const RECORD: std::ops::Range<usize> = 1000..1120;

/// A page image whose record carries `v`; every other byte is the same in
/// every version.
fn image(v: u8) -> [u8; PAGE_SIZE] {
    let mut p = [0u8; PAGE_SIZE];
    for (i, x) in p.iter_mut().enumerate() {
        *x = (i as u8).wrapping_mul(37) ^ 0xC3;
    }
    p[RECORD].fill(v);
    p
}

fn lines_written(store: &TincaStore) -> u64 {
    store
        .devices()
        .iter()
        .map(|d| d.stats().lines_written)
        .sum()
}

/// Commits `image(v)` as page [`PAGE`]; returns the dirty lines flushed.
fn rewrite(store: &mut TincaStore, v: u8) -> u64 {
    let before = lines_written(store);
    store.commit_pages(&[(PAGE, image(v))]).expect("commit");
    lines_written(store) - before
}

#[test]
fn one_record_rewrite_flushes_a_few_lines_and_survives_a_cut_mid_rewrite() {
    quiet_crash_panics();
    let mut store = TincaStore::format(TincaStoreConfig::default());
    // A full stage is 64 payload lines plus the protocol's metadata lines
    // (entry, ring slot, Head, role switch, Tail) — the same count for
    // every one-block commit. The first commit is a miss, and its fresh
    // entry also raises the entry watermark: one more header line.
    let full = rewrite(&mut store, 0) - 1;
    // The first rewrite has no reserved copy yet: staged whole. The block
    // it replaced is parked as the page's shadow.
    assert_eq!(rewrite(&mut store, 1), full);
    let metadata = full - 64;
    assert!(metadata < 16, "metadata lines per commit: {metadata}");

    // The second rewrite stores only what differs from the shadow.
    let payload = rewrite(&mut store, 2) - metadata;
    assert!(
        (1..8).contains(&payload),
        "a 120 B record change flushed {payload} payload lines"
    );
    let stats = store.pool().stats();
    assert_eq!(stats.delta_stages, 1);
    assert_eq!(stats.delta_lines_skipped, 64 - payload);

    // Power cut two persistence events into the next rewrite: the first
    // changed line is flushed, the rest of the shadow is not rewritten yet.
    let shard = PAGE as usize % store.devices().len();
    store.devices()[shard].set_trip(Some(2));
    let cut = catch_unwind(AssertUnwindSafe(|| store.commit_pages(&[(PAGE, image(3))])));
    match cut {
        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => {}
        other => panic!(
            "the armed trip did not fire: {:?}",
            other.map(|r| r.is_ok())
        ),
    }
    let (devices, disk, clock, cfg) = store.into_parts();
    for d in &devices {
        d.set_trip(None);
        d.crash(CrashPolicy::Random(0xD317A));
    }
    let mut store = TincaStore::recover(devices, disk, clock, cfg).expect("recovery");
    store.pool().check_consistency().expect("consistent pool");
    let mut page = [0u8; PAGE_SIZE];
    store.read_page(PAGE, &mut page).expect("read");
    assert!(page == image(2), "the last acknowledged image must survive");

    // Recovery dropped the hints with the rest of DRAM; the page earns a
    // new shadow and the rewrites after it are cheap again.
    assert_eq!(rewrite(&mut store, 4), full);
    assert_eq!(rewrite(&mut store, 5) - metadata, payload);
    store.read_page(PAGE, &mut page).expect("read");
    assert!(page == image(5));
}
