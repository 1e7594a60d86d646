//! Behaviour tests for the UBJ-like cache: commit-in-place, out-of-place
//! frozen updates, transaction-unit checkpointing, crash atomicity.

use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig, NvmDevice, NvmTech, SimClock};
use ubj::{UbjCache, UbjError};

fn setup(nvm_bytes: usize) -> (UbjCache, nvmsim::Nvm, blockdev::Disk) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cache = UbjCache::format(nvm.clone(), disk.clone());
    (cache, nvm, disk)
}

fn blk(b: u8) -> Box<[u8; BLOCK_SIZE]> {
    Box::new([b; BLOCK_SIZE])
}

fn quiet() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashTripped>().is_none() {
                default(info);
            }
        }));
    });
}

#[test]
fn commit_then_read_back() {
    let (mut c, _, _) = setup(1 << 20);
    c.commit_txn(&[(10, blk(1)), (20, blk(2))]).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    c.read(10, &mut buf);
    assert_eq!(buf[0], 1);
    c.read(20, &mut buf);
    assert_eq!(buf[0], 2);
    assert_eq!(c.stats().commits, 1);
    assert_eq!(c.pending_checkpoint_txns(), 1);
    c.check_consistency().unwrap();
}

#[test]
fn commit_in_place_writes_payload_once() {
    // The defining property UBJ *shares* with Tinca: committing does not
    // copy the payload (freeze-in-place), so fresh-block commits cost one
    // payload write.
    let (mut c, nvm, _) = setup(4 << 20);
    let before = nvm.stats();
    let blocks: Vec<_> = (0..8u64).map(|i| (i, blk(i as u8))).collect();
    c.commit_txn(&blocks).unwrap();
    let d = nvm.stats().delta(&before);
    let per_block = d.lines_written as f64 / 8.0;
    assert!(
        per_block < 70.0,
        "freeze-in-place must not copy: {per_block} lines/block"
    );
}

#[test]
fn updating_frozen_block_costs_a_memcpy() {
    // §5.4.4 #2: the second commit of the same block finds it frozen and
    // must copy it out of place, on the write critical path.
    let (mut c, _, _) = setup(1 << 20);
    c.commit_txn(&[(5, blk(1))]).unwrap();
    assert_eq!(c.stats().frozen_copies, 0);
    c.commit_txn(&[(5, blk(2))]).unwrap();
    assert_eq!(c.stats().frozen_copies, 1);
    assert_eq!(c.stats().frozen_copy_bytes, BLOCK_SIZE as u64);
    let mut buf = [0u8; BLOCK_SIZE];
    c.read(5, &mut buf);
    assert_eq!(buf[0], 2);
    c.check_consistency().unwrap();
}

#[test]
fn tinca_never_pays_that_memcpy() {
    // Contrast test: Tinca's COW allocates a fresh block and writes the
    // *new* payload directly — no copy of the old version is ever made.
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let mut cfg = tinca::PoolConfig::default();
    cfg.cache.ring_bytes = 4096;
    let tinca = tinca::TincaPool::format(vec![nvm.clone()], disk, cfg);
    let mut t1 = tinca.init_txn();
    t1.write(5, &blk(1)[..]);
    tinca.commit(t1).unwrap();
    let before = nvm.stats();
    let mut t2 = tinca.init_txn();
    t2.write(5, &blk(2)[..]);
    tinca.commit(t2).unwrap();
    let d = nvm.stats().delta(&before);
    // One payload write (64 lines) + metadata; the old version is never
    // read or copied (the few line reads are 16 B entry lookups).
    assert!(
        d.lines_written < 70,
        "Tinca COW should write once: {}",
        d.lines_written
    );
    assert!(
        d.lines_read < 5,
        "Tinca COW must not read the old payload: {}",
        d.lines_read
    );
}

#[test]
fn checkpoint_writes_whole_transaction_to_disk() {
    let (mut c, _, disk) = setup(4 << 20);
    let blocks: Vec<_> = (0..16u64).map(|i| (i, blk(7))).collect();
    c.commit_txn(&blocks).unwrap();
    assert_eq!(disk.stats().writes, 0);
    assert!(c.checkpoint_oldest());
    assert_eq!(disk.stats().writes, 16, "checkpoint unit is the whole txn");
    assert!(c.stats().checkpoint_stall_ns > 0);
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(3, &mut buf).unwrap();
    assert_eq!(buf[0], 7);
    // Blocks stay cached as clean.
    assert_eq!(c.cached_blocks(), 16);
    c.check_consistency().unwrap();
}

#[test]
fn superseded_frozen_versions_are_not_checkpointed() {
    let (mut c, _, disk) = setup(1 << 20);
    c.commit_txn(&[(9, blk(1))]).unwrap();
    c.commit_txn(&[(9, blk(2))]).unwrap(); // supersedes the first
    c.checkpoint_all();
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(9, &mut buf).unwrap();
    assert_eq!(buf[0], 2, "only the newest committed version reaches disk");
    assert_eq!(disk.stats().writes, 1, "the stale version is skipped");
    c.check_consistency().unwrap();
}

#[test]
fn space_pressure_forces_checkpoint_stall() {
    let (mut c, _, disk) = setup(512 << 10);
    let n = c.data_block_count() as u64;
    // Commit more distinct blocks than the buffer holds: allocation must
    // stall on checkpoints.
    for i in 0..n + 20 {
        c.commit_txn(&[(i, blk((i % 250) as u8))]).unwrap();
    }
    assert!(
        c.stats().checkpoints > 0,
        "space pressure must trigger checkpoints"
    );
    assert!(disk.stats().writes > 0);
    c.check_consistency().unwrap();
}

#[test]
fn a_transaction_of_half_the_buffer_is_refused() {
    let (mut c, _, _) = setup(512 << 10);
    let n = c.data_block_count();
    let blocks: Vec<_> = (0..n as u64 / 2 + 1).map(|i| (i, blk(1))).collect();
    let refused = UbjError::TxnTooLarge {
        blocks: blocks.len(),
        buffer_blocks: n,
    };
    assert_eq!(c.commit_txn(&blocks), Err(refused));
    assert_eq!(c.stats().commits, 0);
}

#[test]
fn committed_data_survives_crash() {
    let (mut c, nvm, disk) = setup(1 << 20);
    c.commit_txn(&[(1, blk(0xAA)), (2, blk(0xBB))]).unwrap();
    drop(c);
    nvm.crash(CrashPolicy::Random(3));
    let rec = UbjCache::recover(nvm, disk).unwrap();
    rec.check_consistency().unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    rec.read_nocache(1, &mut buf);
    assert_eq!(buf[0], 0xAA);
    rec.read_nocache(2, &mut buf);
    assert_eq!(buf[0], 0xBB);
    assert_eq!(
        rec.pending_checkpoint_txns(),
        1,
        "frozen blocks still need checkpointing"
    );
}

#[test]
fn crash_sweep_commit_is_atomic() {
    quiet();
    // Seed v1, then crash a v2 commit at every persistence event.
    let window = {
        let (mut c, nvm, _) = setup(1 << 20);
        c.commit_txn(&[(1, blk(1)), (2, blk(1)), (3, blk(1))])
            .unwrap();
        let e0 = nvm.events();
        c.commit_txn(&[(1, blk(2)), (2, blk(2)), (3, blk(2))])
            .unwrap();
        nvm.events() - e0
    };
    let mut crashed_runs = 0;
    for trip in 1..=window + 2 {
        let (mut c, nvm, disk) = setup(1 << 20);
        c.commit_txn(&[(1, blk(1)), (2, blk(1)), (3, blk(1))])
            .unwrap();
        nvm.set_trip(Some(trip));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            c.commit_txn(&[(1, blk(2)), (2, blk(2)), (3, blk(2))])
                .unwrap();
        }))
        .is_err();
        nvm.set_trip(None);
        drop(c);
        nvm.crash(CrashPolicy::Random(trip * 31));
        let rec = UbjCache::recover(nvm, disk).unwrap();
        rec.check_consistency()
            .unwrap_or_else(|e| panic!("trip {trip}: {e}"));
        let mut versions = [0u8; 3];
        let mut buf = [0u8; BLOCK_SIZE];
        for (i, b) in [1u64, 2, 3].iter().enumerate() {
            rec.read_nocache(*b, &mut buf);
            assert!(
                buf.iter().all(|&x| x == buf[0]),
                "torn payload at trip {trip}"
            );
            versions[i] = buf[0];
        }
        let all_old = versions.iter().all(|&v| v == 1);
        let all_new = versions.iter().all(|&v| v == 2);
        assert!(all_old || all_new, "torn txn at trip {trip}: {versions:?}");
        if !crashed {
            assert!(all_new, "completed commit lost at trip {trip}");
        } else {
            crashed_runs += 1;
        }
    }
    assert!(crashed_runs > 0);
}

#[test]
fn crash_after_checkpoint_keeps_data_on_disk_and_cache() {
    let (mut c, nvm, disk) = setup(1 << 20);
    c.commit_txn(&[(4, blk(9))]).unwrap();
    c.checkpoint_all();
    drop(c);
    nvm.crash(CrashPolicy::LoseVolatile);
    let mut rec = UbjCache::recover(nvm, disk).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    rec.read(4, &mut buf);
    assert_eq!(buf[0], 9);
    rec.check_consistency().unwrap();
}

#[test]
fn read_miss_fills_clean_and_is_evictable() {
    let (mut c, _, disk) = setup(512 << 10);
    disk.write_block(100, &blk(5)[..]).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    c.read(100, &mut buf);
    assert_eq!(buf[0], 5);
    assert_eq!(c.stats().read_misses, 1);
    c.read(100, &mut buf);
    assert_eq!(c.stats().read_hits, 1);
    // Fill the buffer with committed data well past capacity; clean blocks
    // (the fill plus checkpointed ones) must be evicted rather than
    // stalling.
    let n = c.data_block_count() as u64;
    for i in 0..2 * n {
        c.commit_txn(&[(i, blk(1))]).unwrap();
    }
    assert!(c.stats().evictions >= 1);
    c.check_consistency().unwrap();
}

#[test]
fn recovery_of_unformatted_region_fails() {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    assert!(matches!(
        UbjCache::recover(nvm, disk),
        Err(UbjError::NotFormatted)
    ));
}
