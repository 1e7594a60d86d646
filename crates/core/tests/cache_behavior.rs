// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Integration tests for the Tinca cache (a one-shard pool): commit
//! protocol, COW writes, replacement, pinning, and the cost model the
//! paper's figures rely on.

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{PoolConfig, TincaConfig, TincaError, TincaPool};

/// A one-shard pool — the paper's single cache — on an `nvm_bytes` PCM
/// device and an SSD sharing one clock.
fn setup_with(
    nvm_bytes: usize,
    cfg: TincaConfig,
) -> (TincaPool, nvmsim::Nvm, blockdev::Disk, SimClock) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, clock.clone());
    let cfg = PoolConfig {
        cache: cfg,
        ..PoolConfig::default()
    };
    let cache = TincaPool::format(vec![nvm.clone()], disk.clone(), cfg);
    (cache, nvm, disk, clock)
}

fn setup(
    nvm_bytes: usize,
    ring_bytes: usize,
) -> (TincaPool, nvmsim::Nvm, blockdev::Disk, SimClock) {
    setup_with(
        nvm_bytes,
        TincaConfig {
            ring_bytes,
            ..TincaConfig::default()
        },
    )
}

/// The cache's data-block capacity.
fn capacity(cache: &TincaPool) -> u64 {
    u64::from(cache.shard_layout(0).data_blocks)
}

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

#[test]
fn commit_then_read_back() {
    let (cache, _, _, _) = setup(1 << 20, 4096);
    let mut txn = cache.init_txn();
    txn.write(100, &blk(1));
    txn.write(200, &blk(2));
    txn.write(300, &blk(3));
    cache.commit(txn).unwrap();

    let mut buf = [0u8; BLOCK_SIZE];
    for (b, v) in [(100u64, 1u8), (200, 2), (300, 3)] {
        cache.read(b, &mut buf).unwrap();
        assert_eq!(buf, blk(v));
    }
    let s = cache.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.committed_blocks, 3);
    assert_eq!(s.read_hits, 3);
    assert_eq!(s.write_misses, 3);
    cache.check_consistency().unwrap();
}

#[test]
fn empty_commit_is_noop() {
    let (cache, nvm, _, _) = setup(1 << 20, 4096);
    let before = nvm.stats();
    let txn = cache.init_txn();
    cache.commit(txn).unwrap();
    assert_eq!(cache.stats().commits, 0);
    assert_eq!(nvm.stats(), before);
}

#[test]
fn write_hit_uses_cow_and_counts_hit() {
    let (cache, _, _, _) = setup(1 << 20, 4096);
    let mut t1 = cache.init_txn();
    t1.write(7, &blk(1));
    cache.commit(t1).unwrap();
    let mut t2 = cache.init_txn();
    t2.write(7, &blk(2));
    cache.commit(t2).unwrap();

    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(7, &mut buf).unwrap();
    assert_eq!(buf, blk(2));
    let s = cache.stats();
    assert_eq!(s.write_misses, 1);
    assert_eq!(s.write_hits, 1);
    // The previous version's NVM block must have been reclaimed.
    assert_eq!(cache.cached_blocks(), 1);
    cache.check_consistency().unwrap();
}

#[test]
fn read_miss_fills_cache() {
    let (cache, _, disk, _) = setup(1 << 20, 4096);
    disk.write_block(42, &blk(9)).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(42, &mut buf).unwrap();
    assert_eq!(buf, blk(9));
    assert_eq!(cache.stats().read_misses, 1);
    // Second read hits NVM.
    let reads_before = disk.stats().reads;
    cache.read(42, &mut buf).unwrap();
    assert_eq!(cache.stats().read_hits, 1);
    assert_eq!(disk.stats().reads, reads_before);
    cache.check_consistency().unwrap();
}

#[test]
fn eviction_writes_back_dirty_lru_block() {
    // Cache with very few data blocks to force eviction quickly.
    let (cache, _, disk, _) = setup(256 << 10, 4096);
    let n = capacity(&cache);
    assert!(n >= 8, "test expects at least 8 data blocks, got {n}");
    // Fill the cache beyond capacity with dirty blocks.
    for i in 0..n + 4 {
        let mut t = cache.init_txn();
        t.write(i, &blk((i % 251) as u8));
        cache.commit(t).unwrap();
    }
    let s = cache.stats();
    assert!(s.evictions >= 4, "expected evictions, got {}", s.evictions);
    assert!(disk.stats().writes >= 4, "dirty victims must reach disk");
    // The earliest (LRU) blocks were evicted; their data must be on disk.
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(0, &mut buf).unwrap();
    assert_eq!(buf, blk(0));
    cache.check_consistency().unwrap();
}

#[test]
fn clean_eviction_does_not_touch_disk() {
    let (cache, _, disk, _) = setup(256 << 10, 4096);
    let n = capacity(&cache);
    // Fill with clean read-misses only.
    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..n + 4 {
        cache.read(i, &mut buf).unwrap();
    }
    assert!(cache.stats().evictions >= 4);
    assert_eq!(
        disk.stats().writes,
        0,
        "clean blocks must not be written back"
    );
}

#[test]
fn txn_larger_than_ring_is_rejected() {
    let (cache, _, _, _) = setup(1 << 20, 4096); // ring: 512 slots
    let mut txn = cache.init_txn();
    for i in 0..513u64 {
        txn.write(i, &blk(0));
    }
    let err = cache.commit(txn).unwrap_err();
    assert!(matches!(err, TincaError::TxnTooLarge { .. }));
    // Nothing leaked.
    assert_eq!(cache.cached_blocks(), 0);
    cache.check_consistency().unwrap();
}

#[test]
fn txn_too_big_for_cache_is_rejected_cleanly() {
    let (cache, _, _, _) = setup(256 << 10, 64 << 10);
    let n = capacity(&cache) as usize;
    // Fill the cache completely with committed blocks.
    for i in 0..n {
        let mut t = cache.init_txn();
        t.write(i as u64, &blk(1));
        cache.commit(t).unwrap();
    }
    assert_eq!(cache.free_block_count(), 0);
    // A transaction needing more blocks than free + evictable must be
    // turned away at admission — cleanly, not by revoking a half-staged
    // commit after NoVictim fires.
    let mut txn = cache.init_txn();
    for i in 0..=n {
        txn.write(1_000 + i as u64, &blk(2));
    }
    let err = cache.commit(txn).unwrap_err();
    assert!(matches!(
        err,
        TincaError::CacheExhausted { needed, available }
            if needed == n + 1 && available == n
    ));
    let s = cache.stats();
    assert_eq!(s.failed_commits, 0, "admission must reject before staging");
    assert_eq!(s.revoked_blocks, 0, "no revocation on clean rejection");
    // Previously committed contents are untouched.
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(0, &mut buf).unwrap();
    assert_eq!(buf, blk(1));
    cache.check_consistency().unwrap();
}

#[test]
fn full_capacity_fresh_txn_is_admitted() {
    // Regression: admission used to compare worst-case demand against the
    // *total* data-block count instead of the free pool plus evictable
    // blocks, rejecting a perfectly feasible transaction that exactly
    // fills an empty cache.
    let (cache, _, _, _) = setup(256 << 10, 64 << 10);
    let n = capacity(&cache) as usize;
    let mut txn = cache.init_txn();
    for i in 0..n {
        txn.write(i as u64, &blk(3));
    }
    cache.commit(txn).unwrap();
    assert_eq!(cache.free_block_count(), 0);
    assert_eq!(cache.cached_blocks(), n);
    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..n as u64 {
        cache.read(i, &mut buf).unwrap();
        assert_eq!(buf, blk(3));
    }
    cache.check_consistency().unwrap();
}

#[test]
fn failed_commit_rolls_back_previous_values() {
    // A commit that fails mid-way (NoVictim) must restore the pre-txn state.
    let (cache, _, _, _) = setup(256 << 10, 64 << 10);
    let n = capacity(&cache);
    // Seed every block with version 1 in several small txns.
    for i in 0..n / 2 {
        let mut t = cache.init_txn();
        t.write(i, &blk(1));
        cache.commit(t).unwrap();
    }
    // One transaction touching n/2 blocks: needs n/2 new + n/2 pinned prevs
    // = all blocks, leaving nothing evictable part-way if other blocks are
    // present. Construct a txn that passes the static check but runs out of
    // victims dynamically.
    let mut big = cache.init_txn();
    for i in 0..(n / 2) {
        big.write(i, &blk(2));
    }
    match cache.commit(big) {
        Ok(()) => {
            // Fine on this geometry — all version 2.
            let mut buf = [0u8; BLOCK_SIZE];
            cache.read(0, &mut buf).unwrap();
            assert_eq!(buf, blk(2));
        }
        Err(_) => {
            // Rolled back: all version 1 readable.
            let mut buf = [0u8; BLOCK_SIZE];
            for i in 0..n / 2 {
                cache.read(i, &mut buf).unwrap();
                assert_eq!(buf, blk(1), "block {i} must hold the old version");
            }
        }
    }
    cache.check_consistency().unwrap();
}

#[test]
fn no_double_write_single_data_flush_per_block() {
    // The heart of the paper: committing a block flushes its 64 payload
    // lines exactly once (plus O(1) metadata lines), with no second
    // "checkpoint" copy.
    let (cache, nvm, _, _) = setup(4 << 20, 4096);
    let before = nvm.stats();
    let mut txn = cache.init_txn();
    for i in 0..8u64 {
        txn.write(i, &blk(i as u8));
    }
    cache.commit(txn).unwrap();
    let d = nvm.stats().delta(&before);
    let lines_per_block = d.lines_written as f64 / 8.0;
    // 64 payload lines + 1 entry line + 1 ring line + 1 head line + switch
    // + tail amortised => must stay well under 2 × 64.
    assert!(
        lines_per_block < 70.0,
        "role switch must avoid double writes: {lines_per_block} lines/block"
    );
    assert!(lines_per_block >= 64.0);
}

#[test]
fn ablation_double_write_costs_two_payload_writes() {
    let cfg = TincaConfig {
        ring_bytes: 4096,
        role_switch: false,
        ..TincaConfig::default()
    };
    let (cache, nvm, _, _) = setup_with(4 << 20, cfg);
    let before = nvm.stats();
    let mut txn = cache.init_txn();
    for i in 0..8u64 {
        txn.write(i, &blk(i as u8));
    }
    cache.commit(txn).unwrap();
    let d = nvm.stats().delta(&before);
    let lines_per_block = d.lines_written as f64 / 8.0;
    assert!(
        lines_per_block >= 128.0,
        "double-write ablation should write payloads twice: {lines_per_block}"
    );
    // Data still correct.
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(3, &mut buf).unwrap();
    assert_eq!(buf, blk(3));
    cache.check_consistency().unwrap();
}

#[test]
fn flush_all_persists_everything_to_disk() {
    let (cache, _, disk, _) = setup(1 << 20, 4096);
    for i in 0..10u64 {
        let mut t = cache.init_txn();
        t.write(i, &blk(i as u8 + 1));
        cache.commit(t).unwrap();
    }
    cache.flush_all().unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..10u64 {
        disk.read_block(i, &mut buf).unwrap();
        assert_eq!(buf, blk(i as u8 + 1));
    }
    // Flushing twice writes nothing new.
    let w = disk.stats().writes;
    cache.flush_all().unwrap();
    assert_eq!(disk.stats().writes, w);
    cache.check_consistency().unwrap();
}

#[test]
fn lru_order_respected_on_eviction() {
    let (cache, _, disk, _) = setup(256 << 10, 4096);
    let n = capacity(&cache);
    for i in 0..n {
        let mut t = cache.init_txn();
        t.write(i, &blk(1));
        cache.commit(t).unwrap();
    }
    // Touch block 0 so it becomes MRU; block 1 is now LRU.
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(0, &mut buf).unwrap();
    // Trigger one eviction.
    let mut t = cache.init_txn();
    t.write(n + 1, &blk(2));
    cache.commit(t).unwrap();
    assert!(cache.contains(0), "recently-touched block must survive");
    assert!(!cache.contains(1), "LRU block must be the victim");
    let mut dbuf = [0u8; BLOCK_SIZE];
    disk.read_block(1, &mut dbuf).unwrap();
    assert_eq!(dbuf, blk(1));
}

#[test]
fn ring_wraps_across_many_commits() {
    let (cache, _, _, _) = setup(1 << 20, 4096); // 512 slots
    for round in 0..300u64 {
        let mut t = cache.init_txn();
        t.write(round % 50, &blk((round % 251) as u8));
        t.write(50 + round % 50, &blk((round % 241) as u8));
        cache.commit(t).unwrap();
    }
    assert_eq!(cache.stats().commits, 300);
    cache.check_consistency().unwrap();
}

#[test]
fn abort_running_txn_leaves_cache_untouched() {
    let (cache, nvm, _, _) = setup(1 << 20, 4096);
    let before = nvm.stats();
    let mut t = cache.init_txn();
    t.write(1, &blk(1));
    cache.abort(t);
    assert_eq!(nvm.stats(), before, "running txns are DRAM-only");
    assert_eq!(cache.stats().user_aborts, 1);
    assert_eq!(cache.stats().aborts(), 1);
    assert_eq!(cache.cached_blocks(), 0);
}

#[test]
fn peek_does_not_disturb_lru_or_stats() {
    let (cache, _, _, _) = setup(1 << 20, 4096);
    let mut t = cache.init_txn();
    t.write(3, &blk(7));
    cache.commit(t).unwrap();
    let s = cache.stats();
    let got = cache.peek(3).unwrap();
    assert_eq!(got, blk(7));
    assert!(cache.peek(4).is_none());
    assert_eq!(cache.stats(), s);
}

#[test]
fn simulated_time_advances_with_work() {
    let (cache, _, _, clock) = setup(1 << 20, 4096);
    let t0 = clock.now_ns();
    let mut t = cache.init_txn();
    t.write(0, &blk(1));
    cache.commit(t).unwrap();
    let commit_cost = clock.now_ns() - t0;
    // 64 payload flushes at PCM speed (280 ns each) dominate.
    assert!(commit_cost > 64 * 240, "commit too cheap: {commit_cost} ns");
    assert!(
        commit_cost < 100_000,
        "commit unreasonably expensive: {commit_cost} ns"
    );
}

#[test]
fn many_blocks_one_txn_all_visible() {
    let (cache, _, _, _) = setup(4 << 20, 64 << 10);
    let mut txn = cache.init_txn();
    for i in 0..200u64 {
        txn.write(i * 3, &blk((i % 251) as u8));
    }
    cache.commit(txn).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..200u64 {
        cache.read(i * 3, &mut buf).unwrap();
        assert_eq!(buf, blk((i % 251) as u8));
    }
    cache.check_consistency().unwrap();
}

#[test]
fn disk_sees_old_version_until_eviction() {
    let (cache, _, disk, _) = setup(1 << 20, 4096);
    let mut t = cache.init_txn();
    t.write(5, &blk(1));
    cache.commit(t).unwrap();
    // Write-back: the disk still has zeroes.
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(5, &mut buf).unwrap();
    assert_eq!(buf, blk(0));
    assert_eq!(disk.stats().writes, 0);
}
