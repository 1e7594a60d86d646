// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Delta staging (`TincaConfig::delta_stage`): a write hit rewrites its
//! entry's reserved shadow block and flushes only the lines that differ.
//! The reserve's internals are audited by `check_consistency` (size cap,
//! owners valid, no block both reserved and free or referenced) after
//! every step of `prop_invariants.rs`; the cap's overflow is a unit test
//! in `shadow.rs`, the hand-corruption cases are unit tests in
//! `cache.rs`. These tests drive the reserve from outside.

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{
    shard_devices, CrashPolicy, Nvm, NvmConfig, NvmDevice, NvmTech, SimClock, TraceEvent,
    CACHE_LINE,
};
use tinca::{DynDisk, PoolConfig, TincaConfig, TincaError, TincaPool};

const LINES: usize = BLOCK_SIZE / CACHE_LINE;

fn cfg(delta_stage: bool) -> TincaConfig {
    TincaConfig {
        ring_bytes: 4096,
        delta_stage,
        ..TincaConfig::default()
    }
}

fn pool_cfg(cache: TincaConfig) -> PoolConfig {
    PoolConfig {
        cache,
        ..PoolConfig::default()
    }
}

/// The paper's single cache (a one-shard pool) on `nvm`.
fn format(nvm: &Nvm, disk: DynDisk, cache: TincaConfig) -> TincaPool {
    TincaPool::format(vec![nvm.clone()], disk, pool_cfg(cache))
}

fn cache(nvm_bytes: usize) -> (Nvm, blockdev::Disk, TincaPool) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(
        NvmConfig::new(nvm_bytes, NvmTech::Pcm).with_tracing(),
        clock.clone(),
    );
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cache = format(&nvm, disk.clone(), cfg(true));
    (nvm, disk, cache)
}

/// Shard `s`'s data-block capacity.
fn capacity(pool: &TincaPool, s: usize) -> u64 {
    u64::from(pool.shard_layout(s).data_blocks)
}

/// A block image that differs from position to position, with `patch`
/// written over line `line`.
fn image(seed: u8, line: usize, patch: u8) -> [u8; BLOCK_SIZE] {
    let mut b = [0u8; BLOCK_SIZE];
    for (i, x) in b.iter_mut().enumerate() {
        *x = (i as u8).wrapping_mul(31) ^ seed;
    }
    b[line * CACHE_LINE..(line + 1) * CACHE_LINE].fill(patch);
    b
}

fn commit(cache: &TincaPool, writes: &[(u64, [u8; BLOCK_SIZE])]) {
    let mut t = cache.init_txn();
    for (b, data) in writes {
        t.write(*b, data);
    }
    cache.commit(t).unwrap();
    cache.check_consistency().unwrap();
}

/// Dirty payload lines flushed since the trace was last drained.
fn payload_lines_flushed(nvm: &Nvm, cache: &TincaPool) -> usize {
    let data_start = cache.shard_layout(0).data_addr(0) / CACHE_LINE;
    nvm.take_trace()
        .iter()
        .filter(|op| matches!(op.event, TraceEvent::Clflush { line, staged: true } if line >= data_start))
        .count()
}

#[test]
fn one_changed_line_flushes_one_payload_line() {
    let (nvm, disk, cache) = cache(1 << 20);
    commit(&cache, &[(7, image(3, 5, 0xA0))]);
    nvm.take_trace();
    // A write hit with no shadow yet stages the whole block; the version
    // it replaced becomes the shadow.
    commit(&cache, &[(7, image(3, 5, 0xA1))]);
    assert_eq!(payload_lines_flushed(&nvm, &cache), LINES);
    assert_eq!(cache.stats().delta_stages, 0);

    // Version 2 differs from the shadow (version 0) in line 5 alone.
    let v2 = image(3, 5, 0xA2);
    commit(&cache, &[(7, v2)]);
    assert_eq!(payload_lines_flushed(&nvm, &cache), 1);
    let s = cache.stats();
    assert_eq!(
        (s.delta_stages, s.delta_lines_skipped),
        (1, LINES as u64 - 1)
    );
    assert_eq!(cache.peek(7), Some(v2));

    // Rewriting the shadow's own content stores nothing at all.
    let v1 = image(3, 5, 0xA1);
    commit(&cache, &[(7, v1)]);
    assert_eq!(payload_lines_flushed(&nvm, &cache), 0);
    assert_eq!(cache.stats().delta_lines_skipped, 2 * LINES as u64 - 1);
    assert_eq!(cache.peek(7), Some(v1));

    // The skipped lines were durable all along.
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);
    let rec = TincaPool::recover(vec![nvm], disk, pool_cfg(cfg(true))).unwrap();
    rec.check_consistency().unwrap();
    assert_eq!(rec.peek(7), Some(v1));
}

/// Evicting an entry releases its shadow. The freed entry slot is reused
/// at once by the block that displaced it, so a shadow left behind would
/// pass for the new block's: the first rewrite of every cached block
/// afterwards must therefore find no shadow anywhere.
#[test]
fn evict_releases_the_shadow() {
    let (_nvm, _disk, cache) = cache(256 << 10);
    let data_blocks = capacity(&cache, 0);
    for v in 0..3u8 {
        commit(&cache, &[(0, image(9, 1, v))]);
    }
    assert_eq!(cache.stats().delta_stages, 1, "block 0 holds a shadow");
    // Read misses fill the cache until block 0 is the LRU victim.
    let mut buf = [0u8; BLOCK_SIZE];
    for b in 100..100 + 2 * data_blocks {
        cache.read(b, &mut buf).unwrap();
        cache.check_consistency().unwrap();
    }
    assert!(!cache.contains(0));
    assert_eq!(cache.free_block_count(), 0, "no block may stay reserved");
    for b in 100..100 + 2 * data_blocks {
        if cache.contains(b) {
            commit(&cache, &[(b, image(b as u8, 2, 1))]);
        }
    }
    assert_eq!(cache.stats().delta_stages, 1);
    // Back in the cache, block 0 starts over without a hint.
    commit(&cache, &[(0, image(9, 1, 7))]);
    commit(&cache, &[(0, image(9, 1, 8))]);
    assert_eq!(cache.stats().delta_stages, 1);
}

/// Allocation order is free list, then an eviction victim, then — last
/// resort — the reserve, which admission counts as supply. Block 1 sits
/// on a bad disk sector: its entry cannot be evicted (the writeback fails
/// and the entry is quarantined), every other entry is pinned by the
/// committing transaction, so the last allocation can only be served
/// from block 1's shadow.
#[test]
fn allocation_falls_back_on_the_reserve() {
    use blockdev::{FaultPlan, FaultyDisk};

    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(256 << 10, NvmTech::Pcm), clock.clone());
    let disk = FaultyDisk::new(
        SimDisk::new(DiskKind::Ssd, 1 << 16, clock),
        FaultPlan::quiet(5).with_bad_modulo(2, 1),
    );
    let cache = format(&nvm, disk, cfg(true));
    let data_blocks = capacity(&cache, 0);
    commit(&cache, &[(1, image(1, 0, 0))]);
    commit(&cache, &[(1, image(1, 0, 1))]);
    assert_eq!(cache.free_block_count(), data_blocks as usize - 1);

    let writes: Vec<(u64, [u8; BLOCK_SIZE])> = (1..data_blocks)
        .map(|i| (2 * i, image(i as u8, 2, 0xEE)))
        .collect();
    commit(&cache, &writes);
    let s = cache.stats();
    assert_eq!((s.failed_commits, s.eviction_errors), (0, 1));
    assert_eq!(cache.shard_quarantined(0), 1);
    assert_eq!(cache.free_block_count(), 0);
    assert_eq!(cache.cached_blocks(), data_blocks as usize);
    assert_eq!(cache.peek(1), Some(image(1, 0, 1)));
    for (b, data) in &writes {
        assert_eq!(cache.peek(*b), Some(*data));
    }
    // One block more than the supply is refused before staging.
    let mut t = cache.init_txn();
    for b in 0..=data_blocks {
        t.write(5000 + 2 * b, &image(0, 0, 1));
    }
    assert!(matches!(
        cache.commit(t),
        Err(TincaError::CacheExhausted { .. })
    ));
}

/// A revoked fragment sends its half-rewritten shadow to the free list
/// and drops the hint. Shard 0's fragment of a spanning commit
/// delta-stages block 0, then shard 1's fragment is refused and the pool
/// revokes shard 0's.
#[test]
fn revoked_fragment_frees_its_shadow_target() {
    let devices = shard_devices(&NvmConfig::new(2 * (256 << 10), NvmTech::Pcm), 2);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, SimClock::new());
    let pool_cfg = PoolConfig {
        shards: 2,
        cache: cfg(true),
        ..PoolConfig::default()
    };
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
    for v in 0..2u8 {
        let mut t = pool.init_txn();
        t.write(0, &image(4, 3, v));
        pool.commit(t).unwrap();
    }
    let shard1_blocks = capacity(&pool, 1);
    let mut t = pool.init_txn();
    t.write(0, &image(4, 3, 2));
    for i in 0..shard1_blocks + 8 {
        t.write(1 + 2 * i, &image(0, 0, 0x78));
    }
    assert!(
        pool.commit(t).is_err(),
        "shard 1's fragment must be refused"
    );
    let s = pool.shard_stats(0);
    assert_eq!((s.delta_stages, s.failed_commits), (1, 1));
    pool.check_consistency().unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    pool.read(0, &mut buf).unwrap();
    assert_eq!(buf, image(4, 3, 1), "the revoked rewrite must not show");
    // No shard can hold more blocks than it has, so the pool-wide sum
    // accounts for every block of every shard, shard 0's shadow included.
    assert_eq!(
        (pool.free_block_count() + pool.cached_blocks()) as u64,
        capacity(&pool, 0) + capacity(&pool, 1)
    );
    // The hint is gone: the next rewrite stages the whole block, and the
    // one after it has a shadow again.
    for v in 3..5u8 {
        let mut t = pool.init_txn();
        t.write(0, &image(4, 3, v));
        pool.commit(t).unwrap();
    }
    assert_eq!(pool.shard_stats(0).delta_stages, 2);
    // And a power cut after all of it recovers the last image.
    drop(pool);
    for d in &devices {
        d.crash(CrashPolicy::LoseVolatile);
    }
    let pool = TincaPool::recover(devices, disk, pool_cfg).unwrap();
    pool.check_consistency().unwrap();
    pool.read(0, &mut buf).unwrap();
    assert_eq!(buf, image(4, 3, 4));
}

/// Inert without the role switch: the double-write ablation keeps
/// staging every block whole. (Off-by-default is the on/off differential
/// in `prop_invariants.rs`.)
#[test]
fn inert_without_the_role_switch() {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let no_switch = TincaConfig {
        role_switch: false,
        ..cfg(true)
    };
    let cache = format(&nvm, disk, no_switch);
    for v in 0..4u8 {
        commit(&cache, &[(7, image(3, 5, v))]);
    }
    let s = cache.stats();
    assert_eq!((s.delta_stages, s.delta_lines_skipped), (0, 0));
}
