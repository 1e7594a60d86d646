// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Crash-recovery tests (§4.5): crash the cache at *every* persistence
//! event during commits, recover, and verify transaction atomicity and
//! metadata consistency. This is a strengthened version of the paper's
//! power-pull recoverability experiment (§5.1).

use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{CommitMode, PoolConfig, TincaConfig, TincaError, TincaPool, Txn};

const NVM_BYTES: usize = 1 << 20;
const RING_BYTES: usize = 4096;

/// Suppresses panic-hook output for the *expected* [`CrashTripped`] panics
/// that crash injection produces (they would otherwise flood test logs).
fn quiet_crash_panics() {
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

fn fresh_stack() -> (nvmsim::Nvm, blockdev::Disk) {
    quiet_crash_panics();
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(NVM_BYTES, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    (nvm, disk)
}

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

/// Reads block `b` the way a rebooted system would (cache first, then disk)
/// and returns its first byte (our block payloads are constant-filled).
fn observed(cache: &TincaPool, b: u64) -> u8 {
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read_nocache(b, &mut buf).unwrap();
    let first = buf[0];
    assert!(
        buf.iter().all(|&x| x == first),
        "torn block payload for {b}"
    );
    first
}

/// The core crash-atomicity check: seed blocks with version 1, commit
/// version 2 with a trip armed at event `trip`, crash with `policy`,
/// recover, and verify all-or-nothing visibility.
fn run_one_crash(trip: u64, policy: CrashPolicy, blocks: &[u64]) -> bool {
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);

    // Seed: every block at version 1, committed and durable.
    let mut seed = cache.init_txn();
    for &b in blocks {
        seed.write(b, &blk(1));
    }
    cache.commit(seed).unwrap();

    // Attempt: version 2, crashing at persistence event `trip`.
    let mut txn = cache.init_txn();
    for &b in blocks {
        txn.write(b, &blk(2));
    }
    nvm.set_trip(Some(trip)); // relative: trip events from now
    let outcome = catch_unwind(AssertUnwindSafe(|| cache.commit(txn)));
    nvm.set_trip(None);
    let crashed = match outcome {
        Ok(Ok(())) => false,
        Ok(Err(e)) => panic!("commit failed without crash: {e}"),
        Err(p) => {
            assert!(
                p.downcast_ref::<CrashTripped>().is_some(),
                "unexpected panic kind"
            );
            true
        }
    };
    drop(cache); // DRAM state dies with the "power failure"
    nvm.crash(policy);

    let recovered = recover(&nvm, &disk).expect("recovery must succeed");
    recovered
        .check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent after recovery: {e}"));

    let versions: Vec<u8> = blocks.iter().map(|&b| observed(&recovered, b)).collect();
    let all_old = versions.iter().all(|&v| v == 1);
    let all_new = versions.iter().all(|&v| v == 2);
    assert!(
        all_old || all_new,
        "transaction torn at trip {trip}: versions {versions:?}"
    );
    if !crashed {
        assert!(all_new, "a completed commit must be durable (trip {trip})");
    }
    crashed
}

fn tinca_cfg() -> TincaConfig {
    TincaConfig {
        ring_bytes: RING_BYTES,
        ..TincaConfig::default()
    }
}

fn pool_cfg(cache: TincaConfig) -> PoolConfig {
    PoolConfig {
        cache,
        ..PoolConfig::default()
    }
}

/// Formats the paper's single cache (a one-shard pool) on `nvm`.
fn format(nvm: &nvmsim::Nvm, disk: &blockdev::Disk) -> TincaPool {
    TincaPool::format(vec![nvm.clone()], disk.clone(), pool_cfg(tinca_cfg()))
}

/// Recovers the one-shard pool on `nvm` after a crash.
fn recover(nvm: &nvmsim::Nvm, disk: &blockdev::Disk) -> Result<TincaPool, TincaError> {
    recover_with(nvm, disk, tinca_cfg())
}

fn recover_with(
    nvm: &nvmsim::Nvm,
    disk: &blockdev::Disk,
    cfg: TincaConfig,
) -> Result<TincaPool, TincaError> {
    TincaPool::recover(vec![nvm.clone()], disk.clone(), pool_cfg(cfg))
}

#[test]
fn crash_sweep_every_event_of_a_commit() {
    let blocks = [10u64, 20, 30];
    // Determine the event window of the second commit.
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let mut seed = cache.init_txn();
    for &b in &blocks {
        seed.write(b, &blk(1));
    }
    cache.commit(seed).unwrap();
    let start = nvm.events();
    let mut txn = cache.init_txn();
    for &b in &blocks {
        txn.write(b, &blk(2));
    }
    cache.commit(txn).unwrap();
    let window = nvm.events() - start;
    drop(cache);

    let mut crashes = 0;
    let mut completions = 0;
    // `window + 2` never fires during the commit, covering the
    // "completed, then crashed" case.
    for trip in 1..=window + 2 {
        for policy in [CrashPolicy::LoseVolatile, CrashPolicy::Random(trip * 7919)] {
            if run_one_crash(trip, policy, &blocks) {
                crashes += 1;
            } else {
                completions += 1;
            }
        }
    }
    assert!(crashes > 0, "sweep never crashed mid-commit");
    assert!(
        completions > 0,
        "sweep never reached completion (tail event)"
    );
}

#[test]
fn crash_long_after_commit_keeps_everything() {
    for policy in [
        CrashPolicy::LoseVolatile,
        CrashPolicy::PersistAll,
        CrashPolicy::Random(3),
    ] {
        let (nvm, disk) = fresh_stack();
        let cache = format(&nvm, &disk);
        for round in 0..5u64 {
            let mut t = cache.init_txn();
            for b in 0..8u64 {
                t.write(b, &blk(round as u8 + 1));
            }
            cache.commit(t).unwrap();
        }
        drop(cache);
        nvm.crash(policy);
        let rec = recover(&nvm, &disk).unwrap();
        rec.check_consistency().unwrap();
        for b in 0..8u64 {
            assert_eq!(observed(&rec, b), 5, "block {b} lost committed data");
        }
    }
}

#[test]
fn crash_before_any_commit_recovers_empty() {
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);
    let rec = recover(&nvm, &disk).unwrap();
    rec.check_consistency().unwrap();
    assert_eq!(rec.cached_blocks(), 0);
    assert_eq!(rec.stats().recoveries, 1);
}

#[test]
fn recovery_of_unformatted_region_fails() {
    let (nvm, disk) = fresh_stack();
    match recover(&nvm, &disk) {
        Err(TincaError::BadMagic { .. }) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("recovery of an unformatted region must fail"),
    }
}

#[test]
fn write_miss_crash_removes_fresh_block() {
    // A transaction writing a *fresh* block (never cached) that crashes
    // mid-commit must leave no trace of the block in the cache.
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let mut txn: Txn = cache.init_txn();
    txn.write(77, &blk(9));
    // Trip inside the payload flush (event window starts right away).
    nvm.set_trip(Some(10));
    let r = catch_unwind(AssertUnwindSafe(|| cache.commit(txn)));
    assert!(r.is_err());
    drop(cache);
    nvm.crash(CrashPolicy::Random(42));
    let rec = recover(&nvm, &disk).unwrap();
    rec.check_consistency().unwrap();
    assert!(!rec.contains(77), "fresh block of torn txn must be revoked");
    assert_eq!(observed(&rec, 77), 0);
}

#[test]
fn double_crash_during_recovery_is_idempotent() {
    // Crash mid-commit, then crash *during recovery*, then recover again.
    let blocks = [1u64, 2, 3, 4];
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let mut seed = cache.init_txn();
    for &b in &blocks {
        seed.write(b, &blk(1));
    }
    cache.commit(seed).unwrap();
    let start = nvm.events();

    let mut txn = cache.init_txn();
    for &b in &blocks {
        txn.write(b, &blk(2));
    }
    // Crash near the end of the commit (role-switch region) so recovery
    // has real revocation work to do.
    let (nvm2, disk2) = fresh_stack();
    let probe = format(&nvm2, &disk2);
    let mut p1 = probe.init_txn();
    for &b in &blocks {
        p1.write(b, &blk(1));
    }
    probe.commit(p1).unwrap();
    let p_start = nvm2.events();
    let mut p2 = probe.init_txn();
    for &b in &blocks {
        p2.write(b, &blk(2));
    }
    probe.commit(p2).unwrap();
    let commit_events = nvm2.events() - p_start;

    let _ = start;
    nvm.set_trip(Some(commit_events - 3));
    let r = catch_unwind(AssertUnwindSafe(|| cache.commit(txn)));
    assert!(r.is_err(), "commit should crash near its end");
    drop(cache);
    nvm.crash(CrashPolicy::Random(7));

    // First recovery: crash it at every possible event.
    let probe_rec = recover(&nvm, &disk).unwrap();
    drop(probe_rec);
    // nvm now reflects a *completed* first recovery; capture how many
    // events a full recovery takes by re-crashing and measuring.
    // Simpler: sweep a bounded number of trip points on fresh replays.
    for trip in 1..40u64 {
        let (nvm_i, disk_i) = fresh_stack();
        let c = format(&nvm_i, &disk_i);
        let mut s = c.init_txn();
        for &b in &blocks {
            s.write(b, &blk(1));
        }
        c.commit(s).unwrap();
        let mut t = c.init_txn();
        for &b in &blocks {
            t.write(b, &blk(2));
        }
        nvm_i.set_trip(Some(commit_events - 3));
        let r = catch_unwind(AssertUnwindSafe(|| c.commit(t)));
        assert!(r.is_err());
        drop(c);
        nvm_i.crash(CrashPolicy::Random(trip));

        // First recovery, tripped at `trip` events in.
        nvm_i.set_trip(Some(trip));
        let r1 = catch_unwind(AssertUnwindSafe(|| recover(&nvm_i, &disk_i)));
        match r1 {
            Ok(Ok(rec1)) => {
                // Recovery finished before the trip.
                nvm_i.set_trip(None);
                rec1.check_consistency().unwrap();
                let v: Vec<u8> = blocks.iter().map(|&b| observed(&rec1, b)).collect();
                assert!(
                    v.iter().all(|&x| x == 1) || v.iter().all(|&x| x == 2),
                    "{v:?}"
                );
            }
            Ok(Err(e)) => panic!("recovery error: {e}"),
            Err(_) => {
                // Crashed during recovery; crash the device and re-recover.
                nvm_i.crash(CrashPolicy::Random(trip ^ 0xABCD));
                let rec2 = recover(&nvm_i, &disk_i).expect("second recovery");
                rec2.check_consistency()
                    .unwrap_or_else(|e| panic!("inconsistent after double crash: {e}"));
                let v: Vec<u8> = blocks.iter().map(|&b| observed(&rec2, b)).collect();
                assert!(
                    v.iter().all(|&x| x == 1) || v.iter().all(|&x| x == 2),
                    "torn after double crash at trip {trip}: {v:?}"
                );
            }
        }
    }
}

#[test]
fn crash_with_dirty_cache_preserves_committed_data_not_yet_on_disk() {
    // Committed data lives only in NVM (write-back). After a crash it must
    // still be readable even though the disk never saw it.
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let mut t = cache.init_txn();
    t.write(500, &blk(0x77));
    cache.commit(t).unwrap();
    assert_eq!(disk.stats().writes, 0);
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);
    let rec = recover(&nvm, &disk).unwrap();
    assert_eq!(observed(&rec, 500), 0x77);
}

#[test]
fn mixed_hit_miss_transaction_crash_atomicity() {
    // A txn mixing write hits (COW path) and write misses (FRESH path):
    // sweep several crash points and check atomicity of the whole set.
    let hits = [1u64, 2];
    let misses = [100u64, 101];
    // Measure event window.
    let (nvm0, disk0) = fresh_stack();
    let c0 = format(&nvm0, &disk0);
    let mut s0 = c0.init_txn();
    for &b in &hits {
        s0.write(b, &blk(1));
    }
    c0.commit(s0).unwrap();
    let e0 = nvm0.events();
    let mut t0 = c0.init_txn();
    for &b in &hits {
        t0.write(b, &blk(2));
    }
    for &b in &misses {
        t0.write(b, &blk(2));
    }
    c0.commit(t0).unwrap();
    let window = nvm0.events() - e0;

    for frac in 1..=10u64 {
        let trip_off = window * frac / 10;
        let (nvm, disk) = fresh_stack();
        let cache = format(&nvm, &disk);
        let mut seed = cache.init_txn();
        for &b in &hits {
            seed.write(b, &blk(1));
        }
        cache.commit(seed).unwrap();
        let mut txn = cache.init_txn();
        for &b in &hits {
            txn.write(b, &blk(2));
        }
        for &b in &misses {
            txn.write(b, &blk(2));
        }
        nvm.set_trip(Some(trip_off.max(1)));
        let crashed = catch_unwind(AssertUnwindSafe(|| cache.commit(txn))).is_err();
        nvm.set_trip(None);
        drop(cache);
        nvm.crash(CrashPolicy::Random(frac));
        let rec = recover(&nvm, &disk).unwrap();
        rec.check_consistency().unwrap();
        let hv: Vec<u8> = hits.iter().map(|&b| observed(&rec, b)).collect();
        let mv: Vec<u8> = misses.iter().map(|&b| observed(&rec, b)).collect();
        let all_old = hv.iter().all(|&v| v == 1) && mv.iter().all(|&v| v == 0);
        let all_new = hv.iter().all(|&v| v == 2) && mv.iter().all(|&v| v == 2);
        assert!(
            all_old || all_new,
            "torn mixed txn at {trip_off}/{window} (crashed={crashed}): hits {hv:?} misses {mv:?}"
        );
    }
}

#[test]
fn recovery_counts_revoked_blocks() {
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let mut txn = cache.init_txn();
    for b in 0..4u64 {
        txn.write(b, &blk(1));
    }
    // Crash late in the commit so several blocks are in flight.
    nvm.set_trip(Some(200));
    let crashed = catch_unwind(AssertUnwindSafe(|| cache.commit(txn))).is_err();
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);
    let rec = recover(&nvm, &disk).unwrap();
    if crashed {
        assert!(
            rec.stats().revoked_blocks > 0,
            "crash mid-commit should revoke blocks"
        );
    }
    rec.check_consistency().unwrap();
}

#[test]
fn recovery_across_ring_wraparound() {
    // Drive the ring close to its capacity boundary, then crash a commit
    // whose window wraps around the end of the ring; recovery must walk
    // the wrapped window correctly.
    quiet_crash_panics();
    let (nvm, disk) = fresh_stack();
    let cache = format(&nvm, &disk);
    let ring_cap = RING_BYTES as u64 / 8;
    // Advance Head/Tail to just short of a multiple of the capacity.
    let mut advanced = 0u64;
    let mut b = 1000u64;
    while advanced < ring_cap - 2 {
        let batch = 8.min(ring_cap - 2 - advanced).max(1);
        let mut t = cache.init_txn();
        for k in 0..batch {
            t.write(b + k, &blk(1));
        }
        cache.commit(t).unwrap();
        advanced += batch;
        b += batch;
    }
    // Seed the victim blocks with version 1.
    let victims = [1u64, 2, 3, 4, 5];
    let mut seed = cache.init_txn();
    for &v in &victims {
        seed.write(v, &blk(1));
    }
    cache.commit(seed).unwrap(); // this txn itself wraps the ring
                                 // Now crash a wrapping update mid-commit.
    let mut txn = cache.init_txn();
    for &v in &victims {
        txn.write(v, &blk(2));
    }
    nvm.set_trip(Some(300)); // inside the per-block phase
    let crashed = catch_unwind(AssertUnwindSafe(|| cache.commit(txn))).is_err();
    drop(cache);
    nvm.crash(CrashPolicy::Random(77));
    let rec = recover(&nvm, &disk).unwrap();
    rec.check_consistency().unwrap();
    let versions: Vec<u8> = victims.iter().map(|&v| observed(&rec, v)).collect();
    let all_old = versions.iter().all(|&v| v == 1);
    let all_new = versions.iter().all(|&v| v == 2);
    assert!(all_old || all_new, "wrapped-window txn torn: {versions:?}");
    if !crashed {
        assert!(all_new);
    }
}

/// Recovering with a config whose geometry disagrees with the NVM header
/// must fail with a structured error naming the first mismatching field —
/// not panic — and must leave the region recoverable with the right
/// config. (Regression: this used to be an `assert_eq!`.)
#[test]
fn recover_with_wrong_geometry_returns_structured_error() {
    let (nvm, disk) = fresh_stack();
    let cfg = TincaConfig {
        ring_bytes: RING_BYTES,
        ..TincaConfig::default()
    };
    let cache = TincaPool::format(vec![nvm.clone()], disk.clone(), pool_cfg(cfg.clone()));
    let mut t = cache.init_txn();
    t.write(3, &blk(0x42));
    cache.commit(t).unwrap();
    drop(cache);

    let wrong = TincaConfig {
        ring_bytes: RING_BYTES * 2,
        ..TincaConfig::default()
    };
    match recover_with(&nvm, &disk, wrong) {
        Err(TincaError::GeometryMismatch {
            field,
            found,
            expected,
        }) => {
            assert_eq!(field, "ring_cap");
            assert_eq!(found, (RING_BYTES / 8) as u64);
            assert_eq!(expected, (RING_BYTES * 2 / 8) as u64);
        }
        Err(other) => panic!("expected GeometryMismatch, got {other:?}"),
        Ok(_) => panic!("recovery with wrong geometry must fail"),
    }

    // The failed attempt read the header only; the right config recovers
    // the region and the committed block intact.
    let cache = recover_with(&nvm, &disk, cfg).unwrap();
    cache.check_consistency().unwrap();
    assert_eq!(observed(&cache, 3), 0x42);
}

/// Entries one watermark raise covers (DESIGN §4.1).
const WATERMARK_STEP: u64 = 64;
/// Metadata lines every recovery loads: line 0 (magic, geometry, the
/// descriptors-armed word and the entry watermark), `Head` and `Tail`.
const HEADER_LINES: u64 = 3;
/// The descriptor table's lines, loaded only on a region a lock-free
/// ring armed.
const DESCRIPTOR_LINES: u64 = 32;

/// Commits distinct blocks `0..blocks`, 64 to a transaction, on a fresh
/// one-shard pool of `nvm_bytes` with a `ring_bytes` ring, cuts the power
/// with nothing in flight and recovers. Returns the lines the recovery
/// loaded and the shard's entry count.
fn clean_recovery_lines(
    commit_mode: CommitMode,
    nvm_bytes: usize,
    ring_bytes: usize,
    blocks: u64,
) -> (u64, u64) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cfg = PoolConfig {
        commit_mode,
        ..pool_cfg(TincaConfig {
            ring_bytes,
            ..TincaConfig::default()
        })
    };
    let cache = TincaPool::format(vec![nvm.clone()], disk.clone(), cfg.clone());
    for first in (0..blocks).step_by(64) {
        let mut t = cache.init_txn();
        for b in first..blocks.min(first + 64) {
            t.write(b, &blk(b as u8));
        }
        cache.commit(t).unwrap();
    }
    let entry_count = u64::from(cache.shard_layout(0).entry_count);
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);

    let before = nvm.stats().lines_read;
    let rec = TincaPool::recover(vec![nvm.clone()], disk.clone(), cfg).unwrap();
    let lines = nvm.stats().lines_read - before;
    rec.check_consistency().unwrap();
    assert_eq!(observed(&rec, blocks - 1), (blocks - 1) as u8);
    (lines, entry_count)
}

/// The entry-table lines below the watermark `used` entries raise.
fn watermark_lines(used: u64, entry_count: u64) -> u64 {
    let watermark = used.next_multiple_of(WATERMARK_STEP).min(entry_count);
    (watermark * 16).div_ceil(64)
}

/// Recovery's load cost, pinned: a clean-crash recovery loads each
/// metadata line once — the three header lines and the entry table's
/// lines below the entry watermark, plus the 32-line descriptor table on
/// a lock-free ring pool, whose format armed it — at two NVM sizes.
#[test]
fn clean_recovery_loads_each_metadata_line_once() {
    for (commit_mode, descriptor_lines) in [
        (CommitMode::Mutex, 0),
        (CommitMode::LockFreeRing, DESCRIPTOR_LINES),
    ] {
        for nvm_bytes in [NVM_BYTES, 4 << 20] {
            let (lines, entry_count) = clean_recovery_lines(commit_mode, nvm_bytes, RING_BYTES, 8);
            assert_eq!(
                lines,
                HEADER_LINES + watermark_lines(8, entry_count) + descriptor_lines,
                "{commit_mode:?}: {nvm_bytes} B of NVM, {entry_count} entries"
            );
            assert_eq!(lines, HEADER_LINES + 16 + descriptor_lines);
        }
    }
}

/// Recovery follows the slots a shard has used, not the size of its NVM:
/// the same 512 committed blocks recover with the same loads — the header
/// lines and the 128 lines below the watermark — on a 4 MB and on an
/// 8 MB shard, whose tables hold 1 015 and 2 035 entries.
#[test]
fn recovery_loads_are_flat_in_cache_size() {
    let [small, large] = [4 << 20, 8 << 20]
        .map(|nvm_bytes| clean_recovery_lines(CommitMode::Mutex, nvm_bytes, 16 << 10, 512));
    assert_eq!((small.1, large.1), (1015, 2035));
    assert_eq!(small.0, HEADER_LINES + 128);
    assert_eq!(large.0, small.0);
}

/// A shard whose every entry slot has held a block raised the watermark
/// to the top of its table, so its recovery still loads the whole table:
/// 257 lines on the open-loop benchmark's 4 MB shard with a 16 KB ring.
#[test]
fn a_full_shard_still_loads_its_whole_table() {
    let (lines, entry_count) = clean_recovery_lines(CommitMode::Mutex, 4 << 20, 16 << 10, 1100);
    assert_eq!(entry_count, 1015);
    assert_eq!(lines, 257);
}
