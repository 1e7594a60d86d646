// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Write-behind destage pipeline and commit-path flush coalescing on the
//! paper's single cache (a one-shard pool): foreground-latency benefit,
//! durability, and the eviction-error accounting regression. The
//! watermark and dirty-count checks, which need the cache's dirty set,
//! are unit tests in `cache.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{BlockDevice, DiskKind, FaultPlan, FaultyDisk, SimDisk, BLOCK_SIZE};
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{DynDisk, PoolConfig, StatsSnapshot, TincaConfig, TincaPool};

const NVM_BYTES: usize = 256 << 10; // 61 data blocks
const RING_BYTES: usize = 4096;

fn cfg(destage: bool, coalesce: bool) -> TincaConfig {
    TincaConfig {
        ring_bytes: RING_BYTES,
        destage,
        coalesce_flushes: coalesce,
        ..TincaConfig::default()
    }
}

fn stack(kind: DiskKind) -> (nvmsim::Nvm, blockdev::Disk, SimClock) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(NVM_BYTES, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(kind, 1 << 16, clock.clone());
    (nvm, disk, clock)
}

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

fn pool_cfg(cache: TincaConfig) -> PoolConfig {
    PoolConfig {
        cache,
        ..PoolConfig::default()
    }
}

/// The paper's single cache: a one-shard pool on `nvm`.
fn format(nvm: &nvmsim::Nvm, disk: DynDisk, cache: TincaConfig) -> TincaPool {
    TincaPool::format(vec![nvm.clone()], disk, pool_cfg(cache))
}

/// The cache's data-block capacity.
fn capacity(cache: &TincaPool) -> u64 {
    u64::from(cache.shard_layout(0).data_blocks)
}

/// One-block transactions over `span` distinct disk blocks, `n` commits.
fn write_cycle(cache: &TincaPool, n: u64, span: u64) {
    for i in 0..n {
        let mut t = cache.init_txn();
        t.write(i % span, &blk((i % 251) as u8));
        cache.commit(t).unwrap();
    }
}

#[test]
fn destage_disabled_never_touches_the_disk_early() {
    let (nvm, disk, _) = stack(DiskKind::Ssd);
    let cache = format(&nvm, disk.clone(), cfg(false, false));
    let capacity = capacity(&cache);
    write_cycle(&cache, capacity - 2, capacity - 2);
    assert_eq!(cache.stats().destage_batches, 0);
    assert_eq!(cache.stats().writebacks, 0);
    assert_eq!(disk.stats().writes, 0, "write-back cache wrote early");
}

#[test]
fn destage_cuts_foreground_time_on_eviction_heavy_writes() {
    // Same workload, destage off vs on; evictions dominate. With the
    // daemon keeping the LRU tail clean, the foreground path stops
    // paying synchronous writebacks, so simulated wall time drops.
    let run = |destage: bool| {
        let (nvm, disk, clock) = stack(DiskKind::Ssd);
        let cache = format(&nvm, disk, cfg(destage, false));
        let span = capacity(&cache) * 2;
        write_cycle(&cache, span * 2, span);
        let s = cache.stats();
        (clock.now_ns(), s)
    };
    let (off_ns, off) = run(false);
    let (on_ns, on) = run(true);
    assert!(off.evictions > 0 && on.evictions > 0);
    assert!(on.destage_blocks > 0);
    assert!(
        on_ns < off_ns,
        "destage should cut foreground time: on={on_ns} off={off_ns}"
    );
    // The work still happened — on the background lane.
    assert!(on.writebacks >= off.writebacks / 2);
}

#[test]
fn coalescing_reduces_clflush_without_changing_contents() {
    let run = |coalesce: bool| {
        let (nvm, disk, _) = stack(DiskKind::Ssd);
        let cache = format(&nvm, disk, cfg(false, coalesce));
        // Multi-block transactions: entries allocated together share
        // 64 B lines, which is where coalescing wins.
        for i in 0..8u64 {
            let mut t = cache.init_txn();
            for j in 0..6u64 {
                t.write(i * 6 + j, &blk((i * 6 + j) as u8));
            }
            cache.commit(t).unwrap();
        }
        cache.check_consistency().unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        let mut contents = Vec::new();
        for b in 0..48u64 {
            cache.read(b, &mut buf).unwrap();
            contents.push(buf);
        }
        (StatsSnapshot::collect_pool(&cache), contents)
    };
    let (base, base_contents) = run(false);
    let (co, co_contents) = run(true);
    assert_eq!(base_contents, co_contents);
    assert!(co.cache.coalesced_flushes > 0);
    assert!(
        co.nvm.clflush < base.nvm.clflush,
        "coalescing must reduce clflush: {} vs {}",
        co.nvm.clflush,
        base.nvm.clflush
    );
    assert_eq!(
        co.nvm.clflush + co.cache.coalesced_flushes,
        base.nvm.clflush,
        "every elided flush must be accounted"
    );
}

/// Regression: a failed eviction used to be silently swallowed
/// (`let _ = self.evict(idx)`); it must surface in `eviction_errors`
/// and quarantine the victim.
#[test]
fn failed_eviction_is_counted_and_quarantined() {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(NVM_BYTES, NvmTech::Pcm), clock.clone());
    let inner = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    // Disk block 0 is permanently bad: its dirty writeback can't succeed.
    let disk = FaultyDisk::new(inner, FaultPlan::quiet(7).with_bad_range(0..1));
    let cache = format(&nvm, disk, cfg(false, false));
    let capacity = capacity(&cache);
    // Block 0 first → it becomes the LRU victim once the pool drains.
    write_cycle(&cache, capacity * 2, capacity * 2);
    let s = cache.stats();
    assert!(s.eviction_errors >= 1, "failed eviction not counted: {s:?}");
    assert_eq!(s.eviction_errors, s.permanent_io_errors);
    assert!(cache.shard_quarantined(0) >= 1);
    cache.check_consistency().unwrap();
}

#[test]
fn destage_quarantines_bad_blocks_and_retries_transients() {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(NVM_BYTES, NvmTech::Pcm), clock.clone());
    let inner = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let disk = FaultyDisk::new(
        inner,
        FaultPlan::quiet(13)
            .with_bad_range(3..4)
            .with_transient_writes(120),
    );
    let cache = format(&nvm, disk, cfg(true, false));
    let capacity = capacity(&cache);
    write_cycle(&cache, capacity - 2, capacity - 2);
    let s = cache.stats();
    assert!(s.destage_batches > 0);
    // The bad block never destages: it is quarantined, not lost.
    assert!(cache.shard_quarantined(0) >= 1);
    assert!(cache.contains(3), "bad block must stay pinned in NVM");
    assert!(
        s.io_retries > 0 && s.transient_errors_absorbed > 0,
        "transient faults should be retried on the lane: {s:?}"
    );
    cache.check_consistency().unwrap();
}

/// Suppresses panic-hook output for the *expected* [`CrashTripped`]
/// panics crash injection produces.
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

/// One crash run under destage pressure: commit one-block transactions
/// over `capacity + 16` blocks (the daemon fires repeatedly), trip a
/// crash at persistence event `trip`, resolve un-fenced state per
/// `policy`, recover, and verify no acknowledged commit is lost.
/// Returns (crashed, destage batches completed before the crash).
fn run_crash_destage(trip: u64, policy: CrashPolicy) -> (bool, u64) {
    let (nvm, disk, _) = stack(DiskKind::Ssd);
    let c = cfg(true, true);
    let cache = format(&nvm, disk.clone(), c.clone());
    let span = capacity(&cache) + 16;
    // Oracle of acknowledged commits; `in_flight` is the one transaction
    // the crash may legitimately have torn down to all-or-nothing.
    let mut durable: HashMap<u64, u8> = HashMap::new();
    let mut in_flight: Option<(u64, u8)> = None;
    nvm.set_trip(Some(trip));
    let crashed = {
        let (cache, durable, in_flight) = (&cache, &mut durable, &mut in_flight);
        catch_unwind(AssertUnwindSafe(move || {
            for i in 0..span * 2 {
                let (b, v) = (i % span, (i % 251) as u8 + 1);
                *in_flight = Some((b, v));
                let mut t = cache.init_txn();
                t.write(b, &blk(v));
                cache.commit(t).unwrap();
                durable.insert(b, v);
                *in_flight = None;
            }
        }))
        .is_err()
    };
    nvm.set_trip(None);
    let batches = cache.stats().destage_batches;
    drop(cache); // DRAM dies with the power failure
    nvm.crash(policy);

    let rec = TincaPool::recover(vec![nvm], disk, pool_cfg(c)).expect("recovery must succeed");
    rec.check_consistency()
        .unwrap_or_else(|e| panic!("inconsistent after trip {trip}: {e}"));
    let staged = in_flight.filter(|_| crashed);
    let mut buf = [0u8; BLOCK_SIZE];
    for (&b, &v) in &durable {
        rec.read_nocache(b, &mut buf)
            .unwrap_or_else(|e| panic!("acknowledged block {b} unreadable: {e}"));
        let got = buf[0];
        assert!(
            buf.iter().all(|&x| x == got),
            "block {b} torn at trip {trip}"
        );
        match staged {
            // The interrupted transaction may have committed or not —
            // but nothing in between, and never a third value.
            Some((sb, sv)) if sb == b => assert!(
                got == v || got == sv,
                "block {b} read {got} at trip {trip}: neither old {v} nor in-flight {sv}"
            ),
            _ => assert_eq!(got, v, "block {b} lost acknowledged commit at trip {trip}"),
        }
    }
    (crashed, batches)
}

/// The pipeline's headline crash property: a power cut at any persistence
/// event — including in the middle of a background destage batch — never
/// loses a commit that was acknowledged to the caller.
#[test]
fn crash_mid_destage_never_loses_an_acknowledged_commit() {
    quiet_crash_panics();
    // Measure the run's full persistence-event window once, untripped,
    // and confirm the workload exercises the daemon at all.
    let window = {
        let (nvm, disk, _) = stack(DiskKind::Ssd);
        let cache = format(&nvm, disk, cfg(true, true));
        let span = capacity(&cache) + 16;
        write_cycle(&cache, span * 2, span);
        assert!(cache.stats().destage_batches > 0, "workload never destages");
        nvm.events()
    };
    // Stride trips across the whole window; two resolution policies each.
    let sweeps = 32u64;
    let mut crashed_after_destage = 0u64;
    let mut completions = 0u64;
    // `window + 2` never fires: the "ran to completion" control case.
    for k in 0..=sweeps {
        let trip = if k == sweeps {
            window + 2
        } else {
            1 + k * window / sweeps
        };
        for policy in [
            CrashPolicy::Random(trip ^ 0xD157),
            CrashPolicy::LoseVolatile,
        ] {
            let (crashed, batches) = run_crash_destage(trip, policy);
            if crashed && batches > 0 {
                crashed_after_destage += 1;
            }
            if !crashed {
                completions += 1;
            }
        }
    }
    assert!(
        crashed_after_destage > 0,
        "sweep never crashed after the daemon started — widen the trip range"
    );
    assert!(completions > 0, "sweep never reached completion");
}
