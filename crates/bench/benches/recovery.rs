//! Criterion micro-benchmarks of the recovery path (§4.5): full-entry
//! scan + DRAM rebuild time as a function of cache size and of how much
//! revocation work the crash left behind.

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{PoolConfig, TincaError, TincaPool};

/// Formats the paper's single cache (a one-shard pool) on `nvm`.
fn format(nvm: &nvmsim::Nvm, disk: &blockdev::Disk) -> TincaPool {
    TincaPool::format(vec![nvm.clone()], disk.clone(), PoolConfig::default())
}

/// Recovers the one-shard pool on `nvm`.
fn recover(nvm: &nvmsim::Nvm, disk: &blockdev::Disk) -> Result<TincaPool, TincaError> {
    TincaPool::recover(vec![nvm.clone()], disk.clone(), PoolConfig::default())
}

/// Builds a crashed NVM image with `fill` fraction of the cache populated.
fn crashed_image(nvm_bytes: usize, fill_pct: u32) -> (nvmsim::Nvm, blockdev::Disk) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock);
    let cache = format(&nvm, &disk);
    let n = u64::from(cache.shard_layout(0).data_blocks) * fill_pct as u64 / 100;
    let payload = [1u8; BLOCK_SIZE];
    let mut i = 0u64;
    while i < n {
        let mut txn = cache.init_txn();
        for _ in 0..64.min(n - i) {
            txn.write(i, &payload);
            i += 1;
        }
        cache.commit(txn).unwrap();
    }
    drop(cache);
    nvm.crash(CrashPolicy::LoseVolatile);
    (nvm, disk)
}

fn bench_recovery_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_scan");
    group.sample_size(10);
    for &mb in &[8usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("clean_cache", mb), &mb, |b, &mb| {
            let (nvm, disk) = crashed_image(mb << 20, 80);
            b.iter(|| {
                let cache = recover(&nvm, &disk).unwrap();
                assert!(cache.cached_blocks() > 0);
            });
        });
    }
    group.finish();
}

fn bench_recovery_with_revocation(c: &mut Criterion) {
    // Crash mid-commit so recovery must walk the ring and revoke.
    let mut group = c.benchmark_group("recovery_revocation");
    group.sample_size(10);
    group.bench_function("interrupted_txn_64_blocks", |b| {
        crashsim::quiet_crash_panics();
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(16 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock);
        let cache = format(&nvm, &disk);
        let payload = [2u8; BLOCK_SIZE];
        let mut seed = cache.init_txn();
        for i in 0..64u64 {
            seed.write(i, &payload);
        }
        cache.commit(seed).unwrap();
        // Interrupt an update of all 64 blocks near its end.
        let mut txn = cache.init_txn();
        for i in 0..64u64 {
            txn.write(i, &payload);
        }
        nvm.set_trip(Some(4300));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.commit(txn)));
        nvm.set_trip(None);
        drop(cache);
        nvm.crash(CrashPolicy::LoseVolatile);
        b.iter(|| {
            let cache = recover(&nvm, &disk).unwrap();
            criterion::black_box(cache.stats().revoked_blocks);
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_recovery_scan, bench_recovery_with_revocation
);
criterion_main!(benches);
