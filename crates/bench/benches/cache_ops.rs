//! Criterion micro-benchmarks comparing the two caches' per-operation
//! mechanics: Tinca's 16 B atomic cache-entry update vs Classic's 4 KB
//! metadata-block rewrite (§4.2 vs §3.2), and the read paths.

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use classic::{ClassicCache, ClassicConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{PoolConfig, TincaPool};

fn nvm_disk() -> (nvmsim::Nvm, blockdev::Disk) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(64 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock);
    (nvm, disk)
}

fn bench_single_block_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_block_write");
    group.bench_function("tinca_txn_commit", |b| {
        let (nvm, disk) = nvm_disk();
        let cache = TincaPool::format(vec![nvm], disk, PoolConfig::default());
        let payload = [3u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            let mut txn = cache.init_txn();
            txn.write(i % 4096, &payload);
            cache.commit(txn).unwrap();
            i += 1;
        });
    });
    group.bench_function("classic_sync_meta", |b| {
        let (nvm, disk) = nvm_disk();
        let mut cache = ClassicCache::format(nvm, disk, ClassicConfig::default());
        let payload = [4u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            cache.write(i % 4096, &payload).unwrap();
            i += 1;
        });
    });
    group.bench_function("classic_no_meta", |b| {
        let (nvm, disk) = nvm_disk();
        let cfg = ClassicConfig {
            sync_metadata: false,
            ..ClassicConfig::default()
        };
        let mut cache = ClassicCache::format(nvm, disk, cfg);
        let payload = [5u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            cache.write(i % 4096, &payload).unwrap();
            i += 1;
        });
    });
    group.bench_function("ubj_txn_commit", |b| {
        let (nvm, disk) = nvm_disk();
        let mut cache = ubj::UbjCache::format(nvm, disk);
        let mut i = 0u64;
        b.iter(|| {
            cache
                .commit_txn(&[(i % 4096, Box::new([6u8; BLOCK_SIZE]))])
                .unwrap();
            i += 1;
        });
    });
    group.finish();
}

fn bench_read_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_hit");
    group.bench_function("tinca", |b| {
        let (nvm, disk) = nvm_disk();
        let cache = TincaPool::format(vec![nvm], disk, PoolConfig::default());
        let payload = [6u8; BLOCK_SIZE];
        let mut seed = cache.init_txn();
        for i in 0..512u64 {
            seed.write(i, &payload);
        }
        cache.commit(seed).unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            cache.read(i % 512, &mut buf).unwrap();
            i += 1;
        });
    });
    group.bench_function("classic", |b| {
        let (nvm, disk) = nvm_disk();
        let mut cache = ClassicCache::format(nvm, disk, ClassicConfig::default());
        let payload = [7u8; BLOCK_SIZE];
        for i in 0..512u64 {
            cache.write(i, &payload).unwrap();
        }
        let mut buf = [0u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            cache.read(i % 512, &mut buf).unwrap();
            i += 1;
        });
    });
    group.finish();
}

fn bench_eviction_pressure(c: &mut Criterion) {
    // Writes over a range 4× the cache: every operation replaces a block.
    let mut group = c.benchmark_group("eviction_pressure");
    group.sample_size(10);
    group.bench_function("tinca", |b| {
        let (nvm, disk) = nvm_disk();
        let cache = TincaPool::format(vec![nvm], disk, PoolConfig::default());
        let blocks = u64::from(cache.shard_layout(0).data_blocks) * 4;
        let payload = [8u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            let mut txn = cache.init_txn();
            txn.write((i * 17) % blocks, &payload);
            cache.commit(txn).unwrap();
            i += 1;
        });
    });
    group.bench_function("classic", |b| {
        let (nvm, disk) = nvm_disk();
        let mut cache = ClassicCache::format(nvm, disk, ClassicConfig::default());
        let blocks = cache.layout().num_blocks as u64 * 4;
        let payload = [9u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            cache.write((i * 17) % blocks, &payload).unwrap();
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_single_block_write, bench_read_hit, bench_eviction_pressure
);
criterion_main!(benches);
