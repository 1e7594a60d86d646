//! Criterion micro-benchmarks comparing the two caches' per-operation
//! mechanics: Tinca's 16 B atomic cache-entry update vs Classic's 4 KB
//! metadata-block rewrite (§4.2 vs §3.2), and the read paths; plus the
//! host cost of Tinca's cold miss path (victim search, eviction, destage
//! and the NVM persist under them).

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

/// A one-shard destage-on pool whose working set is 16× its cache, warmed
/// by two passes of alternating reads and 2-block commits over that set,
/// so the LRU holds a clean/dirty mix and every later op on a cold block
/// evicts. Returns the pool and the working set's size in blocks.
fn cold_pool() -> (TincaPool, u64) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(4 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock);
    let mut cfg = PoolConfig::default();
    cfg.cache.destage = true;
    cfg.cache.coalesce_flushes = true;
    let pool = TincaPool::format(vec![nvm], disk, cfg);
    let span = u64::from(pool.shard_layout(0).data_blocks) * 16;
    let payload = [10u8; BLOCK_SIZE];
    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..span {
        let blk = (i * 7919) % span;
        if i % 2 == 0 {
            pool.read(blk, &mut buf).unwrap();
        } else {
            let mut txn = pool.init_txn();
            txn.write(blk, &payload);
            txn.write((blk + 1) % span, &payload);
            pool.commit(txn).unwrap();
        }
    }
    (pool, span)
}

fn bench_miss_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("miss_path");
    group.sample_size(4000);
    group.bench_function("tinca_read_miss", |b| {
        let (pool, span) = cold_pool();
        let mut buf = [0u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            pool.read((i * 104_729 + 3) % span, &mut buf).unwrap();
            i += 1;
        });
    });
    group.bench_function("tinca_commit_miss_2_blocks", |b| {
        let (pool, span) = cold_pool();
        let payload = [11u8; BLOCK_SIZE];
        let mut i = 0u64;
        b.iter(|| {
            let blk = (i * 104_729 + 5) % span;
            let mut txn = pool.init_txn();
            txn.write(blk, &payload);
            txn.write((blk + span / 2) % span, &payload);
            pool.commit(txn).unwrap();
            i += 1;
        });
    });
    group.bench_function("nvmsim_persist_block", |b| {
        // 256 blocks, cycled: the image's pages fault in once, untimed.
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), SimClock::new());
        let payload = [12u8; BLOCK_SIZE];
        let blocks = nvm.capacity() / BLOCK_SIZE;
        for i in 0..blocks {
            nvm.write(i * BLOCK_SIZE, &payload);
            nvm.persist(i * BLOCK_SIZE, BLOCK_SIZE);
        }
        let mut i = 0usize;
        b.iter(|| {
            let addr = (i % blocks) * BLOCK_SIZE;
            nvm.write(addr, &payload);
            nvm.clflush(addr, BLOCK_SIZE);
            nvm.sfence();
            i += 1;
        });
    });
    group.bench_function("nvmsim_persist_2_blocks_cold", |b| {
        // An `ol_write_hot` commit's shape: two blocks at scattered
        // addresses of a 16 MB device, each stored and flushed, then one
        // fence. The 1 MB image above stays in L2 and so under-reads the
        // write-back. The image's pages fault in once, untimed.
        let nvm = NvmDevice::new(NvmConfig::new(16 << 20, NvmTech::Pcm), SimClock::new());
        let payload = [13u8; BLOCK_SIZE];
        let blocks = nvm.capacity() / BLOCK_SIZE;
        for i in 0..blocks {
            nvm.write(i * BLOCK_SIZE, &payload);
            nvm.persist(i * BLOCK_SIZE, BLOCK_SIZE);
        }
        let mut i = 0usize;
        b.iter(|| {
            for k in 0..2 {
                let addr = ((i * 104_729 + k * blocks / 2) % blocks) * BLOCK_SIZE;
                nvm.write(addr, &payload);
                nvm.clflush(addr, BLOCK_SIZE);
            }
            nvm.sfence();
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_single_block_write, bench_read_hit, bench_eviction_pressure, bench_miss_path
);
criterion_main!(benches);
