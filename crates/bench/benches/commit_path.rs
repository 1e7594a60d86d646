//! Criterion micro-benchmarks of the commit path: Tinca's transactional
//! commit vs the journal-style double write, across transaction sizes.
//! These back the paper's §4 design claims with host-time measurements of
//! the actual implementation (the figure harnesses measure simulated
//! time; here we measure the real data-structure work).

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nvmsim::{shard_devices, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::openloop::{ArrivalStream, OpKind, OpenLoopServer, OpenLoopSpec, TincaServer};

fn build_cache(role_switch: bool) -> TincaPool {
    build_cache_cfg(TincaConfig {
        ring_bytes: 256 << 10,
        role_switch,
        ..TincaConfig::default()
    })
}

fn build_cache_cfg(cfg: TincaConfig) -> TincaPool {
    build_cache_on(64 << 20, cfg)
}

/// The paper's single cache (a one-shard pool) on `nvm_bytes` of PCM.
fn build_cache_on(nvm_bytes: usize, cache: TincaConfig) -> TincaPool {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock);
    let cfg = PoolConfig {
        cache,
        ..PoolConfig::default()
    };
    TincaPool::format(vec![nvm], disk, cfg)
}

fn bench_commit_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_txn_size");
    for &blocks in &[1usize, 8, 64, 256] {
        group.throughput(Throughput::Bytes((blocks * BLOCK_SIZE) as u64));
        group.bench_with_input(BenchmarkId::new("tinca", blocks), &blocks, |b, &n| {
            let cache = build_cache(true);
            let payload = [0x5Au8; BLOCK_SIZE];
            let mut round = 0u64;
            b.iter(|| {
                let mut txn = cache.init_txn();
                for i in 0..n as u64 {
                    // Rotate block numbers so hits and misses both occur.
                    txn.write((round * 7 + i) % 4096, &payload);
                }
                cache.commit(txn).unwrap();
                round += 1;
            });
        });
    }
    group.finish();
}

fn bench_role_switch_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("role_switch_ablation");
    for (name, role_switch) in [("role_switch", true), ("double_write", false)] {
        group.bench_function(name, |b| {
            let cache = build_cache(role_switch);
            let payload = [0xA5u8; BLOCK_SIZE];
            let mut round = 0u64;
            b.iter(|| {
                let mut txn = cache.init_txn();
                for i in 0..16u64 {
                    txn.write((round * 3 + i) % 2048, &payload);
                }
                cache.commit(txn).unwrap();
                round += 1;
            });
        });
    }
    group.finish();
}

fn bench_commit_hit_vs_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_hit_vs_miss");
    group.bench_function("all_hits_cow", |b| {
        let cache = build_cache(true);
        let payload = [1u8; BLOCK_SIZE];
        // Pre-populate so every commit is a COW write hit.
        let mut seed = cache.init_txn();
        for i in 0..64u64 {
            seed.write(i, &payload);
        }
        cache.commit(seed).unwrap();
        b.iter(|| {
            let mut txn = cache.init_txn();
            for i in 0..64u64 {
                txn.write(i, &payload);
            }
            cache.commit(txn).unwrap();
        });
    });
    group.bench_function("all_misses_fresh", |b| {
        let cache = build_cache(true);
        let payload = [2u8; BLOCK_SIZE];
        let mut next = 0u64;
        b.iter(|| {
            let mut txn = cache.init_txn();
            for _ in 0..64 {
                txn.write(next, &payload);
                next += 1;
            }
            cache.commit(txn).unwrap();
        });
    });
    group.finish();
}

fn bench_flush_coalescing(c: &mut Criterion) {
    // Host-time cost of the stage+ring hot path with per-line flushes vs
    // the cache-line dedup pass (the dedup set is extra DRAM work per
    // commit; the elided clflushes are simulated time, not host time —
    // this group bounds what the bookkeeping itself costs).
    let mut group = c.benchmark_group("flush_coalescing");
    for (name, coalesce) in [("per_line_flush", false), ("coalesced_flush", true)] {
        group.bench_function(name, |b| {
            let cache = build_cache_cfg(TincaConfig {
                ring_bytes: 256 << 10,
                coalesce_flushes: coalesce,
                ..TincaConfig::default()
            });
            let payload = [0x3Cu8; BLOCK_SIZE];
            let mut round = 0u64;
            b.iter(|| {
                let mut txn = cache.init_txn();
                for i in 0..32u64 {
                    txn.write((round * 5 + i) % 2048, &payload);
                }
                cache.commit(txn).unwrap();
                round += 1;
            });
        });
    }
    group.finish();
}

fn bench_destage_pipeline(c: &mut Criterion) {
    // Commit under steady eviction pressure (working set 2× the cache):
    // synchronous victim writeback on the allocation path vs the
    // watermark daemon's batched background writeback.
    let mut group = c.benchmark_group("destage_pipeline");
    for (name, destage) in [("sync_writeback", false), ("write_behind", true)] {
        group.bench_function(name, |b| {
            let cache = build_cache_on(
                1 << 20,
                TincaConfig {
                    ring_bytes: 4096,
                    destage,
                    coalesce_flushes: destage,
                    ..TincaConfig::default()
                },
            );
            let span = u64::from(cache.shard_layout(0).data_blocks) * 2;
            let payload = [0xC3u8; BLOCK_SIZE];
            let mut round = 0u64;
            b.iter(|| {
                let mut txn = cache.init_txn();
                for i in 0..4u64 {
                    txn.write((round * 13 + i) % span, &payload);
                }
                cache.commit(txn).unwrap();
                round += 1;
            });
        });
    }
    group.finish();
}

fn bench_open_loop_write_op(c: &mut Criterion) {
    // One steady-state 2-block write of the open-loop benchmark's
    // `ol_write_hot` workload, served as `OpenLoopDriver` serves it (payload
    // build, transaction, coalesced commit, destage check) on the same
    // pool: four 4 MB PCM shards, 16 KB rings, destage and flush
    // coalescing on, an 8 MB working set that fits the cache. The writes
    // of a seeded arrival stream are served once to warm the cache, then
    // timed in a loop; no queueing or clock bookkeeping is timed.
    const SHARDS: usize = 4;
    let mut group = c.benchmark_group("open_loop_write_op");
    group.sample_size(20_000);
    group.bench_function("ol_write_hot", |b| {
        let nvm = NvmConfig::new(SHARDS * (4 << 20), NvmTech::Pcm);
        let disk_clock = SimClock::new();
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
        let mut cfg = PoolConfig::with_shards(SHARDS);
        cfg.cache.ring_bytes = 16 << 10;
        cfg.cache.destage = true;
        cfg.cache.coalesce_flushes = true;
        let pool = TincaPool::format(shard_devices(&nvm, SHARDS), disk, cfg);
        let mut server = TincaServer::new(&pool, disk_clock);
        let mut spec = OpenLoopSpec::smoke(45_000.0);
        spec.ops = 8_192;
        spec.read_pct = 0;
        spec.blocks = 2_048;
        spec.txn_blocks = 2;
        spec.seed = 1;
        let writes: Vec<OpKind> = (ArrivalStream::new(&spec, SHARDS).map(|a| a.kind)).collect();
        for op in &writes {
            server.serve(op).unwrap();
        }
        let mut next = writes.iter().cycle();
        b.iter(|| server.serve(next.next().unwrap()).unwrap());
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_commit_sizes, bench_role_switch_ablation, bench_commit_hit_vs_miss,
        bench_flush_coalescing, bench_destage_pipeline, bench_open_loop_write_op
);
criterion_main!(benches);
