//! Criterion micro-benchmarks of whole-stack file operations: the same
//! FS op on the Tinca and Classic stacks, measuring the real per-op
//! implementation work (simulated-time effects are covered by the figure
//! harnesses).

use blockdev::BLOCK_SIZE;
use criterion::{criterion_group, criterion_main, Criterion};
use fssim::stack::{build, Stack, StackConfig, System};

fn stack(sys: System) -> Stack {
    let mut cfg = StackConfig::tiny(sys);
    cfg.nvm_bytes = 16 << 20;
    cfg.disk_blocks = 1 << 17;
    cfg.max_files = 8 << 10;
    build(&cfg).unwrap()
}

fn bench_file_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_write_16k");
    for sys in [System::Tinca, System::Classic, System::Ubj] {
        group.bench_function(sys.name(), |b| {
            let mut s = stack(sys);
            let f = s.fs.create("bench.dat").unwrap();
            s.fs.write(f, 0, &vec![1u8; 512 * BLOCK_SIZE]).unwrap();
            s.fs.fsync().unwrap();
            let data = vec![2u8; 16 << 10];
            let mut i = 0u64;
            b.iter(|| {
                s.fs.write(f, (i % 500) * BLOCK_SIZE as u64, &data).unwrap();
                i += 1;
                if i.is_multiple_of(64) {
                    s.fs.fsync().unwrap();
                }
            });
        });
    }
    group.finish();
}

fn bench_file_read_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_read_16k_hit");
    for sys in [System::Tinca, System::Classic] {
        group.bench_function(sys.name(), |b| {
            let mut s = stack(sys);
            let f = s.fs.create("bench.dat").unwrap();
            s.fs.write(f, 0, &vec![1u8; 128 * BLOCK_SIZE]).unwrap();
            s.fs.fsync().unwrap();
            let mut buf = vec![0u8; 16 << 10];
            let mut i = 0u64;
            b.iter(|| {
                s.fs.read(f, (i % 120) * BLOCK_SIZE as u64, &mut buf)
                    .unwrap();
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_create_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_create_delete");
    group.sample_size(20);
    for sys in [System::Tinca, System::Classic] {
        group.bench_function(sys.name(), |b| {
            let mut s = stack(sys);
            let mut i = 0u64;
            b.iter(|| {
                let name = format!("churn-{i}");
                let f = s.fs.create(&name).unwrap();
                s.fs.write(f, 0, &[7u8; 4096]).unwrap();
                s.fs.delete(&name).unwrap();
                i += 1;
            });
        });
    }
    group.finish();
}

/// Blocks of the file the fio-shaped benchmarks read and write.
const FIO_BLOCKS: u64 = 1024;

/// fio's read: one 4 KB block, a miss in a full DRAM page cache, so every
/// read admits its block and evicts the least recently used one (the file
/// is read cyclically, four times the cache; the NVM cache holds it all).
fn bench_read_4k_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_read_4k_miss");
    group.sample_size(4000);
    for sys in [System::Tinca, System::Classic] {
        group.bench_function(sys.name(), |b| {
            let mut cfg = StackConfig::tiny(sys);
            cfg.nvm_bytes = 16 << 20;
            cfg.disk_blocks = 1 << 17;
            cfg.dram_cache_blocks = Some(FIO_BLOCKS as usize / 4);
            let mut s = build(&cfg).unwrap();
            let f = s.fs.create("bench.dat").unwrap();
            s.fs.write(f, 0, &vec![1u8; FIO_BLOCKS as usize * BLOCK_SIZE])
                .unwrap();
            s.fs.fsync().unwrap();
            let mut buf = [0u8; BLOCK_SIZE];
            let mut i = 0u64;
            b.iter(|| {
                s.fs.read(f, (i % FIO_BLOCKS) * BLOCK_SIZE as u64, &mut buf)
                    .unwrap();
                i += 1;
            });
        });
    }
    group.finish();
}

/// fio's write phase: 64 single-block overwrites spread over the file,
/// then `fsync` (one transaction of 64 blocks).
fn bench_write_4k_fsync_64(c: &mut Criterion) {
    let mut group = c.benchmark_group("fs_write_4k_fsync_64");
    for sys in [System::Tinca, System::Classic] {
        group.bench_function(sys.name(), |b| {
            let mut cfg = StackConfig::tiny(sys);
            cfg.nvm_bytes = 16 << 20;
            cfg.disk_blocks = 1 << 17;
            cfg.txn_block_limit = 128;
            let mut s = build(&cfg).unwrap();
            let f = s.fs.create("bench.dat").unwrap();
            s.fs.write(f, 0, &vec![1u8; FIO_BLOCKS as usize * BLOCK_SIZE])
                .unwrap();
            s.fs.fsync().unwrap();
            let data = [2u8; BLOCK_SIZE];
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..64 {
                    let blk = i.wrapping_mul(97) % FIO_BLOCKS;
                    s.fs.write(f, blk * BLOCK_SIZE as u64, &data).unwrap();
                    i += 1;
                }
                s.fs.fsync().unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_file_write, bench_file_read_hit, bench_create_delete,
        bench_read_4k_miss, bench_write_4k_fsync_64
);
criterion_main!(benches);
