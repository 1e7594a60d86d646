//! Simulated-time goldens: a fixed-seed 2-shard pool script, and a
//! fixed-seed file-system script on the paper-figure stack
//! (`fssim::stack` on `System::Tinca`), whose simulated clocks, device
//! counters and persistent images are pinned to constants; and the
//! open-loop tier's arrival stream, pinned by a hash of its first
//! arrivals.
//!
//! The simulator is deterministic, so a host-side change (a faster overlay,
//! a different charging granularity, a new container) must reproduce these
//! numbers exactly. `cargo test -q` then catches a perturbed simulation in
//! well under a second, where otherwise only the full benchmark's
//! `sim_fingerprint` would. A change that *means* to move simulated time
//! regenerates the constants: run with `--nocapture` and paste the printed
//! `Golden` / `StackGolden` values.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinca_repro::blockdev::{BlockDevice, DiskKind, DiskStats, SimDisk, BLOCK_SIZE};
use tinca_repro::fssim::stack::{build, remount, Stack, StackConfig, System};
use tinca_repro::nvmsim::{
    shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmStats, NvmTech, SimClock,
};
use tinca_repro::tinca::{PoolConfig, TincaPool};
use tinca_repro::workloads::openloop::{ArrivalStream, OpKind, OpenLoopSpec};

const SEED: u64 = 0x51D0_601D;
const SHARDS: usize = 2;
/// 2 × 512 KB of NVM against a 512-block (2 MB) working set, so the script
/// evicts, writes back and destages as well as commits.
const NVM_BYTES: usize = 1 << 20;
const WORKING_SET: u64 = 512;
const OPS: usize = 400;
/// Persistence events into the torn commit at which the power is cut: past
/// the first block's 64 payload flushes, inside the second's.
const TRIP_AFTER_EVENTS: u64 = 100;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Each shard device's simulated clock, ns.
    nvm_clock_ns: [u64; SHARDS],
    disk_clock_ns: u64,
    nvm: [NvmStats; SHARDS],
    disk: DiskStats,
    /// FNV-1a over each device's whole persistent image.
    image_fnv: [u64; SHARDS],
}

/// After the scripted commits and reads, cache still dirty.
const BEFORE_CRASH: Golden = Golden {
    nvm_clock_ns: [6_668_518, 6_605_452],
    disk_clock_ns: 4_900_000,
    nvm: [
        NvmStats {
            clflush: 22663,
            sfence: 1662,
            atomic_stores: 2234,
            lines_written: 22659,
            lines_read: 1961,
            bytes_stored: 1349144,
            bytes_read: 93216,
        },
        NvmStats {
            clflush: 22244,
            sfence: 1222,
            atomic_stores: 1680,
            lines_written: 22242,
            lines_read: 2605,
            bytes_stored: 1344704,
            bytes_read: 134272,
        },
    ],
    disk: DiskStats {
        reads: 67,
        writes: 198,
        busy_ns: 19_860_000,
        read_errors: 0,
        write_errors: 0,
    },
    image_fnv: [11_344_939_833_351_961_973, 11_824_472_889_225_559_253],
};

/// After the torn commit, `crash(Random(SEED + shard))`, `recover` and the
/// read-back.
const AFTER_RECOVERY: Golden = Golden {
    nvm_clock_ns: [10_684_752, 10_383_719],
    disk_clock_ns: 25_600_000,
    nvm: [
        NvmStats {
            clflush: 34740,
            sfence: 2241,
            atomic_stores: 2634,
            lines_written: 34736,
            lines_read: 7358,
            bytes_stored: 2105096,
            bytes_read: 411464,
        },
        NvmStats {
            clflush: 33069,
            sfence: 1715,
            atomic_stores: 2009,
            lines_written: 33067,
            lines_read: 9073,
            bytes_stored: 2021704,
            bytes_read: 521888,
        },
    ],
    disk: DiskStats {
        reads: 412,
        writes: 234,
        busy_ns: 43_440_000,
        read_errors: 0,
        write_errors: 0,
    },
    image_fnv: [7_653_955_317_464_593_139, 4_048_625_921_505_491_844],
};

fn fnv(bytes: impl IntoIterator<Item = u8>, h: u64) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

fn image_fnv(dev: &Nvm) -> u64 {
    let mut image = vec![0u8; dev.capacity()];
    dev.read_persistent(0, &mut image);
    fnv(image, FNV_BASIS)
}

fn snapshot(devices: &[Nvm], disk: &SimDisk, disk_clock: &SimClock) -> Golden {
    Golden {
        nvm_clock_ns: std::array::from_fn(|s| devices[s].clock().now_ns()),
        disk_clock_ns: disk_clock.now_ns(),
        nvm: std::array::from_fn(|s| devices[s].stats()),
        disk: disk.stats(),
        image_fnv: std::array::from_fn(|s| image_fnv(&devices[s])),
    }
}

fn pool_config() -> PoolConfig {
    let mut cfg = PoolConfig::with_shards(SHARDS);
    cfg.cache.ring_bytes = 4096;
    cfg.cache.destage = true;
    cfg.cache.coalesce_flushes = true;
    cfg
}

fn payload(blk: u64, version: u32) -> [u8; BLOCK_SIZE] {
    let mut buf = [0u8; BLOCK_SIZE];
    for (i, chunk) in buf.chunks_exact_mut(16).enumerate() {
        chunk[..8].copy_from_slice(&blk.to_le_bytes());
        chunk[8..12].copy_from_slice(&version.to_le_bytes());
        chunk[12..].copy_from_slice(&(i as u32).to_le_bytes());
    }
    buf
}

/// What an acknowledged block reads back as: version 0 = never written.
fn expected(blk: u64, version: u32) -> [u8; BLOCK_SIZE] {
    if version == 0 {
        [0u8; BLOCK_SIZE]
    } else {
        payload(blk, version)
    }
}

#[test]
fn fixed_seed_pool_script_reproduces_the_golden_simulation() {
    let devices = shard_devices(&NvmConfig::new(NVM_BYTES, NvmTech::Pcm), SHARDS);
    let disk_clock = SimClock::new();
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_config());

    // Model of acknowledged content: block → version of the last commit.
    let mut acked = vec![0u32; WORKING_SET as usize];
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut buf = [0u8; BLOCK_SIZE];
    for op in 0..OPS {
        if rng.gen_range(0..4u32) == 0 {
            let blk = rng.gen_range(0..WORKING_SET);
            pool.read(blk, &mut buf).unwrap();
            assert_eq!(
                buf,
                expected(blk, acked[blk as usize]),
                "block {blk} at op {op}"
            );
            continue;
        }
        // 1–3 blocks per transaction: single-shard and spanning commits.
        let mut txn = pool.init_txn();
        let version = op as u32 + 1;
        let mut blocks = Vec::new();
        for _ in 0..rng.gen_range(1..=3u32) {
            let blk = rng.gen_range(0..WORKING_SET);
            txn.write(blk, &payload(blk, version));
            blocks.push(blk);
        }
        pool.commit(txn).unwrap();
        for blk in blocks {
            acked[blk as usize] = version;
        }
    }
    pool.check_consistency().unwrap();
    let before = snapshot(&devices, &disk, &disk_clock);
    let before_events = devices[0].events();
    println!("const BEFORE_CRASH: Golden = {before:#?};");

    // Cut the power inside a commit, so the crash resolves an open fence
    // epoch and dirty unflushed lines: `Random` draws its coins over the
    // staged records in staging order, then the dirty lines in ascending
    // line order, and the surviving image below pins that order.
    // The torn transaction is never acknowledged, so the read-back below
    // also checks that recovery rolled it back.
    let mut txn = pool.init_txn();
    for blk in [2, 4, 6] {
        txn.write(blk, &payload(blk, u32::MAX));
    }
    devices[0].set_trip(Some(TRIP_AFTER_EVENTS));
    let tripped = catch_unwind(AssertUnwindSafe(|| pool.commit(txn)))
        .expect_err("the armed trip fires inside the commit");
    assert!(tripped.is::<CrashTripped>());
    assert_eq!(devices[0].events() - before_events, TRIP_AFTER_EVENTS);

    drop(pool);
    for (s, dev) in devices.iter().enumerate() {
        dev.crash(CrashPolicy::Random(SEED + s as u64));
    }
    let pool = TincaPool::recover(devices.clone(), disk.clone(), pool_config()).unwrap();
    pool.check_consistency().unwrap();
    for (blk, &v) in acked.iter().enumerate() {
        let blk = blk as u64;
        pool.read(blk, &mut buf).unwrap();
        assert_eq!(buf, expected(blk, v), "block {blk} lost its last commit");
    }
    let after = snapshot(&devices, &disk, &disk_clock);
    println!("const AFTER_RECOVERY: Golden = {after:#?};");

    assert_eq!(before, BEFORE_CRASH);
    assert_eq!(after, AFTER_RECOVERY);
}

/// The file-system script's pinned state. The stack's NVM device and disk
/// share one simulated clock.
#[derive(Debug, PartialEq, Eq)]
struct StackGolden {
    clock_ns: u64,
    nvm: NvmStats,
    disk: DiskStats,
    /// FNV-1a over the NVM device's whole persistent image.
    image_fnv: u64,
}

/// After mkfs, the scripted writes and the closing fsync.
const STACK_BEFORE_CUT: StackGolden = StackGolden {
    clock_ns: 1_612_445,
    nvm: NvmStats {
        clflush: 5017,
        sfence: 292,
        atomic_stores: 285,
        lines_written: 5017,
        lines_read: 73,
        bytes_stored: 306336,
        bytes_read: 1744,
    },
    disk: DiskStats {
        reads: 3,
        writes: 0,
        busy_ns: 180_000,
        read_errors: 0,
        write_errors: 0,
    },
    image_fnv: 6_137_274_963_051_873_614,
};

/// After the torn fsync, `crash(Random(STACK_SEED))`, `remount` and the
/// read-back.
const STACK_AFTER_REMOUNT: StackGolden = StackGolden {
    clock_ns: 4_883_630,
    nvm: NvmStats {
        clflush: 7594,
        sfence: 372,
        atomic_stores: 326,
        lines_written: 7594,
        lines_read: 1912,
        bytes_stored: 470816,
        bytes_read: 117968,
    },
    disk: DiskStats {
        reads: 42,
        writes: 0,
        busy_ns: 2_520_000,
        read_errors: 0,
        write_errors: 0,
    },
    image_fnv: 2_667_461_220_846_349_803,
};

const STACK_SEED: u64 = 0xF5_601D;
const FILES: usize = 4;
const FILE_SPAN: usize = 24 << 10;
const STACK_OPS: usize = 48;
/// Persistence events into the torn fsync at which the power is cut:
/// inside the first block's payload flushes.
const STACK_TRIP_AFTER_EVENTS: u64 = 40;

fn stack_snapshot(stack: &Stack) -> StackGolden {
    StackGolden {
        clock_ns: stack.clock.now_ns(),
        nvm: stack.nvm.stats(),
        disk: stack.disk.stats(),
        image_fnv: image_fnv(&stack.nvm),
    }
}

/// Reads every scripted file back whole.
fn read_files(stack: &mut Stack) -> Vec<Vec<u8>> {
    (0..FILES)
        .map(|f| {
            let ino = stack.fs.open(&format!("f{f}")).unwrap();
            let mut buf = vec![0u8; stack.fs.file_size(ino).unwrap() as usize];
            let n = stack.fs.read(ino, 0, &mut buf).unwrap();
            buf.truncate(n);
            buf
        })
        .collect()
}

/// Writes `data` at `offset` of file `f`, on the stack and in the model.
fn write_file(stack: &mut Stack, model: &mut [Vec<u8>], f: usize, offset: usize, data: &[u8]) {
    let ino = stack.fs.open(&format!("f{f}")).unwrap();
    stack.fs.write(ino, offset as u64, data).unwrap();
    let file = &mut model[f];
    if file.len() < offset + data.len() {
        file.resize(offset + data.len(), 0);
    }
    file[offset..offset + data.len()].copy_from_slice(data);
}

#[test]
fn fixed_seed_fs_stack_script_reproduces_the_golden_simulation() {
    let cfg = StackConfig::tiny(System::Tinca);
    let mut stack = build(&cfg).unwrap();
    let mut model = vec![Vec::new(); FILES];
    for f in 0..FILES {
        stack.fs.create(&format!("f{f}")).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(STACK_SEED);
    for op in 0..STACK_OPS {
        let f = rng.gen_range(0..FILES);
        let len = rng.gen_range(1..=6000usize);
        let offset = rng.gen_range(0..FILE_SPAN - len);
        let data: Vec<u8> = (0..len).map(|i| (op * 7 + i) as u8).collect();
        write_file(&mut stack, &mut model, f, offset, &data);
        if op % 8 == 7 {
            stack.fs.fsync().unwrap();
        }
    }
    stack.fs.fsync().unwrap();
    assert_eq!(read_files(&mut stack), model);
    stack.fs.check_consistency().unwrap();
    let before = stack_snapshot(&stack);
    println!("const STACK_BEFORE_CUT: StackGolden = {before:#?};");

    // Cut the power inside an fsync: the torn transaction rewrites two
    // blocks of `f0` and is never acknowledged.
    let mut torn = model.clone();
    write_file(&mut stack, &mut torn, 0, 0, &[0xEE; 2 * BLOCK_SIZE]);
    let before_events = stack.nvm.events();
    stack.nvm.set_trip(Some(STACK_TRIP_AFTER_EVENTS));
    let tripped = catch_unwind(AssertUnwindSafe(|| stack.fs.fsync()))
        .expect_err("the armed trip fires inside the fsync");
    assert!(tripped.is::<CrashTripped>());
    assert_eq!(stack.nvm.events() - before_events, STACK_TRIP_AFTER_EVENTS);

    let Stack {
        fs,
        nvm,
        disk,
        clock,
        ..
    } = stack;
    drop(fs);
    nvm.crash(CrashPolicy::Random(STACK_SEED));
    let mut stack = remount(&cfg, nvm, disk, clock).unwrap();
    stack.fs.check_consistency().unwrap();
    let files = read_files(&mut stack);
    assert!(files[0] == model[0] || files[0] == torn[0], "f0 torn");
    assert_eq!(files[1..], model[1..]);
    let after = stack_snapshot(&stack);
    println!("const STACK_AFTER_REMOUNT: StackGolden = {after:#?};");

    assert_eq!(before, STACK_BEFORE_CUT);
    assert_eq!(after, STACK_AFTER_REMOUNT);
}

/// Arrivals hashed per stream.
const ARRIVALS: u64 = 2_000;
/// Shards the stream's writes are aligned to, as in the benchmark's pool.
const ARRIVAL_SHARDS: usize = 4;
/// FNV-1a over `(at_ns, user, op)` of the first [`ARRIVALS`] arrivals of
/// `OpenLoopSpec::smoke` at each rate.
const ARRIVAL_GOLDEN: [(f64, u64); 2] = [
    (20_000.0, 5_610_938_821_592_855_996),
    (250_000.0, 7_946_583_328_307_935_702),
];

fn arrival_fnv(rate: f64) -> u64 {
    let mut spec = OpenLoopSpec::smoke(rate);
    spec.ops = ARRIVALS;
    let mut h = FNV_BASIS;
    let mut n = 0;
    for a in ArrivalStream::new(&spec, ARRIVAL_SHARDS) {
        h = fnv(a.at_ns.to_le_bytes(), h);
        h = fnv(a.user.to_le_bytes(), h);
        h = match a.kind {
            OpKind::Read { blk } => fnv(blk.to_le_bytes(), fnv([0], h)),
            OpKind::Write { blks, seq } => {
                let h = fnv(seq.to_le_bytes(), fnv([1], h));
                fnv(blks.iter().flat_map(|b| b.to_le_bytes()), h)
            }
        };
        n += 1;
    }
    assert_eq!(n, ARRIVALS);
    h
}

#[test]
fn fixed_seed_arrival_stream_reproduces_the_golden_sequence() {
    let now: Vec<(f64, u64)> = ARRIVAL_GOLDEN
        .iter()
        .map(|&(rate, _)| (rate, arrival_fnv(rate)))
        .collect();
    println!("const ARRIVAL_GOLDEN: [(f64, u64); 2] = {now:?};");
    assert_eq!(now, ARRIVAL_GOLDEN);
}
