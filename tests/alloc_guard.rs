//! Heap allocations per op on the open-loop write path.
//!
//! A counting global allocator wraps the system one, and an
//! `ol_write_hot`-shaped driver (a four-shard pool of 4 MB PCM shards,
//! 16 KB rings, destage and flush coalescing on, 2-block write
//! transactions, 10 % reads over a working set that fits the cache) runs
//! past its warm-up; the steady-state ops must stay within the budget
//! below. Each op's payloads are two 4 KB allocations of their own (the
//! transaction owns them); everything else on the path reuses what the
//! previous op left.
//!
//! The counter is process-wide, so this binary holds this one test.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tinca_repro::blockdev::{DiskKind, SimDisk};
use tinca_repro::nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
use tinca_repro::tinca::{PoolConfig, TincaPool};
use tinca_repro::workloads::openloop::{OpenLoopDriver, OpenLoopSpec, TincaServer};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SHARDS: usize = 4;
const WARM_UP: u64 = 5_000;
const MEASURED: u64 = 20_000;
/// Allocations per steady-state op: the two 4 KB payloads a write
/// transaction owns (90 % of ops write), its block list and the arrival's
/// block-number list.
const MAX_ALLOCS_PER_OP: f64 = 3.61;
/// Bytes allocated per steady-state op: the payloads dominate.
const MAX_BYTES_PER_OP: f64 = 7_450.0;

#[test]
fn steady_state_open_loop_ops_stay_within_the_allocation_budget() {
    let nvm = NvmConfig::new(SHARDS * (4 << 20), NvmTech::Pcm);
    let devices = shard_devices(&nvm, SHARDS);
    let disk_clock = SimClock::new();
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
    let mut cfg = PoolConfig::with_shards(SHARDS);
    cfg.cache.ring_bytes = 16 << 10;
    cfg.cache.destage = true;
    cfg.cache.coalesce_flushes = true;
    let pool = TincaPool::format(devices, disk, cfg);

    let mut spec = OpenLoopSpec::smoke(45_000.0);
    spec.ops = WARM_UP + MEASURED;
    spec.read_pct = 10;
    spec.blocks = 2_048;
    spec.txn_blocks = 2;
    spec.queue_cap = 0;
    spec.seed = 1;
    let mut driver = OpenLoopDriver::new(spec, TincaServer::new(&pool, disk_clock));
    for _ in 0..WARM_UP {
        driver.step().expect("warm-up op");
    }

    let (allocs0, bytes0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    for _ in 0..MEASURED {
        driver.step().expect("measured op");
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - allocs0) as f64 / MEASURED as f64;
    let bytes = (BYTES.load(Ordering::Relaxed) - bytes0) as f64 / MEASURED as f64;
    println!("{allocs:.4} allocations and {bytes:.1} bytes per op");
    assert!(
        allocs <= MAX_ALLOCS_PER_OP,
        "{allocs:.2} allocations per op, budget {MAX_ALLOCS_PER_OP}"
    );
    assert!(
        bytes <= MAX_BYTES_PER_OP,
        "{bytes:.0} bytes allocated per op, budget {MAX_BYTES_PER_OP}"
    );
}
