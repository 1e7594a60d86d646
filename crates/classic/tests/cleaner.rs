//! Tests for Classic's write-back cleaning machinery: the flush-barrier
//! drain, fallow (age-based) cleaning, and the dirty-threshold pool.

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use classic::{ClassicCache, ClassicConfig};
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

fn setup(cfg: ClassicConfig) -> (ClassicCache, blockdev::Disk) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(4 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cache = ClassicCache::format(nvm, disk.clone(), cfg);
    (cache, disk)
}

fn blk(b: u8) -> [u8; BLOCK_SIZE] {
    [b; BLOCK_SIZE]
}

#[test]
fn fallow_blocks_reach_disk_on_barrier() {
    let cfg = ClassicConfig {
        assoc: 64,
        fallow_age_writes: 16,
        ..ClassicConfig::default()
    };
    let (mut c, disk) = setup(cfg);
    // Block 1 goes dirty, then 20 other writes age it past the fallow window.
    c.write(1, &blk(0xAA)).unwrap();
    for i in 100..120u64 {
        c.write(i, &blk(1)).unwrap();
    }
    assert_eq!(disk.stats().writes, 0, "nothing cleaned before a barrier");
    c.flush_barrier().unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(1, &mut buf).unwrap();
    assert_eq!(
        buf,
        blk(0xAA),
        "fallow block must be on disk after the barrier"
    );
    c.check_consistency().unwrap();
}

#[test]
fn hot_blocks_absorb_across_barriers() {
    let cfg = ClassicConfig {
        assoc: 64,
        fallow_age_writes: 64,
        ..ClassicConfig::default()
    };
    let (mut c, disk) = setup(cfg);
    // Rewrite the same block between barriers: it never goes fallow.
    for round in 0..20 {
        c.write(7, &blk(round)).unwrap();
        c.flush_barrier().unwrap();
    }
    let writes = disk.stats().writes;
    assert!(
        writes <= 1,
        "a constantly re-written block must be absorbed, got {writes} disk writes"
    );
}

#[test]
fn cold_versions_hit_disk_once_each() {
    // Journal-like pattern: a small region rewritten cyclically with long
    // gaps — every version must reach the disk (no absorption).
    let cfg = ClassicConfig {
        assoc: 64,
        fallow_age_writes: 2,
        ..ClassicConfig::default()
    };
    let (mut c, disk) = setup(cfg);
    let region: Vec<u64> = (200..264).collect(); // 64-block "journal"
    for wrap in 0..4u8 {
        for &b in &region {
            c.write(b, &blk(wrap)).unwrap();
        }
        c.flush_barrier().unwrap();
    }
    let writes = disk.stats().writes;
    // 4 wraps × 64 blocks: nearly every version cleaned (only the last
    // couple of writes per wrap are still within the fallow window).
    assert!(
        writes >= 3 * 62,
        "cyclic cold writes should reach disk every wrap: {writes}"
    );
}

#[test]
fn barrier_cleaning_is_elevator_ordered() {
    let cfg = ClassicConfig {
        assoc: 256,
        fallow_age_writes: 4,
        ..ClassicConfig::default()
    };
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(4 << 20, NvmTech::Pcm), clock.clone());
    // HDD makes ordering observable through cost: sorted cleaning of a
    // contiguous range must be far cheaper than the same writes issued
    // randomly.
    let disk = SimDisk::new(DiskKind::Hdd, 1 << 16, clock.clone());
    let mut c = ClassicCache::format(nvm, disk.clone(), cfg);
    // Dirty a contiguous range in shuffled order.
    let mut order: Vec<u64> = (1000..1100).collect();
    order.reverse();
    for &b in &order {
        c.write(b, &blk(2)).unwrap();
    }
    for i in 0..8u64 {
        c.write(i, &blk(3)).unwrap(); // age the range
    }
    let t0 = clock.now_ns();
    c.flush_barrier().unwrap();
    let barrier_ns = clock.now_ns() - t0;
    // 100 sorted sequential-ish writes: mostly transfer + one seek, far
    // below 100 independent random writes (~100 × 5ms).
    assert!(
        barrier_ns < 200_000_000,
        "elevator-sorted drain too expensive: {barrier_ns} ns"
    );
    let mut buf = [0u8; BLOCK_SIZE];
    disk.read_block(1050, &mut buf).unwrap();
    assert_eq!(buf, blk(2));
}

#[test]
fn cleaned_blocks_stay_cached_and_clean() {
    let cfg = ClassicConfig {
        assoc: 64,
        fallow_age_writes: 4,
        ..ClassicConfig::default()
    };
    let (mut c, disk) = setup(cfg);
    c.write(5, &blk(9)).unwrap();
    for i in 100..110u64 {
        c.write(i, &blk(1)).unwrap();
    }
    c.flush_barrier().unwrap();
    assert!(c.contains(5), "cleaning must not evict");
    // A read still hits the cache, not the disk.
    let reads_before = disk.stats().reads;
    let mut buf = [0u8; BLOCK_SIZE];
    c.read(5, &mut buf).unwrap();
    assert_eq!(buf, blk(9));
    assert_eq!(disk.stats().reads, reads_before);
    // Flushing again writes nothing (already clean).
    let w = disk.stats().writes;
    c.flush_barrier().unwrap();
    assert_eq!(disk.stats().writes, w);
    c.check_consistency().unwrap();
}
