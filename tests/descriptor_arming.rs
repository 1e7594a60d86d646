//! The window-descriptor table's arming rule (DESIGN §8): recovery loads
//! the 32-line descriptor table only on a region a lock-free ring armed.
//! A mutex pool's recovery reads line 0, `Head`, `Tail` and the entry
//! table's slots below the entry watermark, pinned here in lines and
//! simulated time; a mutex-formatted
//! region reopened in `LockFreeRing` mode is armed by that recovery, so
//! a power cut anywhere in its first ring round still finds the
//! round's `STAGED` window and rolls it forward once `Head` passed it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tinca_repro::blockdev::{Disk, DiskKind, SimDisk, BLOCK_SIZE};
use tinca_repro::nvmsim::{
    shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmDevice, NvmTech, SimClock,
};
use tinca_repro::tinca::{CommitMode, PoolConfig, TincaConfig, TincaPool, Txn};

fn txn(blocks: &[u64], fill: u8) -> Txn {
    let mut t = Txn::new();
    for &b in blocks {
        t.write(b, &[fill; BLOCK_SIZE]);
    }
    t
}

/// The first byte of block `b` as recovery left it, checked untorn.
fn observed(pool: &TincaPool, b: u64) -> u8 {
    let mut buf = [0u8; BLOCK_SIZE];
    pool.read_nocache(b, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == buf[0]), "block {b} is torn");
    buf[0]
}

/// A 2-shard mutex pool of 4 MB shards with 16 KB rings (the open-loop
/// benchmark's shard): after a clean power cut, shard 0 loads line 0,
/// `Head`, `Tail`, the pool's intent word and the entry table below its
/// watermark, shard 1 the same without the intent word, and neither loads
/// a descriptor line. Two committed blocks per shard raised each watermark
/// one step, to 64 entries: 16 of the table's 254 lines. Each line is a
/// 110 ns PCM load, and each shard closes its ring with one 315 ns `Tail`
/// persist.
#[test]
fn mutex_pool_recovery_loads_no_descriptor_line() {
    const SHARDS: usize = 2;
    let devices = shard_devices(&NvmConfig::new(SHARDS << 22, NvmTech::Pcm), SHARDS);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, SimClock::new());
    let mut cfg = PoolConfig::with_shards(SHARDS);
    cfg.cache.ring_bytes = 16 << 10;
    let pool = TincaPool::format(devices.clone(), disk.clone(), cfg.clone());
    pool.commit(txn(&[0, 1, 2, 3], 7)).unwrap();
    let table_lines = (u64::from(pool.shard_layout(0).entry_count) * 16).div_ceil(64);
    assert_eq!(table_lines, 254);
    let watermark_lines = 64 * 16 / 64;
    drop(pool);

    let stats = |d: &Nvm| (d.stats().lines_read, d.clock().now_ns());
    let before: Vec<_> = devices
        .iter()
        .map(|d| {
            d.crash(CrashPolicy::LoseVolatile);
            stats(d)
        })
        .collect();
    let pool = TincaPool::recover(devices.clone(), disk, cfg).unwrap();
    let (lines, sim_ns): (Vec<u64>, Vec<u64>) = devices
        .iter()
        .zip(&before)
        .map(|(d, &(lines0, ns0))| {
            let (lines, ns) = stats(d);
            (lines - lines0, ns - ns0)
        })
        .unzip();
    assert_eq!(lines, [watermark_lines + 3 + 1, watermark_lines + 3]);
    assert_eq!(sim_ns, [20 * 110 + 315, 19 * 110 + 315]);
    pool.check_consistency().unwrap();
    assert!((0..4).all(|b| observed(&pool, b) == 7));
}

const BLOCKS: [u64; 3] = [3, 5, 9];

fn ring_cfg(commit_mode: CommitMode) -> PoolConfig {
    PoolConfig {
        shards: 1,
        commit_mode,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
    }
}

/// A region formatted for the mutex path, holding version 1 of
/// [`BLOCKS`], cut and reopened as a lock-free ring pool.
fn reopened_in_ring_mode() -> (Nvm, Disk, TincaPool) {
    let nvm = NvmDevice::new(NvmConfig::new(256 << 10, NvmTech::Pcm), SimClock::new());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, SimClock::new());
    let pool = TincaPool::format(vec![nvm.clone()], disk.clone(), ring_cfg(CommitMode::Mutex));
    pool.commit(txn(&BLOCKS, 1)).unwrap();
    drop(pool);
    nvm.crash(CrashPolicy::LoseVolatile);
    let cfg = ring_cfg(CommitMode::LockFreeRing);
    let pool = TincaPool::recover(vec![nvm.clone()], disk.clone(), cfg).unwrap();
    (nvm, disk, pool)
}

/// Cut at every persistence event of the reopened pool's first ring
/// commit: each cut recovers consistent and all-or-nothing, a cut after
/// the round's `Head` store resumes the `STAGED` window (version 2 reads
/// back), and a second recovery changes nothing.
#[test]
fn mutex_region_reopened_as_a_ring_recovers_every_cut_of_its_first_round() {
    tinca_repro::crashsim::quiet_crash_panics();
    let (nvm, _disk, pool) = reopened_in_ring_mode();
    let start = nvm.events();
    pool.commit(txn(&BLOCKS, 2)).unwrap();
    let round = nvm.events() - start;
    assert!(round > 10, "a ring round is {round} events");

    let mut resumed_cuts = 0;
    for at in 1..=round {
        let (nvm, disk, pool) = reopened_in_ring_mode();
        nvm.set_trip(Some(at));
        let cut = catch_unwind(AssertUnwindSafe(|| pool.commit(txn(&BLOCKS, 2))));
        nvm.set_trip(None);
        match cut {
            Err(p) => assert!(p.is::<CrashTripped>(), "cut {at}: not a power cut"),
            Ok(r) => panic!("cut {at} of {round} did not fire: {r:?}"),
        }
        drop(pool);
        nvm.crash(CrashPolicy::LoseVolatile);
        let cfg = ring_cfg(CommitMode::LockFreeRing);
        let pool = TincaPool::recover(vec![nvm.clone()], disk.clone(), cfg.clone()).unwrap();
        pool.check_consistency()
            .unwrap_or_else(|e| panic!("cut {at}: {e}"));
        let versions: Vec<u8> = BLOCKS.iter().map(|&b| observed(&pool, b)).collect();
        let resumed = pool.stats().mw_windows_resumed;
        let want = if resumed > 0 { 2 } else { versions[0] };
        assert!(
            versions.iter().all(|&v| v == want) && (want == 1 || want == 2),
            "cut {at}: versions {versions:?}, {resumed} windows resumed"
        );
        resumed_cuts += usize::from(resumed > 0);

        drop(pool);
        nvm.crash(CrashPolicy::LoseVolatile);
        let again = TincaPool::recover(vec![nvm.clone()], disk, cfg).unwrap();
        let stats = again.stats();
        assert_eq!(
            (stats.mw_windows_resumed, stats.mw_windows_rolled_back),
            (0, 0),
            "cut {at}: a second recovery judged a window again"
        );
        let again: Vec<u8> = BLOCKS.iter().map(|&b| observed(&again, b)).collect();
        assert_eq!(again, versions, "cut {at}: a second recovery moved data");
    }
    assert!(
        resumed_cuts > 0,
        "no cut of {round} events resumed the round's STAGED window"
    );
}
