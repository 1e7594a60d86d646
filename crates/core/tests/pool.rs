// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Integration tests for `TincaPool`: shard routing, a power cut under
//! contention, and deterministic multi-threaded stress. (The one-shard
//! pool's bit-for-bit equivalence to the bare cache is a unit test in
//! `pool.rs`: the bare cache is crate-private.)

use std::sync::{Arc, Barrier};

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
use proptest::prelude::*;
use tinca::{PoolConfig, TincaConfig, TincaPool, Txn};

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

fn cache_cfg() -> TincaConfig {
    TincaConfig {
        ring_bytes: 4096,
        ..TincaConfig::default()
    }
}

fn pool(shards: usize, nvm_bytes: usize) -> TincaPool {
    let devices = shard_devices(&NvmConfig::new(nvm_bytes, NvmTech::Pcm), shards);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    TincaPool::format(
        devices,
        disk,
        PoolConfig {
            shards,
            cache: cache_cfg(),
            ..PoolConfig::default()
        },
    )
}

#[test]
fn blocks_route_to_home_shards_and_read_back() {
    let p = pool(4, 4 << 20);
    for b in 0..64u64 {
        let mut t = p.init_txn();
        t.write(b, &blk((b % 251) as u8));
        p.commit(t).unwrap();
    }
    let mut buf = [0u8; BLOCK_SIZE];
    for b in 0..64u64 {
        assert_eq!(p.shard_of(b), (b % 4) as usize);
        assert!(p.contains(b));
        p.read(b, &mut buf).unwrap();
        assert_eq!(buf, blk((b % 251) as u8));
    }
    // 64 blocks spread evenly: every shard committed 16.
    for s in 0..4 {
        assert_eq!(p.shard_stats(s).commits, 16, "shard {s}");
        assert_eq!(p.shard_stats(s).committed_blocks, 16, "shard {s}");
    }
    assert_eq!(p.stats().commits, 64);
    assert_eq!(p.cached_blocks(), 64);
    p.check_consistency().unwrap();
}

#[test]
fn spanning_txn_lands_on_every_shard() {
    let p = pool(2, 2 << 20);
    let mut t = p.init_txn();
    t.write(0, &blk(1)); // shard 0
    t.write(1, &blk(2)); // shard 1
    t.write(2, &blk(3)); // shard 0
    p.commit(t).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    for (b, v) in [(0u64, 1u8), (1, 2), (2, 3)] {
        p.read(b, &mut buf).unwrap();
        assert_eq!(buf, blk(v));
    }
    assert_eq!(p.shard_stats(0).committed_blocks, 2);
    assert_eq!(p.shard_stats(1).committed_blocks, 1);
    p.check_consistency().unwrap();
}

/// A power cut inside a mutex-mode commit must not strand the shard's
/// other committer: the cache lock is released by the unwind, the armed
/// trip keeps firing on every later persistence event, so each thread
/// either finishes its rounds or sees the power fail. Whatever was
/// acknowledged before the cut survives recovery.
#[test]
fn power_cut_under_contention_strands_no_committer_and_keeps_acked_txns() {
    use nvmsim::{CrashPolicy, CrashTripped};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    const ROUNDS: u64 = 24;
    let fresh_block = |thread: u64, round: u64| 1000 * thread + round;

    // Every commit below has the same shape (one fresh block, no eviction),
    // hence the same number of persistence events, but for the first one,
    // which also raises the entry watermark (the 2 × ROUNDS commits stay
    // under one step of it). Arming the trip a few events into commit
    // number ROUNDS + 1 therefore cuts the power mid-run, inside a payload
    // flush (ring closed), whichever thread happens to run that commit.
    let probe = pool(1, 1 << 20);
    let events = || probe.shard_nvm(0).events();
    let mut per_commit = Vec::new();
    for round in 0..3 {
        let before = events();
        let mut t = probe.init_txn();
        t.write(fresh_block(0, round), &blk(1));
        probe.commit(t).unwrap();
        per_commit.push(events() - before);
    }
    assert_eq!(per_commit[1], per_commit[2], "commits must be same-shaped");
    let raise = per_commit[0] - per_commit[1];
    assert_eq!(raise, 3, "a raise is a store, a flush and a fence");

    let devices = shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), 1);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let cfg = PoolConfig {
        shards: 1,
        cache: cache_cfg(),
        ..PoolConfig::default()
    };
    let p = Arc::new(TincaPool::format(
        devices.clone(),
        disk.clone(),
        cfg.clone(),
    ));
    devices[0].set_trip(Some(raise + ROUNDS * per_commit[1] + 3));

    let start = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..2u64)
        .map(|thread| {
            let (p, start, tx) = (Arc::clone(&p), Arc::clone(&start), tx.clone());
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                let mut power_failed = false;
                start.wait();
                for round in 0..ROUNDS {
                    let (b, byte) = (fresh_block(thread, round), (round + 1) as u8);
                    let mut t = Txn::new();
                    t.write(b, &blk(byte));
                    match catch_unwind(AssertUnwindSafe(|| p.commit(t))) {
                        Ok(res) => {
                            res.unwrap();
                            acked.push((b, byte));
                        }
                        Err(cut) if cut.is::<CrashTripped>() => {
                            power_failed = true;
                            break;
                        }
                        Err(bug) => resume_unwind(bug),
                    }
                }
                tx.send((acked, power_failed)).unwrap();
            })
        })
        .collect();
    let reports: Vec<(Vec<(u64, u8)>, bool)> = (0..2)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("a committer is stranded behind the power cut")
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert!(
        reports.iter().any(|(_, power_failed)| *power_failed),
        "the trip was armed inside the run"
    );
    let acked: Vec<(u64, u8)> = reports.into_iter().flat_map(|(a, _)| a).collect();
    assert_eq!(acked.len() as u64, ROUNDS, "the cut hit commit ROUNDS + 1");

    drop(p);
    devices[0].crash(CrashPolicy::Random(16));
    let p = TincaPool::recover(devices, disk, cfg).unwrap();
    p.check_consistency().unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    for (b, byte) in acked {
        p.read(b, &mut buf).unwrap();
        assert_eq!(buf, blk(byte), "acknowledged block {b} lost");
    }
}

/// Deterministic multi-thread stress: 8 threads over 4 shards in barrier-
/// synchronised rounds. Every thread owns a disjoint block set (all blocks
/// of a thread share one home shard), so expected final contents are exact
/// regardless of interleaving.
#[test]
fn multithreaded_stress_rounds_preserve_consistency() {
    const THREADS: usize = 8;
    const ROUNDS: u64 = 12;
    const BLOCKS_PER_THREAD: u64 = 4;

    let p = Arc::new(pool(4, 8 << 20));
    let barrier = Arc::new(Barrier::new(THREADS));

    // Thread t owns blocks {t, t+8, t+16, t+24}: all ≡ t (mod 8), hence all
    // on shard t % 4 — two threads share each shard, forcing contention
    // on its cache lock without cross-thread data races.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let p = Arc::clone(&p);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut buf = [0u8; BLOCK_SIZE];
                for round in 0..ROUNDS {
                    barrier.wait();
                    let mut txn = p.init_txn();
                    for k in 0..BLOCKS_PER_THREAD {
                        let b = t as u64 + 8 * k;
                        txn.write(b, &blk((round + 1) as u8));
                    }
                    p.commit(txn).unwrap();
                    // Read-your-writes immediately after commit.
                    for k in 0..BLOCKS_PER_THREAD {
                        let b = t as u64 + 8 * k;
                        p.read(b, &mut buf).unwrap();
                        assert_eq!(
                            buf,
                            blk((round + 1) as u8),
                            "thread {t} round {round} block {b}"
                        );
                    }
                }
            });
        }
    });

    // Global post-conditions: final contents, per-shard consistency, and
    // exact commit accounting.
    let mut buf = [0u8; BLOCK_SIZE];
    for t in 0..THREADS as u64 {
        for k in 0..BLOCKS_PER_THREAD {
            let b = t + 8 * k;
            p.read(b, &mut buf).unwrap();
            assert_eq!(buf, blk(ROUNDS as u8), "block {b} must hold final round");
        }
    }
    p.check_consistency().unwrap();
    let s = p.stats();
    // Every user transaction is exactly one ring commit: the mutex path
    // never merges transactions.
    assert_eq!(s.commits, THREADS as u64 * ROUNDS);
    assert_eq!((s.group_commits, s.batched_txns), (0, 0));
    assert_eq!(
        s.committed_blocks,
        THREADS as u64 * ROUNDS * BLOCKS_PER_THREAD
    );
    assert_eq!(s.failed_commits, 0);
}

/// Spanning commits keep exact accounting: one `spanning_commits` per
/// transaction (counted on the intent-host shard), one
/// `spanning_fragments` per participant shard, and every fragment's
/// blocks land on — and only on — their home shard.
#[test]
fn spanning_commit_accounting_is_exact() {
    let p = pool(4, 4 << 20);
    // 6 transactions, each spanning all 4 shards (blocks b, b+1, b+2, b+3).
    for round in 0..6u64 {
        let mut t = p.init_txn();
        for s in 0..4u64 {
            t.write(4 * round + s, &blk((round + 1) as u8));
        }
        p.commit(t).unwrap();
    }
    let s = p.stats();
    assert_eq!(s.spanning_commits, 6, "one per spanning transaction");
    assert_eq!(s.spanning_fragments, 24, "one per participant shard");
    assert_eq!(s.spanning_aborts, 0);
    assert_eq!(s.commits, 24, "each fragment is one ring commit");
    assert_eq!(s.committed_blocks, 24);
    assert_eq!(s.failed_commits, 0);
    // The intent host carries the per-txn counters; fragments spread out.
    assert_eq!(p.shard_stats(0).spanning_commits, 6);
    for sh in 0..4 {
        assert_eq!(p.shard_stats(sh).spanning_fragments, 6, "shard {sh}");
    }
    let mut buf = [0u8; BLOCK_SIZE];
    for round in 0..6u64 {
        for s in 0..4u64 {
            p.read(4 * round + s, &mut buf).unwrap();
            assert_eq!(buf, blk((round + 1) as u8));
        }
    }
    p.check_consistency().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing property: after committing an arbitrary mix of
    /// single-shard and spanning transactions, every block is cached on
    /// exactly `shard_of(blk)` — the split never strands a fragment on a
    /// foreign shard — and every block reads back its last value. Each
    /// block is cached on its home shard and the pool caches no more
    /// blocks than were written, so no copy sits on a foreign shard.
    #[test]
    fn split_fragments_land_on_their_home_shard(
        specs in proptest::collection::vec(
            proptest::collection::vec((0..96u64, 1..=255u8), 1..6),
            1..12,
        ),
        shards in 2..=4usize,
    ) {
        let p = pool(shards, shards * (1 << 20));
        let mut expect = std::collections::HashMap::new();
        for spec in &specs {
            let mut t = p.init_txn();
            for &(b, v) in spec {
                t.write(b, &blk(v)); // duplicate blocks coalesce, last wins
                expect.insert(b, v);
            }
            p.commit(t).unwrap();
        }
        let mut buf = [0u8; BLOCK_SIZE];
        for (&b, &v) in &expect {
            let home = p.shard_of(b);
            prop_assert_eq!(home, (b % shards as u64) as usize);
            prop_assert!(p.contains(b), "block {} not cached on its home shard {}", b, home);
            p.read(b, &mut buf).unwrap();
            prop_assert_eq!(buf, blk(v), "block {} read back wrong", b);
        }
        prop_assert_eq!(p.cached_blocks(), expect.len());
        p.check_consistency().unwrap();
    }
}

#[test]
fn pool_recovers_all_shards_after_clean_shutdown() {
    let devices = shard_devices(&NvmConfig::new(4 << 20, NvmTech::Pcm), 4);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let cfg = PoolConfig {
        shards: 4,
        cache: cache_cfg(),
        ..PoolConfig::default()
    };
    let p = TincaPool::format(devices.clone(), disk.clone(), cfg.clone());
    for b in 0..32u64 {
        let mut t = p.init_txn();
        t.write(b, &blk((b + 1) as u8));
        p.commit(t).unwrap();
    }
    drop(p);
    // Power-cycle every shard: only persisted state survives.
    for d in &devices {
        d.crash(nvmsim::CrashPolicy::LoseVolatile);
    }
    let p = TincaPool::recover(devices, disk, cfg).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    for b in 0..32u64 {
        p.read(b, &mut buf).unwrap();
        assert_eq!(buf, blk((b + 1) as u8), "block {b} lost across remount");
    }
    p.check_consistency().unwrap();
    assert_eq!(p.stats().recoveries, 4, "each shard runs its own recovery");
}

/// One shard's disk turns permanently bad: its writebacks quarantine and
/// the pool reports `Degraded`, while every other shard flushes clean and
/// all shards — including the bad one — keep committing (write-back holds
/// the data in NVM). After a reboot, recovery must not need the disk and
/// every durable block must still read back.
#[test]
fn one_bad_shard_degrades_pool_but_commits_continue() {
    use blockdev::{FaultPlan, FaultyDisk};
    use nvmsim::CrashPolicy;
    use tinca::Health;

    let shards = 4usize;
    let devices = shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), shards);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    // Pool routing sends disk block `b` to shard `b % shards`: a bad-modulo
    // fault plan with residue 2 kills exactly shard 2's backing store.
    let faulty = FaultyDisk::new(disk, FaultPlan::quiet(11).with_bad_modulo(shards as u64, 2));
    let mk_cfg = || PoolConfig {
        shards,
        cache: cache_cfg(),
        ..PoolConfig::default()
    };
    let pool = TincaPool::format(devices.clone(), faulty.clone(), mk_cfg());

    // Sixteen spanning transactions, each touching every shard.
    for first in (0..64u64).step_by(4) {
        let mut t = pool.init_txn();
        for b in first..first + 4 {
            t.write(b, &blk(b as u8 + 1));
        }
        pool.commit(t).unwrap();
    }
    assert_eq!(pool.health(), Health::Healthy);

    // Orderly flush: shard 2's writebacks fail permanently and quarantine;
    // the other shards flush clean.
    assert!(
        pool.flush_all().is_err(),
        "flush over a bad shard must surface the error"
    );
    let q = pool.shard_quarantined(2);
    assert!(q > 0, "shard 2 must quarantine its dirty blocks");
    assert!(pool.shard_stats(2).permanent_io_errors > 0);
    for s in [0usize, 1, 3] {
        assert_eq!(pool.shard_quarantined(s), 0);
        assert_eq!(pool.shard_stats(s).permanent_io_errors, 0);
    }
    match pool.health() {
        Health::Degraded { quarantined } => assert_eq!(quarantined, q),
        h => panic!("expected Degraded, got {h:?}"),
    }

    // The pool keeps serving: commits on every shard still succeed.
    for b in 0..8u64 {
        let mut t = pool.init_txn();
        t.write(b, &blk(0xA0 + b as u8));
        pool.commit(t).unwrap();
    }
    let expect = |b: u64| {
        if b < 8 {
            0xA0 + b as u8
        } else {
            b as u8 + 1
        }
    };
    let mut buf = [0u8; BLOCK_SIZE];
    for b in 0..64u64 {
        pool.read_nocache(b, &mut buf).unwrap();
        assert_eq!(buf[0], expect(b), "block {b} before reboot");
    }

    // Reboot with the disk still bad: recovery reads NVM only, internal
    // invariants hold, and every durable block reads back — shard 2's from
    // its pinned-dirty NVM copies.
    drop(pool);
    for d in &devices {
        d.crash(CrashPolicy::LoseVolatile);
    }
    let pool = TincaPool::recover(devices, faulty, mk_cfg()).unwrap();
    pool.check_consistency().unwrap();
    for b in 0..64u64 {
        pool.read_nocache(b, &mut buf).unwrap();
        assert_eq!(buf[0], expect(b), "block {b} after recovery");
    }
}
