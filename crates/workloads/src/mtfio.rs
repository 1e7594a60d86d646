//! Multi-writer Fio-like driver over a sharded [`TincaPool`].
//!
//! The paper drives its prototype with multi-threaded Fio (Table 2). This
//! driver runs `threads` writers against one pool, stepped by a [`Sched`]:
//! writer `w` issues 4 KB reads and multi-block transactions from its own
//! RNG stream over its own block lane on shard `w % shards`, so
//! admissions never conflict. On a `LockFreeRing` pool several writers
//! hold windows on one shard at once; on the mutex path a write commits
//! whole in one step. Scripted rounds price the two paths on identical
//! work (`mw_scaling`); seeded interleavings stand in for threads
//! (`scaling`, `persistrace`). Every run is deterministic.
//!
//! ## Time model
//!
//! Each shard owns an independent [`nvmsim::SimClock`]: shards model
//! disjoint NVM sub-regions that serve flushes concurrently. `wall_ns` is
//! the **maximum** per-shard clock advance (perfect shard parallelism),
//! `busy_ns` the **sum** (device-busy time). `wall = max` assumes zero
//! queue wait on the shard mutexes, optimistic when `threads > shards`, so
//! the report also carries `contended_wall_ns`, a list-scheduling
//! (Graham) bound with `p = min(threads, shards)` service contexts:
//! `min(busy, busy / p + wall)`. It degrades to `busy_ns` for one writer
//! and to `wall_ns` when the writers keep every shard busy.
//!
//! `scaling` plots `ops_per_sec()` over `wall_ns`; `mw_scaling` prices
//! the mutex path by `contended_wall_ns`. Queue wait is only *measured* by
//! the open-loop tier ([`openloop`](crate::openloop)).

use blockdev::BLOCK_SIZE;
use nvmsim::NvmStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CacheStats, TincaPool};

use crate::sched::{Op, Sched, Script};

/// Parameters for one multi-writer run.
#[derive(Clone, Debug)]
pub struct MtFioSpec {
    /// Logical writers.
    pub threads: usize,
    /// Read percentage of the operation mix (paper: 30/50/70).
    pub read_pct: u32,
    /// Addressable disk blocks (dataset size / 4 KB).
    pub blocks: u64,
    /// Operations per writer (an op is one read or one committed txn).
    pub ops_per_thread: u64,
    /// Blocks staged per write transaction.
    pub txn_blocks: usize,
    pub seed: u64,
}

/// Merged counters over one multi-writer measured phase.
#[derive(Clone, Debug)]
pub struct MtReport {
    pub threads: usize,
    pub shards: usize,
    /// Read operations completed (all writers).
    pub read_ops: u64,
    /// Write transactions committed (all writers).
    pub write_txns: u64,
    /// Max per-shard simulated-clock advance (parallel wall time).
    pub wall_ns: u64,
    /// Sum of per-shard clock advances (device-busy time).
    pub busy_ns: u64,
    /// Contention-aware wall-time upper bound: list-scheduling estimate
    /// with parallelism capped at `min(threads, shards)`. See the module
    /// docs for when figures use this instead of `wall_ns`.
    pub contended_wall_ns: u64,
    /// NVM counters summed over shards.
    pub nvm: NvmStats,
    /// Cache counters summed over shards.
    pub cache: CacheStats,
}

impl MtReport {
    /// Total operations (reads + committed transactions).
    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_txns
    }

    /// Operations per simulated second of parallel wall time (`wall_ns`,
    /// the idealised zero-queue-wait model the scaling figures plot).
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.ops() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// `clflush` executions per committed transaction (the flushes/txn
    /// series of the scaling figure).
    pub fn flushes_per_txn(&self) -> f64 {
        self.nvm.clflush as f64 / self.write_txns.max(1) as f64
    }

    /// Fraction of committed transactions that rode a multi-window
    /// sequencer round (always 0 on the mutex path, which never batches).
    pub fn batched_fraction(&self) -> f64 {
        let committed = (self.cache.commits - self.cache.group_commits) + self.cache.batched_txns;
        if committed == 0 {
            return 0.0;
        }
        self.cache.batched_txns as f64 / committed as f64
    }
}

/// The op generator: each writer's reads and writes over its own lane.
/// Writer `w`'s lane is the blocks `w + stride * k` for `k` in `0..per`:
/// with `stride` a multiple of the shard count they all sit on shard
/// `w % shards`, and no two writers' lanes meet.
struct Lanes<'a> {
    spec: &'a MtFioSpec,
    stride: u64,
    per: u64,
    rngs: Vec<StdRng>,
    /// Operations each writer has left.
    left: Vec<u64>,
    read_ops: u64,
    write_txns: u64,
}

impl Script for Lanes<'_> {
    fn next(&mut self, w: usize, pool: &TincaPool) -> Option<Op> {
        self.left[w] = self.left[w].checked_sub(1)?;
        let (spec, rng) = (self.spec, &mut self.rngs[w]);
        if rng.gen_range(0..100) < spec.read_pct {
            self.read_ops += 1;
            return Some(Op::Read(
                w as u64 + self.stride * rng.gen_range(0..self.per),
            ));
        }
        self.write_txns += 1;
        let mut txn = pool.init_txn();
        let mut wbuf = [0u8; BLOCK_SIZE];
        for _ in 0..spec.txn_blocks {
            let b = w as u64 + self.stride * rng.gen_range(0..self.per);
            wbuf.fill(rng.gen());
            txn.write(b, &wbuf);
        }
        Some(Op::Commit(txn))
    }
}

/// The driver. Stateless between runs; everything lives in the spec.
pub struct MtFio {
    spec: MtFioSpec,
}

impl MtFio {
    pub fn new(spec: MtFioSpec) -> MtFio {
        assert!(spec.threads >= 1, "need at least one thread");
        assert!(spec.txn_blocks >= 1, "transactions stage at least a block");
        assert!(spec.blocks >= spec.txn_blocks as u64);
        MtFio { spec }
    }

    /// Pre-commits every `warm_blocks` block so the measured phase sees a
    /// populated cache (mirrors `Fio::setup`'s pre-allocation).
    pub fn setup(&self, pool: &TincaPool, warm_blocks: u64) {
        let payload = [0x66u8; BLOCK_SIZE];
        for b in 0..warm_blocks.min(self.spec.blocks) {
            let mut t = pool.init_txn();
            t.write(b, &payload);
            pool.commit(t).expect("warm-up commit");
        }
    }

    /// Runs the measured phase: `threads` writers over `pool`, stepped by
    /// `sched`, and returns the report of its own charges.
    pub fn run(&self, pool: &TincaPool, sched: &Sched) -> MtReport {
        let spec = &self.spec;
        let shards = pool.shard_count();
        let (nvm0, clk0): (Vec<NvmStats>, Vec<u64>) = (0..shards)
            .map(|s| {
                (
                    pool.shard_nvm(s).stats(),
                    pool.shard_nvm(s).clock().now_ns(),
                )
            })
            .unzip();
        let cache0 = pool.stats();
        let mut lanes = Lanes {
            spec,
            stride: (shards * spec.threads.div_ceil(shards)) as u64,
            per: (spec.blocks / spec.threads as u64).max(spec.txn_blocks as u64),
            // SplitMix-style stream decorrelation per writer.
            rngs: (1..=spec.threads as u64)
                .map(|w| {
                    StdRng::seed_from_u64(
                        spec.seed
                            .wrapping_add(w.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                })
                .collect(),
            left: vec![spec.ops_per_thread; spec.threads],
            read_ops: 0,
            write_txns: 0,
        };
        sched.run(pool, spec.threads, &mut lanes);
        let (mut wall_ns, mut busy_ns, mut nvm) = (0, 0, NvmStats::default());
        for s in 0..shards {
            let d = pool.shard_nvm(s).clock().now_ns() - clk0[s];
            wall_ns = wall_ns.max(d);
            busy_ns += d;
            nvm = nvm.merge(&pool.shard_nvm(s).stats().delta(&nvm0[s]));
        }
        // Any schedule on p = min(threads, shards) service contexts ends
        // within busy/p plus the longest chain (≤ wall), and never later
        // than fully serial.
        let p = spec.threads.min(shards) as u64;
        MtReport {
            threads: spec.threads,
            shards,
            read_ops: lanes.read_ops,
            write_txns: lanes.write_txns,
            wall_ns,
            busy_ns,
            contended_wall_ns: busy_ns.min(busy_ns / p + wall_ns),
            nvm,
            cache: pool.stats().delta(&cache0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Policy;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
    use tinca::{PoolConfig, TincaConfig};

    const ROUNDS: Sched = Sched {
        policy: Policy::Rounds,
    };
    const SEEDED: Sched = Sched {
        policy: Policy::Seeded(0x5EED),
    };

    impl MtFioSpec {
        /// A small smoke configuration at `threads` writers.
        fn smoke(threads: usize) -> MtFioSpec {
            MtFioSpec {
                threads,
                read_pct: 30,
                blocks: 512,
                ops_per_thread: 200,
                txn_blocks: 2,
                seed: 0x3710,
            }
        }
    }

    fn make_pool(shards: usize) -> TincaPool {
        let devices = shard_devices(&NvmConfig::new(8 << 20, NvmTech::Pcm), shards);
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
        TincaPool::format(
            devices,
            disk,
            PoolConfig {
                shards,
                cache: TincaConfig {
                    ring_bytes: 4096,
                    ..TincaConfig::default()
                },
                ..PoolConfig::default()
            },
        )
    }

    #[test]
    fn single_thread_run_reports_exact_op_counts() {
        let pool = make_pool(1);
        let fio = MtFio::new(MtFioSpec::smoke(1));
        fio.setup(&pool, 64);
        let r = fio.run(&pool, &SEEDED);
        assert_eq!(r.ops(), 200);
        assert_eq!(r.read_ops + r.write_txns, 200);
        assert!(r.write_txns > 0 && r.read_ops > 0);
        assert!(r.wall_ns > 0);
        assert_eq!(r.wall_ns, r.busy_ns, "one shard: wall == busy");
        assert_eq!(
            r.contended_wall_ns, r.busy_ns,
            "one thread is fully serial: contended == busy"
        );
        assert!(r.nvm.clflush > 0);
        assert!(r.flushes_per_txn() > 0.0);
        pool.check_consistency().unwrap();
    }

    #[test]
    fn multi_thread_run_on_sharded_pool() {
        let pool = make_pool(4);
        let fio = MtFio::new(MtFioSpec::smoke(4));
        fio.setup(&pool, 64);
        let r = fio.run(&pool, &SEEDED);
        assert_eq!(r.ops(), 4 * 200);
        assert_eq!(r.shards, 4);
        assert!(r.wall_ns > 0);
        assert!(r.busy_ns >= r.wall_ns, "busy time sums over shards");
        assert!(r.ops_per_sec() > 0.0);
        // The contended estimate sits between the idealised parallel wall
        // and the fully serial busy time.
        assert!(r.contended_wall_ns >= r.wall_ns);
        assert!(r.contended_wall_ns <= r.busy_ns);
        pool.check_consistency().unwrap();
        // Commit accounting stays sane under concurrency: every committed
        // txn fragment rode exactly one ring commit, and a spanning txn
        // contributes one fragment per shard it touches.
        let c = r.cache;
        let fragments = (c.commits - c.group_commits) + c.batched_txns;
        assert!(fragments >= r.write_txns, "{fragments} < {}", r.write_txns);
        assert_eq!(c.failed_commits, 0);
    }

    #[test]
    fn one_writer_over_many_shards_has_serial_contended_wall() {
        // One writer's lane sits on one shard, so nothing runs in
        // parallel and p = min(threads, shards) = 1 degrades the bound to
        // serial time.
        let pool = make_pool(4);
        let fio = MtFio::new(MtFioSpec::smoke(1));
        fio.setup(&pool, 64);
        let r = fio.run(&pool, &SEEDED);
        assert_eq!(r.threads, 1);
        assert_eq!(r.shards, 4);
        assert_eq!(r.wall_ns, r.busy_ns, "one lane, one shard");
        assert_eq!(r.contended_wall_ns, r.busy_ns);
    }

    fn make_mw_pool(shards: usize) -> TincaPool {
        let devices = shard_devices(&NvmConfig::new(8 << 20, NvmTech::Pcm), shards);
        let disk = SimDisk::new(DiskKind::Ssd, 16 << 20, SimClock::new());
        TincaPool::format(
            devices,
            disk,
            PoolConfig {
                shards,
                commit_mode: tinca::CommitMode::LockFreeRing,
                cache: TincaConfig {
                    ring_bytes: 4096,
                    ..TincaConfig::default()
                },
            },
        )
    }

    #[test]
    fn multi_writer_single_writer_reports_exact_counts() {
        let pool = make_mw_pool(1);
        let fio = MtFio::new(MtFioSpec {
            read_pct: 30,
            ..MtFioSpec::smoke(1)
        });
        let r = fio.run(&pool, &ROUNDS);
        assert_eq!(r.ops(), 200);
        assert!(r.read_ops > 0 && r.write_txns > 0);
        assert_eq!(r.cache.commits, r.write_txns);
        assert_eq!(r.cache.failed_commits, 0);
        assert!(r.wall_ns > 0);
        pool.check_consistency().unwrap();
        pool.flush_all().unwrap();
    }

    #[test]
    fn multi_writer_contends_on_one_shard_and_groups_commits() {
        let pool = make_mw_pool(1);
        let fio = MtFio::new(MtFioSpec {
            threads: 8,
            read_pct: 0,
            blocks: 512,
            ops_per_thread: 40,
            txn_blocks: 2,
            seed: 0x3711,
        });
        let r = fio.run(&pool, &ROUNDS);
        assert_eq!(r.write_txns, 8 * 40);
        assert_eq!(r.cache.commits, r.write_txns);
        assert_eq!(r.cache.failed_commits, 0);
        // Eight windows per round share each sequencer round's fence and
        // Head store, so nearly every txn rides a multi-window commit.
        assert!(r.cache.group_commits > 0, "windows must batch per round");
        assert!(r.batched_fraction() > 0.5, "{}", r.batched_fraction());
        pool.check_consistency().unwrap();
        pool.flush_all().unwrap();
    }

    #[test]
    fn multi_writer_is_deterministic() {
        let spec = MtFioSpec {
            threads: 6,
            read_pct: 20,
            blocks: 384,
            ops_per_thread: 25,
            txn_blocks: 2,
            seed: 0x3712,
        };
        for sched in [ROUNDS, SEEDED] {
            let run = || {
                let pool = make_mw_pool(2);
                let r = MtFio::new(spec.clone()).run(&pool, &sched);
                (r.wall_ns, r.busy_ns, r.nvm.clflush, r.cache.commits)
            };
            assert_eq!(run(), run(), "{sched:?} must be replayable");
        }
    }

    #[test]
    fn seeded_schedules_do_the_rounds_work() {
        // Lanes are disjoint and each writer's ops are in order, so every
        // interleaving leaves every block as the rounds do.
        let spec = MtFioSpec {
            threads: 5,
            read_pct: 20,
            blocks: 256,
            ops_per_thread: 30,
            txn_blocks: 2,
            seed: 0x3715,
        };
        let rounds_pool = make_mw_pool(2);
        let rounds = MtFio::new(spec.clone()).run(&rounds_pool, &ROUNDS);
        for seed in 1..4 {
            let pool = make_mw_pool(2);
            let sched = Sched {
                policy: Policy::Seeded(seed),
            };
            let r = MtFio::new(spec.clone()).run(&pool, &sched);
            assert_eq!(
                (r.read_ops, r.write_txns),
                (rounds.read_ops, rounds.write_txns)
            );
            assert_eq!(r.cache.commits, r.write_txns);
            let (mut a, mut b) = ([0u8; BLOCK_SIZE], [0u8; BLOCK_SIZE]);
            for blk in 0..spec.blocks {
                rounds_pool.read(blk, &mut a).unwrap();
                pool.read(blk, &mut b).unwrap();
                assert_eq!(a, b, "seed {seed}: block {blk} differs from the rounds");
            }
            pool.check_consistency().unwrap();
        }
    }

    #[test]
    fn multi_writer_overlap_beats_mutex_serialisation() {
        // Same write-only contention shape — 8 writers on one shard —
        // under both commit modes. The lock-free ring stages the eight
        // windows of each round on private clocks, so its simulated wall
        // time must beat the mutex path, where every staging charge
        // serialises on the shard clock.
        let spec = MtFioSpec {
            threads: 8,
            read_pct: 0,
            blocks: 512,
            ops_per_thread: 40,
            txn_blocks: 4,
            seed: 0x3713,
        };
        let mw_pool = make_mw_pool(1);
        let mw = MtFio::new(spec.clone()).run(&mw_pool, &ROUNDS);

        let mutex_pool = make_pool(1);
        let mutex = MtFio::new(spec).run(&mutex_pool, &ROUNDS);

        assert_eq!(mw.write_txns, mutex.write_txns);
        assert!(
            mw.wall_ns < mutex.wall_ns,
            "lock-free {} ns must beat mutex {} ns",
            mw.wall_ns,
            mutex.wall_ns
        );
    }

    #[test]
    fn lanes_do_the_same_work_on_both_commit_paths() {
        // Four writers over two shards: the lanes tile blocks 0..256.
        let spec = MtFioSpec {
            threads: 4,
            read_pct: 20,
            blocks: 256,
            ops_per_thread: 30,
            txn_blocks: 2,
            seed: 0x3714,
        };
        let mutex_pool = make_pool(2);
        let ring_pool = make_mw_pool(2);
        let mutex = MtFio::new(spec.clone()).run(&mutex_pool, &ROUNDS);
        let ring = MtFio::new(spec.clone()).run(&ring_pool, &ROUNDS);
        assert!(mutex.write_txns > 0);
        assert_eq!(mutex.write_txns, ring.write_txns);
        assert_eq!(mutex.read_ops, ring.read_ops);
        assert_eq!(ring.cache.commits, ring.write_txns);
        let (mut a, mut b) = ([0u8; BLOCK_SIZE], [0u8; BLOCK_SIZE]);
        let mut written = 0;
        for blk in 0..spec.blocks {
            mutex_pool.read(blk, &mut a).unwrap();
            ring_pool.read(blk, &mut b).unwrap();
            assert_eq!(a, b, "block {blk} differs between commit paths");
            written += usize::from(a != [0u8; BLOCK_SIZE]);
        }
        assert!(written > 0);
        mutex_pool.check_consistency().unwrap();
        ring_pool.check_consistency().unwrap();
    }

    #[test]
    fn read_mix_is_roughly_honoured() {
        let pool = make_pool(2);
        let fio = MtFio::new(MtFioSpec {
            threads: 2,
            read_pct: 50,
            ..MtFioSpec::smoke(2)
        });
        fio.setup(&pool, 128);
        let r = fio.run(&pool, &SEEDED);
        let frac = r.read_ops as f64 / r.ops() as f64;
        assert!((0.35..0.65).contains(&frac), "read fraction {frac}");
    }
}
