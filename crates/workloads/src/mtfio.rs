//! Multi-threaded Fio-like driver over a sharded [`TincaPool`].
//!
//! The paper drives its prototype with multi-threaded Fio (Table 2); the
//! single-threaded [`fio`](crate::fio) module exercises one stack from one
//! thread. This driver spawns `threads` OS threads against one pool, each
//! with its own seeded RNG stream, issuing random 4 KB block reads and
//! multi-block transactional writes.
//!
//! ## Time model
//!
//! Each pool shard owns an independent [`nvmsim::SimClock`]: shards model disjoint
//! NVM sub-regions that serve flushes concurrently. The report therefore
//! exposes two durations:
//!
//! * `wall_ns` — the **maximum** per-shard clock advance: simulated
//!   wall-clock time assuming perfect shard parallelism;
//! * `busy_ns` — the **sum** of per-shard advances: total device-busy
//!   time, which equals wall time for a single shard.
//!
//! `wall = max` assumes one service context per shard — i.e. zero queue
//! wait on the shard mutexes. When `threads > shards` that is
//! optimistic: excess threads serialise on the shard locks but the model
//! still credits them with perfect parallelism. The report therefore also
//! carries `contended_wall_ns`, a list-scheduling (Graham-bound) estimate
//! that caps parallelism at `min(threads, shards)` service contexts:
//! `min(busy, busy / p + wall)`. It degrades exactly to `busy_ns` for one
//! thread and to `wall_ns` when threads ≥ shards keeps every shard busy.
//!
//! **Which one figures use:** the closed-loop throughput/scaling figures
//! (`scaling`, `phases`) plot `ops_per_sec()` over `wall_ns` — the
//! model's idealised shard-parallel time, consistent across PRs.
//! `contended_ops_per_sec()` over `contended_wall_ns` is the honest lower
//! bound quoted alongside it when `threads > shards`. Queue wait is only
//! *measured* (not bounded) by the open-loop tier
//! ([`openloop`](crate::openloop)), which stamps arrivals and records
//! wait explicitly.
//!
//! ## Lanes: multi-writer contention mode
//!
//! [`MtFio::run`] measures *shard*-level parallelism: excess threads on
//! one shard still serialise behind its commit mutex. [`MtFio::run_lanes`]
//! scripts the writers on a single OS thread instead. When the pool runs
//! [`tinca::CommitMode::LockFreeRing`] it drives true *intra-shard* write
//! concurrency through the steppable window API — several logical writers
//! hold reserved windows on the **same** shard at once, stage on private
//! clocks, and retire through one sequencer round; on the mutex path the
//! same work commits one transaction at a time. The run is deterministic,
//! which is what mode-vs-mode comparisons (the `mw_scaling` figure)
//! require.

use blockdev::BLOCK_SIZE;
use nvmsim::NvmStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CacheStats, MwAdmission, MwTicket, TincaPool};

/// Parameters for one multi-threaded run.
#[derive(Clone, Debug)]
pub struct MtFioSpec {
    /// Worker threads.
    pub threads: usize,
    /// Read percentage of the operation mix (paper: 30/50/70).
    pub read_pct: u32,
    /// Addressable disk blocks (dataset size / 4 KB).
    pub blocks: u64,
    /// Operations per thread (an op is one read or one committed txn).
    pub ops_per_thread: u64,
    /// Blocks staged per write transaction.
    pub txn_blocks: usize,
    pub seed: u64,
}

impl MtFioSpec {
    /// A small smoke configuration at `threads` workers.
    pub fn smoke(threads: usize) -> MtFioSpec {
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

/// Merged counters over one multi-threaded measured phase.
#[derive(Clone, Debug)]
pub struct MtReport {
    pub threads: usize,
    pub shards: usize,
    /// Read operations completed (all threads).
    pub read_ops: u64,
    /// Write transactions committed (all threads).
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

    /// Operations per simulated second of *contended* wall time — the
    /// conservative companion number for runs where `threads > shards`
    /// (threads queue on the shard mutexes; `wall = max` hides that).
    pub fn contended_ops_per_sec(&self) -> f64 {
        if self.contended_wall_ns == 0 {
            return 0.0;
        }
        self.ops() as f64 / (self.contended_wall_ns as f64 / 1e9)
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

/// Per-shard clock/counter snapshot taken before a measured phase, so the
/// report only covers the phase's own charges.
struct Baseline {
    nvm0: Vec<NvmStats>,
    clk0: Vec<u64>,
    cache0: CacheStats,
}

impl Baseline {
    fn take(pool: &TincaPool) -> Baseline {
        let shards = pool.shard_count();
        Baseline {
            nvm0: (0..shards).map(|s| pool.shard_nvm(s).stats()).collect(),
            clk0: (0..shards)
                .map(|s| pool.shard_nvm(s).clock().now_ns())
                .collect(),
            cache0: pool.stats(),
        }
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

    /// Runs the measured phase: `threads` workers over `pool`, each with a
    /// decorrelated RNG stream, and returns the merged report.
    pub fn run(&self, pool: &TincaPool) -> MtReport {
        let base = Baseline::take(pool);
        let spec = &self.spec;
        let mut totals: Vec<(u64, u64)> = Vec::with_capacity(spec.threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spec.threads)
                .map(|t| {
                    scope.spawn(move || {
                        // Stamp a stable trace-thread id well above the
                        // lazily assigned range, so per-shard event traces
                        // carry unambiguous provenance for the race rules.
                        nvmsim::set_trace_thread(1000 + t as u32);
                        // SplitMix-style stream decorrelation per thread.
                        let stream = spec
                            .seed
                            .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        let mut rng = StdRng::seed_from_u64(stream);
                        let mut wbuf = [0u8; BLOCK_SIZE];
                        let mut reads = 0u64;
                        let mut txns = 0u64;
                        let mut rbuf = [0u8; BLOCK_SIZE];
                        for _ in 0..spec.ops_per_thread {
                            if rng.gen_range(0..100) < spec.read_pct {
                                let b = rng.gen_range(0..spec.blocks);
                                pool.read(b, &mut rbuf)
                                    .expect("workload disk is fault-free");
                                reads += 1;
                            } else {
                                let mut txn = pool.init_txn();
                                for _ in 0..spec.txn_blocks {
                                    let b = rng.gen_range(0..spec.blocks);
                                    wbuf.fill(rng.gen());
                                    txn.write(b, &wbuf);
                                }
                                pool.commit(txn).expect("mtfio commit");
                                txns += 1;
                            }
                        }
                        (reads, txns)
                    })
                })
                .collect();
            for h in handles {
                totals.push(h.join().expect("worker thread"));
            }
        });

        let read_ops = totals.iter().map(|(r, _)| r).sum();
        let write_txns = totals.iter().map(|(_, w)| w).sum();
        self.finish(pool, base, read_ops, write_txns)
    }

    /// Runs the measured phase as **lanes**: `spec.threads` *logical*
    /// writers interleaved deterministically on one OS thread, round
    /// after round, each with its own RNG stream.
    ///
    /// Writer `w` targets shard `w % shards` with a block lane disjoint
    /// from every other writer's, so admissions never conflict. Only the
    /// commit step depends on the pool:
    ///
    /// * when a shard holds several commits in flight
    ///   ([`TincaPool::commit_concurrency`] > 1, i.e.
    ///   [`tinca::CommitMode::LockFreeRing`]), each write reserves and
    ///   stages a window (`mw_try_begin` → `mw_stage`) and the round
    ///   retires through `mw_publish` → `mw_sequence`. Each round overlaps
    ///   `ceil(threads / shards)` windows per shard: staging charges land
    ///   on private clocks and only the sequencer's single
    ///   fence-and-`Head`-store round serialises on the shard clock.
    ///   Publish order rotates per round to exercise out-of-ring-order
    ///   publication;
    /// * otherwise each write commits through [`TincaPool::commit`] as
    ///   it is built, paying the full serialised per-transaction cost.
    ///
    /// Unlike [`run`](Self::run) this is bit-for-bit deterministic (no
    /// OS-thread interleaving), so the `mw_scaling` figure prices the
    /// two commit paths on identical work.
    pub fn run_lanes(&self, pool: &TincaPool) -> MtReport {
        let base = Baseline::take(pool);
        let spec = &self.spec;
        let shards = pool.shard_count();
        let writers = spec.threads;
        let windows = pool.commit_concurrency() > 1;
        // Writer w owns the blocks `s + shards * (lane + wps * k)` for
        // k in 0..per: all route to shard s = w % shards, and distinct
        // writers own disjoint sets, so concurrent windows never touch
        // the same disk block.
        let wps = writers.div_ceil(shards) as u64;
        let per = (spec.blocks / writers as u64).max(spec.txn_blocks as u64);
        let block_of = |w: usize, k: u64| -> u64 {
            let s = (w % shards) as u64;
            let lane = (w / shards) as u64;
            s + shards as u64 * (lane + wps * (k % per))
        };

        let mut rngs: Vec<StdRng> = (0..writers)
            .map(|w| {
                let stream = spec
                    .seed
                    .wrapping_add((w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                StdRng::seed_from_u64(stream)
            })
            .collect();

        let mut read_ops = 0u64;
        let mut write_txns = 0u64;
        let mut wbuf = [0u8; BLOCK_SIZE];
        let mut rbuf = [0u8; BLOCK_SIZE];
        for round in 0..spec.ops_per_thread {
            // One reserved-and-staged window per writing writer this
            // round, each tagged with its owner's trace id: the owner
            // publishes its own window, exactly as real concurrent
            // writers would.
            let mut pending: Vec<(u32, MwTicket)> = Vec::new();
            for (w, rng) in rngs.iter_mut().enumerate() {
                // Distinct trace ids per logical writer (above the OS-thread
                // range `run` uses) keep per-shard event provenance honest.
                nvmsim::set_trace_thread(2000 + w as u32);
                if rng.gen_range(0..100) < spec.read_pct {
                    let b = block_of(w, rng.gen_range(0..per));
                    pool.read(b, &mut rbuf)
                        .expect("workload disk is fault-free");
                    read_ops += 1;
                    continue;
                }
                let mut txn = pool.init_txn();
                for _ in 0..spec.txn_blocks {
                    let b = block_of(w, rng.gen_range(0..per));
                    wbuf.fill(rng.gen());
                    txn.write(b, &wbuf);
                }
                write_txns += 1;
                if !windows {
                    pool.commit(txn).expect("lane workload commit");
                    continue;
                }
                // Lanes are disjoint, so Busy only ever means ring or
                // descriptor capacity — retiring the round's windows
                // frees it.
                let mut spins = 0;
                loop {
                    match pool.mw_try_begin(txn).expect("mw admission") {
                        MwAdmission::Admitted(mut ticket) => {
                            pool.mw_stage(&mut ticket);
                            pending.push((2000 + w as u32, ticket));
                            break;
                        }
                        MwAdmission::Busy(t) => {
                            txn = t;
                            Self::mw_flush_round(pool, &mut pending, round as usize);
                            spins += 1;
                            assert!(spins < 64, "mw admission stuck on capacity");
                        }
                    }
                }
            }
            Self::mw_flush_round(pool, &mut pending, round as usize);
        }
        self.finish(pool, base, read_ops, write_txns)
    }

    /// Publishes the round's staged windows — in an order rotated by
    /// `round`, so later ring windows regularly publish first — and runs
    /// the sequencer on every touched shard until it retires nothing.
    ///
    /// Every publish runs under the *owning* writer's trace id (a
    /// publish is the owner's release-store, not the round-driver's),
    /// so the merged-trace HB audit sees each window's reservation and
    /// publication on one thread and the cross-thread edges only where
    /// the protocol really has them: publish release → sequencer
    /// acquire. The sequencer rounds keep the last publisher's id — any
    /// writer may win the combiner role.
    fn mw_flush_round(pool: &TincaPool, pending: &mut Vec<(u32, MwTicket)>, round: usize) {
        if pending.is_empty() {
            return;
        }
        let rot = round % pending.len();
        pending.rotate_left(rot);
        let mut touched: Vec<usize> = Vec::new();
        for (owner, ticket) in pending.drain(..) {
            if !touched.contains(&ticket.shard()) {
                touched.push(ticket.shard());
            }
            nvmsim::set_trace_thread(owner);
            pool.mw_publish(ticket);
        }
        for s in touched {
            while pool.mw_sequence(s) > 0 {}
        }
    }

    /// Shared epilogue: per-shard clock/counter deltas merged into the
    /// report. See the module docs for the wall/busy/contended model.
    fn finish(&self, pool: &TincaPool, base: Baseline, read_ops: u64, write_txns: u64) -> MtReport {
        let spec = &self.spec;
        let shards = pool.shard_count();
        let mut wall_ns = 0u64;
        let mut busy_ns = 0u64;
        let mut nvm = NvmStats::default();
        for s in 0..shards {
            let d = pool.shard_nvm(s).clock().now_ns() - base.clk0[s];
            wall_ns = wall_ns.max(d);
            busy_ns += d;
            nvm = nvm.merge(&pool.shard_nvm(s).stats().delta(&base.nvm0[s]));
        }
        // Graham/list-scheduling bound with p = min(threads, shards)
        // service contexts: any schedule finishes within busy/p + the
        // longest single chain (≤ wall). Never worse than fully serial.
        let p = spec.threads.min(shards).max(1) as u64;
        let contended_wall_ns = busy_ns.min(busy_ns / p + wall_ns);
        MtReport {
            threads: spec.threads,
            shards,
            read_ops,
            write_txns,
            wall_ns,
            busy_ns,
            contended_wall_ns,
            nvm,
            cache: pool.stats().delta(&base.cache0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
    use tinca::{PoolConfig, TincaConfig};

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
        let r = fio.run(&pool);
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
        let r = fio.run(&pool);
        assert_eq!(r.ops(), 4 * 200);
        assert_eq!(r.shards, 4);
        assert!(r.wall_ns > 0);
        assert!(r.busy_ns >= r.wall_ns, "busy time sums over shards");
        assert!(r.ops_per_sec() > 0.0);
        // The contended estimate sits between the idealised parallel wall
        // and the fully serial busy time, so the honest throughput bound
        // is never above the model's.
        assert!(r.contended_wall_ns >= r.wall_ns);
        assert!(r.contended_wall_ns <= r.busy_ns);
        assert!(r.contended_ops_per_sec() <= r.ops_per_sec());
        assert!(r.contended_ops_per_sec() > 0.0);
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
    fn one_thread_over_many_shards_has_serial_contended_wall() {
        // The idealised model credits 4-shard parallelism (wall = max)
        // even though one thread serialises everything — the exact
        // conflation the contended bound corrects.
        let pool = make_pool(4);
        let fio = MtFio::new(MtFioSpec::smoke(1));
        fio.setup(&pool, 64);
        let r = fio.run(&pool);
        assert_eq!(r.threads, 1);
        assert_eq!(r.shards, 4);
        assert!(r.wall_ns < r.busy_ns, "model claims shard parallelism");
        assert_eq!(
            r.contended_wall_ns, r.busy_ns,
            "p = min(threads, shards) = 1 must degrade to serial time"
        );
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
        let r = fio.run_lanes(&pool);
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
        let r = fio.run_lanes(&pool);
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
        let run = || {
            let pool = make_mw_pool(2);
            let r = MtFio::new(spec.clone()).run_lanes(&pool);
            (r.wall_ns, r.busy_ns, r.nvm.clflush, r.cache.commits)
        };
        assert_eq!(run(), run(), "scripted interleaving must be replayable");
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
        let mw = MtFio::new(spec.clone()).run_lanes(&mw_pool);

        let mutex_pool = make_pool(1);
        let mutex = MtFio::new(spec).run(&mutex_pool);

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
        let mutex = MtFio::new(spec.clone()).run_lanes(&mutex_pool);
        let ring = MtFio::new(spec.clone()).run_lanes(&ring_pool);
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
        let r = fio.run(&pool);
        let frac = r.read_ops as f64 / r.ops() as f64;
        assert!((0.35..0.65).contains(&frac), "read fraction {frac}");
    }
}
