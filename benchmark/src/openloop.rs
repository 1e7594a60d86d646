//! `ol_write_hot` and `ol_mixed_cold`: open-loop Poisson arrivals on a
//! four-shard `TincaPool` with destage and flush coalescing on.
//!
//! Arrivals live on the simulated timeline, so the schedule is exact by
//! construction and latency is measured from the instant each op was due
//! (`workloads::openloop` has no coordinated omission); there is no
//! generator lateness to report.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use blockdev::{BlockDevice, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{shard_devices, CrashPolicy, Nvm, NvmConfig, NvmTech, SimClock};
use tinca::{PoolConfig, StatsSnapshot, TincaPool};
use workloads::openloop::{
    write_payload, Arrival, ArrivalStream, OpKind, OpenLoopDriver, OpenLoopSpec, StepOutcome,
    TincaServer,
};

use crate::decor::{DiskProbe, ProbedDisk};
use crate::metrics::{Metrics, Outcome};
use crate::run::{
    cache_metrics, device_metrics, finish_traced, latency_metrics, Ctx, Rep, Trace, Verify,
    Workload,
};
use crate::spans;
use crate::traced::NvmAudit;
use crate::util::{mean, percentile, ratio, sorted};

const SHARDS: usize = 4;
const NVM_BYTES: usize = 16 << 20;
/// 4 KB blocks the NVM could hold if all of it were data.
const CACHE_BLOCKS: u64 = (NVM_BYTES / BLOCK_SIZE) as u64;
const RING_BYTES: usize = 16 << 10;
const TXN_BLOCKS: usize = 2;
/// Knee search range and resolution (log-scale bisection).
const KNEE_LO: f64 = 1_000.0;
const KNEE_HI: f64 = 400_000.0;
/// Ops between two drains of the NVM trace in the traced run.
const DRAIN_EVERY: usize = 1024;

pub struct OpenLoop {
    pub name: &'static str,
    /// Working set in 4 KB blocks; the cache holds 4 096.
    pub blocks: u64,
    pub read_pct: u32,
    /// p99 arrival-to-completion limit that defines the knee.
    pub p99_limit_ns: u64,
    /// Rate of the timed phase, about half the knee at the seed commit.
    pub fixed_rate: f64,
    /// 0.85 × the knee at the seed commit.
    pub r85_rate: f64,
    /// Arrivals of the timed phase.
    pub timed: u64,
}

pub const WRITE_HOT: OpenLoop = OpenLoop {
    name: "ol_write_hot",
    blocks: 2_048,
    read_pct: 10,
    p99_limit_ns: 500_000,
    fixed_rate: 45_000.0,
    r85_rate: 77_000.0,
    timed: 150_000,
};

pub const MIXED_COLD: OpenLoop = OpenLoop {
    name: "ol_mixed_cold",
    blocks: 65_536,
    read_pct: 50,
    p99_limit_ns: 2_000_000,
    fixed_rate: 27_000.0,
    r85_rate: 47_000.0,
    timed: 100_000,
};

/// A formatted pool with handles on everything under it.
struct Rig {
    pool: TincaPool,
    devices: Vec<Nvm>,
    disk: Arc<dyn BlockDevice>,
    disk_clock: SimClock,
    probe: Option<Arc<DiskProbe>>,
}

fn pool_config() -> PoolConfig {
    // The pool's default commit mode, whatever it is at this commit.
    let mut cfg = PoolConfig::with_shards(SHARDS);
    cfg.cache.ring_bytes = RING_BYTES;
    cfg.cache.destage = true;
    cfg.cache.coalesce_flushes = true;
    cfg
}

impl Rig {
    fn new(w: &OpenLoop, traced: bool, probed: bool) -> Rig {
        let mut nvm = NvmConfig::new(NVM_BYTES, NvmTech::Pcm);
        nvm.trace_events = traced;
        let devices = shard_devices(&nvm, SHARDS);
        let disk_clock = SimClock::new();
        let sim_disk = SimDisk::new(DiskKind::Ssd, w.blocks.max(1 << 16), disk_clock.clone());
        let (disk, probe): (Arc<dyn BlockDevice>, _) = if probed {
            let (d, p) = ProbedDisk::wrap(sim_disk);
            (d, Some(p))
        } else {
            (sim_disk, None)
        };
        let pool = TincaPool::format(devices.clone(), disk.clone(), pool_config());
        Rig {
            pool,
            devices,
            disk,
            disk_clock,
            probe,
        }
    }

    fn clocks(&self) -> Vec<SimClock> {
        self.devices
            .iter()
            .map(|d| d.clock().clone())
            .chain(std::iter::once(self.disk_clock.clone()))
            .collect()
    }

    fn sim_now(&self) -> u64 {
        self.devices.iter().map(|d| d.clock().now_ns()).sum::<u64>() + self.disk_clock.now_ns()
    }
}

impl OpenLoop {
    fn spec_at(&self, ctx: &Ctx, rate: f64, ops: u64) -> OpenLoopSpec {
        let mut s = OpenLoopSpec::smoke(rate);
        s.ops = ops;
        s.read_pct = self.read_pct;
        s.blocks = self.blocks;
        s.txn_blocks = TXN_BLOCKS;
        s.queue_cap = 0;
        s.seed = ctx.seed;
        s
    }

    /// The stream of the timed phase (fixed rate).
    fn spec(&self, ctx: &Ctx, ops: u64) -> OpenLoopSpec {
        self.spec_at(ctx, self.fixed_rate, ops)
    }
}

/// Per-arrival samples of a stretch of the stream; a shed arrival has
/// `u64::MAX` latency.
#[derive(Default)]
struct Drive {
    latency: Vec<u64>,
    queue_wait: Vec<u64>,
    service: Vec<u64>,
    arrival: Vec<u64>,
    host_ns: u64,
    step_host_ns: u64,
}

fn drive(driver: &mut OpenLoopDriver<TincaServer<'_>>, n: u64, time_steps: bool) -> Drive {
    let mut d = Drive::default();
    for v in [
        &mut d.latency,
        &mut d.queue_wait,
        &mut d.service,
        &mut d.arrival,
    ] {
        v.reserve(n as usize);
    }
    let started = Instant::now();
    for _ in 0..n {
        let t = time_steps.then(Instant::now);
        let Some(out) = driver.step() else { break };
        if let Some(t) = t {
            d.step_host_ns += t.elapsed().as_nanos() as u64;
        }
        match out {
            StepOutcome::Completed {
                arrival_ns,
                queue_wait_ns,
                service_ns,
                ..
            } => {
                d.latency.push(queue_wait_ns + service_ns);
                d.queue_wait.push(queue_wait_ns);
                d.service.push(service_ns);
                d.arrival.push(arrival_ns);
            }
            _ => {
                d.latency.push(u64::MAX);
                d.queue_wait.push(0);
                d.service.push(0);
                d.arrival.push(d.arrival.last().copied().unwrap_or(0));
            }
        }
    }
    d.host_ns = started.elapsed().as_nanos() as u64;
    d
}

/// One pass of the stream through the driver at one rate.
struct Pass {
    setup_s: f64,
    warm: Drive,
    phase: Drive,
    arrivals: Vec<Arrival>,
    delta: StatsSnapshot,
    free_after_warmup: usize,
    probe: crate::decor::DiskProbeSnap,
    verify: Option<Verify>,
}

impl Pass {
    fn run(w: &OpenLoop, ctx: &Ctx, rate: f64, n: u64, probed: bool, verify: bool) -> Pass {
        let t_setup = Instant::now();
        let warmup = ctx.size(10_000, 150);
        let rig = Rig::new(w, false, probed);
        let spec = w.spec_at(ctx, rate, warmup + n);
        let arrivals: Vec<Arrival> = ArrivalStream::new(&spec, SHARDS).collect();
        let server = TincaServer::new(&rig.pool, rig.disk_clock.clone());
        let mut driver = OpenLoopDriver::new(spec, server);
        let warm = drive(&mut driver, warmup, false);
        let free_after_warmup = rig.pool.free_block_count();
        let s0 = StatsSnapshot::collect_pool(&rig.pool);
        let p0 = rig.probe.as_ref().map(|p| p.snap()).unwrap_or_default();
        let setup_s = t_setup.elapsed().as_secs_f64();

        let phase = drive(&mut driver, n, probed);

        let delta = StatsSnapshot::collect_pool(&rig.pool).delta(&s0);
        let probe = rig
            .probe
            .as_ref()
            .map(|p| p.snap().since(&p0))
            .unwrap_or_default();
        drop(driver);
        let verify = verify.then(|| {
            let done = warm.latency.iter().chain(&phase.latency);
            crash_and_verify(rig, ctx.seed, &arrivals, done)
        });
        Pass {
            setup_s,
            warm,
            phase,
            arrivals,
            delta,
            free_after_warmup,
            probe,
            verify,
        }
    }

    fn measured(&self) -> &[Arrival] {
        &self.arrivals[self.warm.latency.len()..]
    }

    /// Samples (`phase.latency` or `phase.service`) of the completed ops
    /// of one kind.
    fn of_kind(&self, samples: &[u64], writes: bool) -> Vec<u64> {
        self.measured()
            .iter()
            .zip(samples.iter().zip(&self.phase.latency))
            .filter(|(a, (_, &l))| {
                l != u64::MAX && matches!(a.kind, OpKind::Write { .. }) == writes
            })
            .map(|(_, (&s, _))| s)
            .collect()
    }

    fn latencies(&self, writes: bool) -> Vec<u64> {
        self.of_kind(&self.phase.latency, writes)
    }

    fn completed(&self) -> Vec<u64> {
        self.phase
            .latency
            .iter()
            .copied()
            .filter(|&l| l != u64::MAX)
            .collect()
    }

    fn shed(&self) -> u64 {
        self.phase
            .latency
            .iter()
            .filter(|&&l| l == u64::MAX)
            .count() as u64
    }

    /// `(offered, delivered)` ops per simulated second of the phase.
    fn rates(&self) -> (f64, f64) {
        let first = self.phase.arrival.first().copied().unwrap_or(0);
        let last = self.phase.arrival.last().copied().unwrap_or(0);
        let done = self
            .phase
            .arrival
            .iter()
            .zip(&self.phase.latency)
            .filter(|(_, &l)| l != u64::MAX)
            .map(|(a, l)| a + l)
            .max()
            .unwrap_or(last);
        let n = self.phase.latency.len() as f64;
        (
            ratio(n * 1e9, (last - first) as f64),
            ratio(
                self.completed().len() as f64 * 1e9,
                (done.max(last) - first) as f64,
            ),
        )
    }

    /// The knee condition: p99 within the limit, no growing backlog.
    fn sustains(&self, limit_ns: u64) -> bool {
        let (offered, delivered) = self.rates();
        let lat = sorted(self.completed());
        self.shed() == 0 && percentile(&lat, 0.99) <= limit_ns && delivered >= 0.99 * offered
    }
}

/// Crashes every NVM device with the cache still dirty, recovers the pool
/// and reads every acknowledged write back.
fn crash_and_verify<'a>(
    rig: Rig,
    seed: u64,
    arrivals: &[Arrival],
    latencies: impl Iterator<Item = &'a u64>,
) -> Verify {
    let mut model: HashMap<u64, u64> = HashMap::new();
    for (a, &l) in arrivals.iter().zip(latencies) {
        if let (OpKind::Write { blks, seq }, true) = (&a.kind, l != u64::MAX) {
            for &b in blks {
                model.insert(b, *seq);
            }
        }
    }
    for d in &rig.devices {
        d.crash(CrashPolicy::Random(seed));
    }
    let clocks = rig.clocks();
    let sim_now = || clocks.iter().map(SimClock::now_ns).sum::<u64>();
    let Rig {
        pool,
        devices,
        disk,
        ..
    } = rig;
    drop(pool);
    let sim0 = sim_now();
    let t = Instant::now();
    let recovered = TincaPool::recover(devices, disk, pool_config());
    let recover_host_ns = t.elapsed().as_nanos() as u64;
    let recover_sim_ns = sim_now() - sim0;
    let Ok(pool) = recovered else {
        return Verify {
            lost: model.len() as u64,
            ..Verify::default()
        };
    };
    let revoked_blocks = pool.stats().revoked_blocks;
    let consistent = pool.check_consistency().is_ok();
    let mut buf = [0u8; BLOCK_SIZE];
    let lost = model
        .iter()
        .filter(|(&blk, &seq)| pool.read(blk, &mut buf).is_err() || buf != write_payload(blk, seq))
        .count() as u64;
    Verify {
        recover_sim_ns,
        recover_host_ns,
        revoked_blocks,
        lost,
        consistent,
    }
}

impl OpenLoop {
    fn timed_ops(&self, ctx: &Ctx) -> u64 {
        ctx.size(self.timed, 600)
    }

    /// The simulated numbers of a fixed-rate pass.
    fn sim_of(&self, p: &Pass) -> Metrics {
        let mut m = Metrics::default();
        let writes = p.latencies(true);
        let user_bytes = (writes.len() * TXN_BLOCKS * BLOCK_SIZE) as u64;
        device_metrics(
            &mut m,
            &p.delta.nvm,
            &p.delta.disk,
            writes.len() as u64,
            user_bytes,
        );
        latency_metrics(&mut m, p.latencies(false), writes);
        m.set("delivered_ops_per_s", p.rates().1);
        m
    }
}

impl Workload for OpenLoop {
    fn name(&self) -> &'static str {
        self.name
    }

    fn load_fingerprint(&self, seed: u64, ops: u64) -> u64 {
        crate::load::arrivals(&self.spec(&Ctx::full(seed), ops), SHARDS)
    }

    fn predictions(&self, m: &Metrics) -> Vec<(&'static str, bool)> {
        let g = |k: &str| m.get(k);
        if self.blocks <= CACHE_BLOCKS {
            // The working set fits: the disk is bypassed.
            vec![
                (
                    "core.read_hit_share>=0.95",
                    g("core.read_hit_share") >= 0.95,
                ),
                (
                    "blockdev.fg_busy_share<=0.05",
                    g("blockdev.fg_busy_share") <= 0.05,
                ),
            ]
        } else {
            vec![
                (
                    "core.read_hit_share<=0.25",
                    g("core.read_hit_share") <= 0.25,
                ),
                (
                    "core.free_blocks_after_warmup==0",
                    g("core.free_blocks_after_warmup") == 0.0,
                ),
                (
                    "core.evictions_per_kop>0",
                    g("core.evictions_per_kop") > 0.0,
                ),
                (
                    "blockdev.fg_busy_share>=0.3",
                    g("blockdev.fg_busy_share") >= 0.3,
                ),
            ]
        }
    }

    fn knee(&self, ctx: &Ctx) -> Option<f64> {
        let probe = ctx.size(30_000, 400);
        // 1 % resolution; the smoke run stops at a factor of two.
        let resolution = if ctx.smoke { 2.0 } else { 1.01 };
        let (mut lo, mut hi) = (KNEE_LO, KNEE_HI);
        while hi / lo > resolution {
            let mid = (lo * hi).sqrt();
            if Pass::run(self, ctx, mid, probe, false, false).sustains(self.p99_limit_ns) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    fn rep(&self, ctx: &Ctx, verify: bool) -> Rep {
        let n = self.timed_ops(ctx);
        let p = Pass::run(self, ctx, self.fixed_rate, n, false, verify);
        Rep {
            setup_s: p.setup_s,
            host_wall_s: p.phase.host_ns as f64 / 1e9,
            sim: self.sim_of(&p),
            attempted: n,
            failed: p.shed(),
            verify: p.verify,
        }
    }

    fn traced(&self, ctx: &Ctx) -> Outcome {
        let mut out = Outcome::default();
        let n = self.timed_ops(ctx);

        // Counters and both clocks around the public calls, tracing off.
        let p = Pass::run(self, ctx, self.fixed_rate, n, true, true);
        let verify = p.verify.unwrap_or_default();
        let ops = p.completed().len() as u64;
        let m = &mut out.metrics;
        m.0.extend(self.sim_of(&p).0);
        let qw = sorted(p.phase.queue_wait.clone());
        let sv = sorted(p.phase.service.clone());
        m.set("workloads.queue_wait_p50_ns", percentile(&qw, 0.5) as f64);
        m.set("workloads.queue_wait_p99_ns", percentile(&qw, 0.99) as f64);
        m.set("workloads.service_p50_ns", percentile(&sv, 0.5) as f64);
        m.set("workloads.service_p99_ns", percentile(&sv, 0.99) as f64);
        m.set("workloads.shed_share", ratio(p.shed() as f64, n as f64));
        m.set(
            "workloads.step_host_ns_per_op",
            ratio(p.phase.step_host_ns as f64, n as f64),
        );
        m.set(
            "core.commit_sim_ns_per_txn",
            mean(&p.of_kind(&p.phase.service, true)),
        );
        m.set(
            "core.read_sim_ns_per_op",
            mean(&p.of_kind(&p.phase.service, false)),
        );
        cache_metrics(m, &p.delta.cache, p.delta.nvm.clflush, ops);
        m.set("core.free_blocks_after_warmup", p.free_after_warmup as f64);
        m.set("core.recover_host_ms", verify.recover_host_ns as f64 / 1e6);
        m.set(
            "core.revoked_blocks_on_recover",
            verify.revoked_blocks as f64,
        );
        let first = p.phase.arrival.first().copied().unwrap_or(0);
        let last = p.phase.arrival.last().copied().unwrap_or(0);
        m.set(
            "blockdev.fg_busy_share",
            ratio(p.probe.fg_device_ns as f64, (last - first) as f64),
        );
        m.set(
            "blockdev.bg_write_share",
            ratio(p.probe.bg_blocks as f64, p.delta.disk.writes as f64),
        );
        m.set(
            "blockdev.blocks_per_batch",
            ratio(p.probe.batch_blocks as f64, p.probe.batches as f64),
        );
        m.set(
            "blockdev.host_ns_per_io",
            ratio(p.probe.host_ns as f64, p.probe.calls as f64),
        );

        // Tail at a fixed high rate: queue wait rises before the knee falls.
        let r85 = Pass::run(
            self,
            ctx,
            self.r85_rate,
            ctx.size(30_000, 400),
            false,
            false,
        );
        m.set(
            "workloads.p99_at_r85_ns",
            percentile(&sorted(r85.completed()), 0.99) as f64,
        );

        // The same stream straight onto the pool, untraced then traced.
        let plain = self.replay(ctx, false);
        let traced = self.replay(ctx, true);
        m.set(
            "core.commit_host_ns_per_txn",
            ratio(plain.commit_host_ns as f64, plain.commits as f64),
        );
        m.set(
            "core.read_host_ns_per_op",
            ratio(plain.read_host_ns as f64, plain.reads as f64),
        );
        let clean = finish_traced(
            &mut out,
            self.name,
            (plain.host_ns, plain.sim_ns),
            (traced.host_ns, traced.sim_ns),
            traced.trace,
            traced.commits,
            traced.commits + traced.reads,
        );

        out.attempted = n;
        out.failed = p.shed() + verify.lost;
        out.correct = verify.consistent && out.failed == 0 && clean;
        out
    }
}

/// The arrival stream replayed back-to-back onto the pool's own calls.
#[derive(Default)]
struct Replay {
    host_ns: u64,
    sim_ns: u64,
    commits: u64,
    reads: u64,
    /// Host time inside `commit` / `read`, minus the disk calls under them.
    commit_host_ns: u64,
    read_host_ns: u64,
    trace: Trace,
}

impl OpenLoop {
    fn replay(&self, ctx: &Ctx, traced: bool) -> Replay {
        let warmup = ctx.size(10_000, 150) as usize;
        let n = ctx.size(self.timed / 10, 150) as usize;
        let rig = Rig::new(self, traced, true);
        let spec = self.spec(ctx, (warmup + n) as u64);
        let arrivals: Vec<Arrival> = ArrivalStream::new(&spec, SHARDS).collect();
        let probe = rig.probe.clone().expect("replay rigs are probed");
        let mut r = Replay::default();
        r.trace.audit = traced.then(|| NvmAudit::new(&rig.devices));
        let shard_clocks: Vec<SimClock> = (0..rig.pool.shard_count())
            .map(|s| rig.pool.shard_clock(s))
            .collect();

        let run = |r: &mut Replay, range: std::ops::Range<usize>, measured: bool| {
            let mut buf = [0u8; BLOCK_SIZE];
            for i in range {
                if traced && i % DRAIN_EVERY == 0 {
                    match &mut r.trace.audit {
                        Some(audit) if measured => audit.drain(&rig.devices),
                        _ => NvmAudit::discard(&rig.devices),
                    }
                }
                let a = &arrivals[i];
                let blk = match &a.kind {
                    OpKind::Read { blk } => *blk,
                    OpKind::Write { blks, .. } => blks[0],
                };
                // The product's phase tree reads one clock: the op's shard.
                telemetry::swap_clock(&shard_clocks[rig.pool.shard_of(blk)]);
                let disk0 = probe.snap().host_ns;
                let op_started = Instant::now();
                let _op = spans::enter("workloads", "op");
                let call_ns = match &a.kind {
                    OpKind::Read { blk } => {
                        let _s = spans::enter("core", "pool.read");
                        let t = Instant::now();
                        rig.pool.read(*blk, &mut buf).expect("fault-free read");
                        t.elapsed().as_nanos() as u64
                    }
                    OpKind::Write { blks, seq } => {
                        let mut txn = {
                            let _s = spans::enter("core", "pool.init_txn");
                            rig.pool.init_txn()
                        };
                        for &b in blks {
                            txn.write(b, &write_payload(b, *seq));
                        }
                        let _s = spans::enter("core", "pool.commit");
                        let t = Instant::now();
                        rig.pool.commit(txn).expect("fault-free commit");
                        t.elapsed().as_nanos() as u64
                    }
                };
                drop(_op);
                if measured {
                    let own = call_ns.saturating_sub(probe.snap().host_ns - disk0);
                    r.host_ns += op_started.elapsed().as_nanos() as u64;
                    if matches!(a.kind, OpKind::Read { .. }) {
                        r.reads += 1;
                        r.read_host_ns += own;
                    } else {
                        r.commits += 1;
                        r.commit_host_ns += own;
                    }
                }
            }
        };

        run(&mut r, 0..warmup, false);
        if traced {
            NvmAudit::discard(&rig.devices);
            spans::start(rig.clocks());
        }
        let sim0 = rig.sim_now();
        let measured = warmup..warmup + n;
        if traced {
            let ((), report) =
                telemetry::record(&shard_clocks[0], telemetry::Config::default(), || {
                    run(&mut r, measured, true)
                });
            r.trace.telemetry = Some(report);
            r.trace.spans = spans::finish();
        } else {
            run(&mut r, measured, true);
        }
        r.sim_ns = rig.sim_now() - sim0;
        if let Some(audit) = &mut r.trace.audit {
            audit.drain(&rig.devices);
        }
        r
    }
}
