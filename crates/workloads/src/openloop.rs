//! Open-loop serving tier: arrival-driven load with queue-wait accounting.
//!
//! Every other driver in this crate is **closed-loop**: each worker
//! issues an op, waits for it, and only then issues the next, so the
//! offered load adapts itself to the system's speed and queueing delay is
//! structurally invisible (`wall = max` in [`mtfio`](crate::mtfio)
//! assumes zero queue wait). Production traffic from 10^5–10^7
//! independent users is **open-loop**: arrivals happen on the wall clock
//! whether or not earlier requests finished, so when a shard saturates, a
//! backlog forms and *arrival-to-completion* latency — queue wait plus
//! service time — explodes while service time alone barely moves. This
//! module measures exactly that, on the simulated clock, with no
//! coordinated omission: every op is stamped with its arrival instant
//! when the stream is generated, never when the server got around to it.
//!
//! ## How queueing is modelled
//!
//! The tier is a discrete-event simulation driven single-threaded. Each
//! pool shard is one FIFO service station with its own simulated clock
//! (the shard's NVM clock — see `TincaPool::shard_clock`). Arrivals are
//! drawn in global time order from a seeded deterministic stream; for an
//! op arriving at `t`:
//!
//! 1. its shard's clock is advanced **up to** `t` if the shard is idle
//!    ([`nvmsim::SimClock::advance_to`] — idle time passes, so
//!    background-lane deadlines like destage expire during load gaps);
//! 2. service starts at `start = max(t, shard_now)` — a busy shard's
//!    clock is already past `t`, and the difference **is** the queue
//!    wait;
//! 3. the op executes against the cache, charging modelled device time
//!    to the shard clock; completion is the clock after the op.
//!
//! Latency = completion − arrival = queue wait + service time, recorded
//! into [`telemetry::Histogram`]s (p50/p99/p999).
//!
//! ## Admission control and backpressure
//!
//! A real serving tier sheds load rather than queue unboundedly. Here a
//! **bounded per-shard queue** (`queue_cap` ops queued + in service)
//! rejects the arrivals beyond it, each accounted as an explicit
//! [`StepOutcome::ShedQueueFull`] rather than silently dropped. Shed ops
//! never touch the cache — the crash campaign in `crashsim::backlog`
//! proves a shed/queued backlog cannot corrupt recovery.

use std::collections::VecDeque;

use blockdev::BLOCK_SIZE;
use nvmsim::SimClock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::{phase, Histogram};
use tinca::TincaPool;

/// Arrival process of the open-loop stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Memoryless arrivals at `rate_ops_per_sec` (exponential
    /// inter-arrival gaps) — the aggregate of many independent users.
    Poisson { rate_ops_per_sec: f64 },
}

impl Arrivals {
    fn rate(&self) -> f64 {
        match *self {
            Arrivals::Poisson { rate_ops_per_sec } => rate_ops_per_sec,
        }
    }
}

/// Parameters of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Simulated user population (each arrival is stamped with a user id;
    /// the aggregate arrival process is what matters for queueing).
    pub users: u64,
    pub arrivals: Arrivals,
    /// Total arrivals to generate.
    pub ops: u64,
    /// Read percentage of the op mix.
    pub read_pct: u32,
    /// Addressable disk blocks.
    pub blocks: u64,
    /// Blocks per write transaction (shard-aligned, so every write
    /// commits atomically on one shard).
    pub txn_blocks: usize,
    /// Bounded per-shard queue: max ops queued + in service; `0` means
    /// unbounded (pure queueing, no shedding).
    pub queue_cap: usize,
    pub seed: u64,
}

impl OpenLoopSpec {
    /// A small deterministic smoke configuration at `rate` ops/s.
    pub fn smoke(rate: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            users: 100_000,
            arrivals: Arrivals::Poisson {
                rate_ops_per_sec: rate,
            },
            ops: 400,
            read_pct: 30,
            blocks: 256,
            txn_blocks: 2,
            queue_cap: 0,
            seed: 0x0107,
        }
    }
}

/// One operation of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    Read {
        blk: u64,
    },
    /// A write transaction. All `blks` are congruent mod the shard count
    /// (single-shard, hence atomic); `seq` is the op's unique sequence
    /// number, encoded into the payload so crash oracles can attribute
    /// any recovered block to the exact write that produced it.
    Write {
        blks: Vec<u64>,
        seq: u64,
    },
}

/// One arrival: an op stamped with its arrival instant (relative to the
/// stream's origin) and originating user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in ns since the stream origin.
    pub at_ns: u64,
    pub user: u64,
    pub kind: OpKind,
}

/// The 4 KB payload of write `seq` to block `blk`: a repeating
/// `(blk, seq)` little-endian pair, so any recovered block identifies
/// both its address and the exact write that produced it. `seq` starts
/// at 1; an all-zero block means "never written".
pub fn write_payload(blk: u64, seq: u64) -> [u8; BLOCK_SIZE] {
    let mut buf = [0u8; BLOCK_SIZE];
    for chunk in buf.chunks_exact_mut(16) {
        chunk[..8].copy_from_slice(&blk.to_le_bytes());
        chunk[8..].copy_from_slice(&seq.to_le_bytes());
    }
    buf
}

/// [`write_payload`] built straight into the buffer a transaction owns:
/// the 16-byte pair, doubled in place up to the block, with no zero-fill
/// and no copy from the stack.
fn boxed_payload(blk: u64, seq: u64) -> Box<[u8; BLOCK_SIZE]> {
    let mut pair = [0u8; 16];
    pair[..8].copy_from_slice(&blk.to_le_bytes());
    pair[8..].copy_from_slice(&seq.to_le_bytes());
    let block = pair.repeat(BLOCK_SIZE / pair.len()).into_boxed_slice();
    block
        .try_into()
        .expect("BLOCK_SIZE is a whole number of pairs")
}

/// Deterministic arrival stream: same spec + shard count ⇒ bit-identical
/// sequence of `(at_ns, user, op)` on every run and platform.
pub struct ArrivalStream {
    rng: StdRng,
    arrivals: Arrivals,
    users: u64,
    read_pct: u32,
    blocks: u64,
    txn_blocks: usize,
    shards: u64,
    remaining: u64,
    /// Arrival time of the last op, ns.
    last_ns: f64,
    next_seq: u64,
}

impl ArrivalStream {
    pub fn new(spec: &OpenLoopSpec, shards: usize) -> ArrivalStream {
        assert!(spec.users >= 1);
        assert!(spec.arrivals.rate() > 0.0, "arrival rate must be positive");
        assert!(shards >= 1);
        assert!(
            spec.blocks / shards as u64 >= spec.txn_blocks as u64,
            "each shard needs at least txn_blocks addressable blocks"
        );
        assert!((0..=100).contains(&spec.read_pct));
        ArrivalStream {
            rng: StdRng::seed_from_u64(spec.seed),
            arrivals: spec.arrivals,
            users: spec.users,
            read_pct: spec.read_pct,
            blocks: spec.blocks,
            txn_blocks: spec.txn_blocks,
            shards: shards as u64,
            remaining: spec.ops,
            last_ns: 0.0,
            next_seq: 1,
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Exponential inter-arrival gap.
        let u: f64 = self.rng.gen();
        self.last_ns += -(1.0 - u).ln() / self.arrivals.rate() * 1e9;
        let at_ns = self.last_ns as u64;
        let user = self.rng.gen_range(0..self.users);
        let kind = if self.rng.gen_range(0..100) < self.read_pct {
            OpKind::Read {
                blk: self.rng.gen_range(0..self.blocks),
            }
        } else {
            // Shard-aligned write: all blocks ≡ r (mod shards).
            let r = self.rng.gen_range(0..self.shards);
            let span = (self.blocks - r - 1) / self.shards + 1;
            let mut blks: Vec<u64> = Vec::with_capacity(self.txn_blocks);
            while blks.len() < self.txn_blocks {
                let b = self.rng.gen_range(0..span) * self.shards + r;
                if !blks.contains(&b) {
                    blks.push(b);
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            OpKind::Write { blks, seq }
        };
        Some(Arrival { at_ns, user, kind })
    }
}

/// One shard-addressable service backend the open-loop driver can drive.
///
/// Implementations expose per-shard simulated clocks; `serve` must charge
/// the op's modelled device time to the serving shard's clock (that is
/// how service time is measured). Driving is single-threaded: the driver
/// owns the timeline.
pub trait OpenLoopServer {
    fn shards(&self) -> usize;
    /// The shard `op` routes to (every op is single-shard by
    /// construction).
    fn shard_of(&self, op: &OpKind) -> usize;
    /// Shard `s`'s current simulated time.
    fn now_ns(&self, s: usize) -> u64;
    /// Lets idle time pass on shard `s` up to `at_ns` (no-op if the shard
    /// clock is already past it).
    fn advance_to(&mut self, s: usize, at_ns: u64);
    /// Executes `op`, charging its device time to its shard's clock.
    fn serve(&mut self, op: &OpKind) -> Result<(), String>;
    /// Service slots per shard. `1` (the default) models a strict-FIFO
    /// single server: an op waits until the shard clock is free. A
    /// backend whose commit path admits several writers at once — the
    /// lock-free ring of `CommitMode::LockFreeRing` — returns its
    /// admission bound, and the driver lets up to that many ops be in
    /// service concurrently, so queue wait starts only when every slot
    /// is held.
    fn concurrency(&self, _s: usize) -> usize {
        1
    }
}

/// [`OpenLoopServer`] over a sharded [`TincaPool`].
///
/// Each shard's NVM clock is the service clock. The pool's backing disk
/// has its *own* clock (shared across shards); foreground disk time an op
/// causes (miss fill, synchronous writeback) is measured as the disk-
/// clock delta across `serve` and re-charged onto the serving shard's
/// clock — valid because driving is single-threaded, so any disk advance
/// during `serve` belongs to exactly this op. Background destage-lane
/// writebacks deliberately do not advance the disk clock, so they are
/// not double-charged here.
pub struct TincaServer<'a> {
    pool: &'a TincaPool,
    shard_clocks: Vec<SimClock>,
    disk_clock: SimClock,
}

impl<'a> TincaServer<'a> {
    /// `disk_clock` is the clock the pool's backing `SimDisk` was built
    /// on.
    pub fn new(pool: &'a TincaPool, disk_clock: SimClock) -> TincaServer<'a> {
        let shard_clocks = (0..pool.shard_count())
            .map(|s| pool.shard_clock(s))
            .collect();
        TincaServer {
            pool,
            shard_clocks,
            disk_clock,
        }
    }
}

impl OpenLoopServer for TincaServer<'_> {
    fn shards(&self) -> usize {
        self.shard_clocks.len()
    }

    fn shard_of(&self, op: &OpKind) -> usize {
        match op {
            OpKind::Read { blk } => self.pool.shard_of(*blk),
            OpKind::Write { blks, .. } => self.pool.shard_of(blks[0]),
        }
    }

    fn now_ns(&self, s: usize) -> u64 {
        self.shard_clocks[s].now_ns()
    }

    fn advance_to(&mut self, s: usize, at_ns: u64) {
        self.shard_clocks[s].advance_to(at_ns);
    }

    fn serve(&mut self, op: &OpKind) -> Result<(), String> {
        let s = self.shard_of(op);
        let disk0 = self.disk_clock.now_ns();
        match op {
            OpKind::Read { blk } => {
                let mut buf = [0u8; BLOCK_SIZE];
                self.pool.read(*blk, &mut buf).map_err(|e| e.to_string())?;
            }
            OpKind::Write { blks, seq } => {
                let mut txn = self.pool.init_txn();
                for &b in blks {
                    txn.stage_owned(b, boxed_payload(b, *seq));
                }
                self.pool.commit(txn).map_err(|e| e.to_string())?;
            }
        }
        let disk_ns = self.disk_clock.now_ns().saturating_sub(disk0);
        if disk_ns > 0 {
            self.shard_clocks[s].advance(disk_ns);
        }
        Ok(())
    }

    /// 1 for the mutex commit path, the window-descriptor capacity for
    /// the lock-free ring.
    fn concurrency(&self, _s: usize) -> usize {
        self.pool.commit_concurrency()
    }
}

/// [`OpenLoopServer`] over the Classic+JBD2 baseline: `S` independent
/// Ext4-like stacks (one per shard, mirroring the pool's symmetric
/// sharding), one data file each. A write transaction writes its blocks
/// and `fsync`s once — the same durable-op granularity as one Tinca
/// commit. Each stack's unified clock is the shard clock.
pub struct ClassicServer {
    stacks: Vec<fssim::stack::Stack>,
    files: Vec<fssim::FileId>,
}

impl ClassicServer {
    pub fn new(shards: usize, cfg: &fssim::stack::StackConfig) -> ClassicServer {
        assert!(matches!(cfg.system, fssim::stack::System::Classic));
        let mut stacks = Vec::with_capacity(shards);
        let mut files = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut stack = fssim::stack::build(cfg).expect("classic stack build");
            let f = stack.fs.create("data").expect("create data file");
            stacks.push(stack);
            files.push(f);
        }
        ClassicServer { stacks, files }
    }

    fn offset_of(&self, blk: u64) -> u64 {
        (blk / self.stacks.len() as u64) * BLOCK_SIZE as u64
    }
}

impl OpenLoopServer for ClassicServer {
    fn shards(&self) -> usize {
        self.stacks.len()
    }

    fn shard_of(&self, op: &OpKind) -> usize {
        let blk = match op {
            OpKind::Read { blk } => *blk,
            OpKind::Write { blks, .. } => blks[0],
        };
        (blk % self.stacks.len() as u64) as usize
    }

    fn now_ns(&self, s: usize) -> u64 {
        self.stacks[s].clock.now_ns()
    }

    fn advance_to(&mut self, s: usize, at_ns: u64) {
        self.stacks[s].clock.advance_to(at_ns);
    }

    fn serve(&mut self, op: &OpKind) -> Result<(), String> {
        let s = self.shard_of(op);
        let ino = self.files[s];
        match op {
            OpKind::Read { blk } => {
                let off = self.offset_of(*blk);
                let mut buf = [0u8; BLOCK_SIZE];
                // Short/empty reads of never-written offsets are valid.
                self.stacks[s]
                    .fs
                    .read(ino, off, &mut buf)
                    .map_err(|e| e.to_string())?;
            }
            OpKind::Write { blks, seq } => {
                for &b in blks {
                    let off = self.offset_of(b);
                    self.stacks[s]
                        .fs
                        .write(ino, off, &write_payload(b, *seq))
                        .map_err(|e| e.to_string())?;
                }
                // Durability parity with a Tinca commit.
                self.stacks[s].fs.fsync().map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }
}

/// Outcome of admitting (or shedding) one arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    Completed {
        shard: usize,
        /// Absolute arrival instant on the simulated timeline.
        arrival_ns: u64,
        queue_wait_ns: u64,
        service_ns: u64,
    },
    /// Rejected: the shard's bounded queue was full at arrival.
    ShedQueueFull { shard: usize },
}

/// Aggregate of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    pub shards: usize,
    pub users: u64,
    /// Arrivals generated (admitted + shed).
    pub offered: u64,
    /// Ops served to completion.
    pub completed: u64,
    /// Arrivals shed because their shard's bounded queue was full.
    pub shed_queue_full: u64,
    pub reads: u64,
    pub writes: u64,
    /// Timeline span: first arrival's origin → max(last arrival, last
    /// completion).
    pub horizon_ns: u64,
    /// Arrival-to-completion latency (queue wait + service).
    pub latency: Histogram,
    pub queue_wait: Histogram,
    pub service: Histogram,
    /// Per-shard arrival-to-completion latency (legitimately empty for a
    /// shard that only shed).
    pub shard_latency: Vec<Histogram>,
}

impl OpenLoopReport {
    /// Completions per second — the delivered-throughput axis of the
    /// knee curve.
    pub fn delivered_ops_per_sec(&self) -> f64 {
        if self.horizon_ns == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.horizon_ns as f64 / 1e9)
    }

    pub fn p50(&self) -> Option<u64> {
        self.latency.p50()
    }

    pub fn p99(&self) -> Option<u64> {
        self.latency.p99()
    }

    pub fn p999(&self) -> Option<u64> {
        self.latency.p999()
    }
}

/// The open-loop driver: pulls the arrival stream in time order and
/// plays it against an [`OpenLoopServer`], one discrete event per
/// arrival.
///
/// Exposed stepwise (not just as one `run`) so crash campaigns can
/// inject a crash mid-backlog and inspect [`Self::current`] — the op in
/// flight when the server panicked.
pub struct OpenLoopDriver<S: OpenLoopServer> {
    pub server: S,
    spec: OpenLoopSpec,
    stream: ArrivalStream,
    /// Global timeline origin: the latest shard clock at construction.
    t0: u64,
    /// Per-shard completion times of admitted ops not yet finished at the
    /// head arrival (queued + in service) — the bounded queue.
    outstanding: Vec<VecDeque<u64>>,
    /// The arrival being served right now (set across the `serve` call);
    /// after a crash-trip panic this is the op that was mid-commit.
    pub current: Option<Arrival>,
    offered: u64,
    completed: u64,
    shed_queue_full: u64,
    reads: u64,
    writes: u64,
    last_arrival_ns: u64,
    max_done_ns: u64,
    latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    shard_latency: Vec<Histogram>,
}

impl<S: OpenLoopServer> OpenLoopDriver<S> {
    pub fn new(spec: OpenLoopSpec, server: S) -> OpenLoopDriver<S> {
        let shards = server.shards();
        let stream = ArrivalStream::new(&spec, shards);
        let t0 = (0..shards).map(|s| server.now_ns(s)).max().unwrap_or(0);
        OpenLoopDriver {
            server,
            spec,
            stream,
            t0,
            outstanding: vec![VecDeque::new(); shards],
            current: None,
            offered: 0,
            completed: 0,
            shed_queue_full: 0,
            reads: 0,
            writes: 0,
            last_arrival_ns: t0,
            max_done_ns: t0,
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            shard_latency: vec![Histogram::new(); shards],
        }
    }

    /// Admits (or sheds) the next arrival; `None` when the stream is
    /// exhausted.
    pub fn step(&mut self) -> Option<StepOutcome> {
        let a = self.stream.next()?;
        let at = self.t0 + a.at_ns;
        self.offered += 1;
        self.last_arrival_ns = self.last_arrival_ns.max(at);
        let s = self.server.shard_of(&a.kind);

        // Completions up to this arrival leave the queue.
        let q = &mut self.outstanding[s];
        while q.front().is_some_and(|&done| done <= at) {
            q.pop_front();
        }

        // The bounded queue sheds before any cache work.
        if self.spec.queue_cap > 0 && self.outstanding[s].len() >= self.spec.queue_cap {
            self.shed_queue_full += 1;
            telemetry::mark(phase::OPENLOOP_SHED, 1);
            return Some(StepOutcome::ShedQueueFull { shard: s });
        }

        // Idle time (if any) passes; a busy shard's clock is already
        // ahead of `at`.
        let c = self.server.concurrency(s);
        self.server.advance_to(s, at);
        let start = self.server.now_ns(s);
        let a = self.current.insert(a);
        self.server
            .serve(&a.kind)
            .expect("open-loop workloads run fault-free");
        let is_read = matches!(a.kind, OpKind::Read { .. });
        self.current = None;
        let done = self.server.now_ns(s);
        let service_ns = done - start;

        // With one service slot the shard clock *is* the server: the gap
        // between arrival and clock is the queue wait, and the
        // clock-stamped completion is the op's. With `c` slots — the
        // concurrent commit path — service still charges the shared shard
        // clock (it is the device), but an op only queues while all `c`
        // slots are held: it starts when the oldest of the `c` most
        // recent outstanding completions frees a slot (no strict FIFO on
        // the clock), and its modelled completion is that start plus its
        // own service time.
        let q = &mut self.outstanding[s];
        let (queue_wait_ns, done_model) = if c <= 1 {
            (start - at, done)
        } else {
            let slot_free = if q.len() < c { at } else { q[q.len() - c] };
            let begin = at.max(slot_free);
            (begin - at, begin + service_ns)
        };
        // Completions are no longer monotone under c > 1 (a short op can
        // finish before an earlier long one); keep the deque sorted.
        let pos = q.partition_point(|&d| d <= done_model);
        q.insert(pos, done_model);

        let latency_ns = queue_wait_ns + service_ns;
        self.completed += 1;
        if is_read {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        self.max_done_ns = self.max_done_ns.max(done).max(done_model);
        self.latency.record(latency_ns);
        self.queue_wait.record(queue_wait_ns);
        self.service.record(service_ns);
        self.shard_latency[s].record(latency_ns);
        telemetry::observe(phase::OPENLOOP_LATENCY, latency_ns);
        telemetry::observe(phase::OPENLOOP_QUEUE_WAIT, queue_wait_ns);
        telemetry::observe(phase::OPENLOOP_SERVICE, service_ns);
        Some(StepOutcome::Completed {
            shard: s,
            arrival_ns: at,
            queue_wait_ns,
            service_ns,
        })
    }

    /// Plays the whole stream and returns the report.
    pub fn run(mut self) -> OpenLoopReport {
        while self.step().is_some() {}
        self.into_report()
    }

    /// Finishes early (crash campaigns) or after [`Self::run`]'s loop.
    pub fn into_report(self) -> OpenLoopReport {
        OpenLoopReport {
            shards: self.shard_latency.len(),
            users: self.spec.users,
            offered: self.offered,
            completed: self.completed,
            shed_queue_full: self.shed_queue_full,
            reads: self.reads,
            writes: self.writes,
            horizon_ns: self.last_arrival_ns.max(self.max_done_ns) - self.t0,
            latency: self.latency,
            queue_wait: self.queue_wait,
            service: self.service,
            shard_latency: self.shard_latency,
        }
    }
}

/// Estimates a server's aggregate service capacity (ops/s) by serving
/// `ops` back-to-back ops from `spec`'s mix with zero think time:
/// `capacity ≈ ops · shards / Σ shard busy time`. Mutates the server
/// (clocks advance, caches warm) — probe a scratch instance, or probe
/// first and treat it as warm-up.
pub fn probe_capacity<S: OpenLoopServer>(server: &mut S, spec: &OpenLoopSpec, ops: u64) -> f64 {
    let shards = server.shards();
    let before: Vec<u64> = (0..shards).map(|s| server.now_ns(s)).collect();
    let stream = ArrivalStream::new(spec, shards);
    let mut served = 0u64;
    for a in stream.take(ops as usize) {
        server.serve(&a.kind).expect("capacity probe is fault-free");
        served += 1;
    }
    let busy: u64 = (0..shards).map(|s| server.now_ns(s) - before[s]).sum();
    if busy == 0 {
        return f64::INFINITY;
    }
    served as f64 * shards as f64 / (busy as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use fssim::stack::{StackConfig, System};
    use nvmsim::{shard_devices, NvmConfig, NvmTech};
    use tinca::{PoolConfig, TincaConfig};

    fn make_pool(shards: usize) -> (TincaPool, SimClock) {
        let devices = shard_devices(&NvmConfig::new(shards * (2 << 20), NvmTech::Pcm), shards);
        let disk_clock = SimClock::new();
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
        let pool = TincaPool::format(
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
        );
        (pool, disk_clock)
    }

    #[test]
    fn stream_is_deterministic_and_time_ordered() {
        let spec = OpenLoopSpec::smoke(50_000.0);
        let a: Vec<Arrival> = ArrivalStream::new(&spec, 4).collect();
        let b: Vec<Arrival> = ArrivalStream::new(&spec, 4).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.ops as usize);
        for w in a.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "arrivals out of order");
        }
    }

    #[test]
    fn writes_are_shard_aligned_and_seqs_unique() {
        let spec = OpenLoopSpec::smoke(50_000.0);
        let mut seqs = std::collections::HashSet::new();
        for a in ArrivalStream::new(&spec, 4) {
            if let OpKind::Write { blks, seq } = a.kind {
                assert!(seqs.insert(seq), "duplicate write seq {seq}");
                assert!(blks.iter().all(|b| b % 4 == blks[0] % 4));
                assert!(blks.iter().all(|b| *b < spec.blocks));
                let mut d = blks.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), blks.len(), "duplicate block in txn");
            }
        }
    }

    #[test]
    fn underloaded_run_has_negligible_queue_wait() {
        let (pool, disk_clock) = make_pool(2);
        let server = TincaServer::new(&pool, disk_clock);
        assert_eq!(server.concurrency(0), 1, "the mutex path is strict FIFO");
        // 1k ops/s against a cache serving in ~µs: essentially idle.
        let r = OpenLoopDriver::new(OpenLoopSpec::smoke(1_000.0), server).run();
        assert_eq!(r.offered, 400);
        assert_eq!(r.completed, 400);
        assert_eq!(r.shed_queue_full, 0);
        assert!(r.reads > 0 && r.writes > 0);
        // Nearly every op finds its shard idle.
        assert_eq!(r.queue_wait.p50(), Some(0), "p50 queue wait must be 0");
        assert!(r.p999().unwrap() >= r.service.p50().unwrap());
        pool.check_consistency().unwrap();
    }

    #[test]
    fn overload_builds_queue_wait_and_tail() {
        let (pool, disk_clock) = make_pool(2);
        let server = TincaServer::new(&pool, disk_clock);
        let quiet = OpenLoopDriver::new(OpenLoopSpec::smoke(1_000.0), server).run();

        let (pool2, disk_clock2) = make_pool(2);
        let server2 = TincaServer::new(&pool2, disk_clock2);
        // Far past capacity: the backlog grows without bound, so
        // arrival-to-completion latency dwarfs service time.
        let hot = OpenLoopDriver::new(OpenLoopSpec::smoke(100_000_000.0), server2).run();
        assert_eq!(hot.completed, hot.offered, "unbounded queue never sheds");
        assert!(
            hot.queue_wait.p99().unwrap() > 10 * hot.service.p99().unwrap(),
            "overload queue wait {} should dwarf service {}",
            hot.queue_wait.p99().unwrap(),
            hot.service.p99().unwrap()
        );
        assert!(hot.p999().unwrap() > quiet.p999().unwrap());
        // Every op completes (unbounded queue), but only long after the
        // arrival window closed: the horizon is completion-bound, so the
        // delivered rate sits far below the configured offered rate.
        assert!(hot.delivered_ops_per_sec() < 0.5 * 100_000_000.0);
    }

    fn make_mw_pool(shards: usize) -> (TincaPool, SimClock) {
        let devices = shard_devices(&NvmConfig::new(shards * (2 << 20), NvmTech::Pcm), shards);
        let disk_clock = SimClock::new();
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
        let pool = TincaPool::format(
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
        );
        (pool, disk_clock)
    }

    #[test]
    fn concurrent_commit_path_cuts_overload_queue_wait() {
        // Same overload against both commit modes. The mutex pool is a
        // strict-FIFO single server per shard, so queue wait stacks up
        // one full service time per backlogged op; the lock-free ring
        // admits a window per writer, and the driver's multi-slot model
        // lets ops wait only for a slot, not for every earlier op.
        let (mutex_pool, mutex_clk) = make_pool(2);
        let mutex_server = TincaServer::new(&mutex_pool, mutex_clk);
        assert_eq!(mutex_server.concurrency(0), 1);
        let mutex = OpenLoopDriver::new(OpenLoopSpec::smoke(100_000_000.0), mutex_server).run();

        let (mw_pool, mw_clk) = make_mw_pool(2);
        let mw_server = TincaServer::new(&mw_pool, mw_clk);
        assert!(mw_server.concurrency(0) > 1, "ring mode must widen service");
        let mw = OpenLoopDriver::new(OpenLoopSpec::smoke(100_000_000.0), mw_server).run();

        assert_eq!(mw.completed, mw.offered);
        assert_eq!(mw.reads + mw.writes, mutex.reads + mutex.writes);
        let (mw_p99, mutex_p99) = (
            mw.queue_wait.p99().unwrap(),
            mutex.queue_wait.p99().unwrap(),
        );
        assert!(
            mw_p99 * 4 < mutex_p99,
            "concurrent path p99 wait {mw_p99} should sit far below mutex {mutex_p99}"
        );
        mw_pool.check_consistency().unwrap();
    }

    #[test]
    fn bounded_queue_sheds_under_overload() {
        let (pool, disk_clock) = make_pool(2);
        let server = TincaServer::new(&pool, disk_clock);
        let spec = OpenLoopSpec {
            queue_cap: 4,
            ..OpenLoopSpec::smoke(100_000_000.0)
        };
        let r = OpenLoopDriver::new(spec, server).run();
        assert!(r.shed_queue_full > 0, "overload must shed");
        assert_eq!(r.completed + r.shed_queue_full, r.offered);
        // The bounded queue caps the tail: wait ≤ cap · max service.
        let cap_wait = 4 * r.service.max().unwrap();
        assert!(r.queue_wait.max().unwrap() <= cap_wait);
        pool.check_consistency().unwrap();
    }

    #[test]
    fn classic_server_serves_and_persists() {
        let server = ClassicServer::new(2, &StackConfig::tiny(System::Classic));
        let spec = OpenLoopSpec {
            blocks: 64,
            ops: 60,
            ..OpenLoopSpec::smoke(1_000.0)
        };
        let r = OpenLoopDriver::new(spec, server).run();
        assert_eq!(r.completed, 60);
        assert!(r.writes > 0);
        assert!(r.p99().is_some());
    }

    #[test]
    fn probe_capacity_is_positive_and_finite() {
        let (pool, disk_clock) = make_pool(2);
        let mut server = TincaServer::new(&pool, disk_clock);
        let cap = probe_capacity(&mut server, &OpenLoopSpec::smoke(1_000.0), 100);
        assert!(cap.is_finite() && cap > 0.0, "capacity {cap}");
    }
}
