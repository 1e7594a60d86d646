//! The crash engine: the one trip → cut → recover → verify sequence every
//! campaign runs.
//!
//! An application — the FS stack, a kvdb personality, a pool and its
//! workload — implements [`Crashable`]; a campaign is a [`Plan`] value that
//! builds a fresh app per seed, with its trip and its cut. Two drivers run
//! a plan:
//!
//! * [`sweep`] — one [`run_one`] per seed: arm the trip, drive the app
//!   until it returns or the trip cuts it, and if it was cut, fail the
//!   power, recover and verify;
//! * [`frontier`] — bounded exhaustive enumeration: a probe run harvests
//!   every device's fence epochs, then every persist frontier of every
//!   epoch is replayed through [`run_one`] with [`Cut::Frontier`].
//!
//! Both fill one [`CampaignReport`], and every failed check names itself
//! ([`Check`]). The pieces the pool plans share are here too, once:
//!
//! * [`Rig`] — the traced shard devices, the disk (plain, or wrapped in a
//!   [`FaultyDisk`]), the [`PoolConfig`] and each shard's metadata ranges;
//!   it formats, recovers, audits and checks the pool;
//! * [`tripped`] — the trip runner: runs a driver until it returns or an
//!   armed trip cuts it, re-raises any other panic, disarms;
//! * [`Cut`] — how the power fails: adversarially on every device, a
//!   process kill, or one exact persist frontier of the tripped device;
//! * [`audit`] — the persist-order check of every shard's trace and of
//!   the merged pool-wide trace, as an [`Audit`] of reports that a
//!   campaign folds into its first [`Finding`] and a figure counts;
//! * [`Oracle`] — the durable value of every key and the transactions in
//!   flight, judged after recovery: the pool plans' blocks, the FS plans'
//!   files and kvdb's records.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use blockdev::{DiskKind, FaultPlan, FaultyDisk, SimDisk, BLOCK_SIZE};
use nvmsim::{
    merge_shard_traces, shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmDevice,
    NvmTech, SimClock, TraceEvent, TracedOp, CACHE_LINE,
};
use persistcheck::{CheckConfig, Checker, Report};
use rand::rngs::StdRng;
use rand::Rng;
use tinca::{CommitMode, DynDisk, PoolConfig, TincaConfig, TincaError, TincaPool, Txn};
use workloads::openloop::write_payload;
use workloads::sched::{Op, Policy, Sched, Script};

use crate::frontier::{epochs_from_trace, frontiers};
use crate::{quiet_crash_panics, AppOutcome, CampaignReport, Check, FailureMode, Finding};

/// One application under the crash experiment. It is built fresh:
/// formatted, its plan rolled, no trip armed.
pub trait Crashable {
    /// The traced NVM devices, in shard order.
    fn devices(&self) -> &[Nvm];
    /// Runs the plan, telling the oracle what it committed. A failure with
    /// no crash is a [`Check::Workload`] violation.
    fn drive(&mut self) -> Result<(), Finding>;
    /// Fails the power per `cut` and runs the application's own recovery.
    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding>;
    /// Checks the recovered state: internals, the persist-order
    /// [`audit`], then the oracle. Returns the state the oracle matched:
    /// per transaction in flight at the cut, in the oracle's order,
    /// whether it rolled forward.
    fn verify(&mut self) -> Result<Vec<bool>, Finding>;
    /// Adds the app's own counters to `report` once its run is over; none
    /// by default.
    fn tally(&self, _report: &mut CampaignReport) {}
    /// [`sweep`]'s checks of a run the trip never cut, after its
    /// [`tally`](Crashable::tally); none by default.
    fn completed(&mut self) -> Result<(), Finding> {
        Ok(())
    }
    /// Whether a further recovery must leave every persistent image
    /// byte-identical and store nothing but the commit records it
    /// annotates (the image and store clauses of [`run_one`]'s fixpoint
    /// check). An app whose recovery leaves work of its own for the next
    /// one returns `false`, and keeps only the read-back.
    fn stable_recovery(&self) -> bool {
        true
    }
}

/// A crash campaign: builds the app for a seed, with the trip and the cut
/// that seed draws. Its fields are the campaign's axes.
pub trait Plan {
    type App: Crashable;
    /// Names the campaign in violations.
    const NAME: &'static str;
    /// The fresh app for `seed`, its [`Trip`] and its [`Cut`], drawn from
    /// the seed in the campaign's fixed order, so every seed keeps them.
    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding>;
}

/// One crash experiment: arms `trip`, drives `app` until it returns (the
/// run completed) or the trip cuts it, and then fails the power per `cut`,
/// recovers and verifies. A recovered and verified run then checks that
/// recovery is a fixpoint — an interrupted operation resolves exactly
/// once, so a further recovery changes nothing. The power fails again with
/// nothing in flight ([`Cut::LoseVolatile`]) and the app recovers; every
/// device's persistent image is kept; the power fails and the app recovers
/// once more. The images must be byte-identical, the last recovery must
/// store nothing but the commit records it annotates — the ring close's
/// `Tail := Head` — and the app must verify again, to the state the first
/// verify matched ([`Check::Fixpoint`]). The reference image is a
/// recovery's own output, not the verified one: a verify's reads may move
/// a block within a cache (a read miss that evicts a clean block), which
/// the recovery after it may undo. An app may opt out of the image and
/// store clauses ([`Crashable::stable_recovery`]). A debug build checks
/// the fixpoint on the runs whose trip event is a multiple of 8, a subset
/// drawn with the trip from the seed; a release build on every run.
pub fn run_one(app: &mut impl Crashable, trip: Trip, cut: Cut<'_>) -> AppOutcome {
    quiet_crash_panics();
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
    let devices = app.devices().to_vec();
    devices[trip.dev].set_trip(Some(trip.at));
    let fixpoint_due = !cfg!(debug_assertions) || trip.at.is_multiple_of(DEBUG_FIXPOINT_STRIDE);
    match tripped(&devices, || app.drive()) {
        Some(verdict) => AppOutcome {
            crashed: false,
            verdict,
        },
        None => AppOutcome {
            crashed: true,
            verdict: app
                .recover(cut)
                .and_then(|()| app.verify())
                .and_then(|matched| {
                    if fixpoint_due {
                        fixpoint(app, &matched)
                    } else {
                        Ok(())
                    }
                }),
        },
    }
}

/// The stride of the runs a debug build checks for a recovery fixpoint
/// (see [`run_one`]), which keeps the campaigns' tier-1 pins fast.
const DEBUG_FIXPOINT_STRIDE: u64 = 8;

/// [`run_one`]'s fixpoint check of a recovered `app` whose verify matched
/// `first`.
fn fixpoint(app: &mut impl Crashable, first: &[bool]) -> Result<(), Finding> {
    let devices = app.devices().to_vec();
    let stable = app.stable_recovery();
    app.recover(Cut::LoseVolatile)?;
    let images: Vec<Vec<u8>> = if stable {
        devices.iter().map(persistent_image).collect()
    } else {
        Vec::new()
    };
    app.recover(Cut::LoseVolatile)?;
    for (s, (d, before)) in devices.iter().zip(&images).enumerate() {
        let after = persistent_image(d);
        if after != *before {
            let at = after.iter().zip(before).take_while(|(a, b)| a == b).count();
            return Err(Check::Fixpoint.found(format_args!(
                "device {s}: a further recovery changed the image at byte {at:#x}"
            )));
        }
    }
    if stable {
        for (s, d) in devices.iter().enumerate() {
            if let Some(store) = recovery_store(&d.trace_snapshot()) {
                return Err(Check::Fixpoint.found(format_args!(
                    "device {s}: a further recovery stored {store:?}"
                )));
            }
        }
    }
    let last = app.verify()?;
    if last != first {
        return Err(Check::Fixpoint.found(format_args!(
            "the in-flight transactions read rolled forward {first:?}, then {last:?}"
        )));
    }
    Ok(())
}

/// The whole persistent image of `d`.
fn persistent_image(d: &Nvm) -> Vec<u8> {
    let mut image = vec![0u8; d.capacity()];
    d.read_persistent(0, &mut image);
    image
}

/// The first store `trace` holds after its last crash that is not an 8 B
/// commit record the same recovery annotates.
fn recovery_store(trace: &[TracedOp]) -> Option<TraceEvent> {
    let since = trace
        .iter()
        .rposition(|op| op.event == TraceEvent::Crash)
        .map_or(0, |i| i + 1);
    let recovery = &trace[since..];
    let commits: HashSet<usize> = recovery
        .iter()
        .filter_map(|op| match op.event {
            TraceEvent::Commit { addr, len: 8 } => Some(addr),
            _ => None,
        })
        .collect();
    recovery
        .iter()
        .map(|op| &op.event)
        .find(|event| match **event {
            TraceEvent::AtomicStore { addr, len: 8 } => !commits.contains(&addr),
            TraceEvent::Store { .. } | TraceEvent::AtomicStore { .. } => true,
            _ => false,
        })
        .cloned()
}

/// Runs `plan` once per seed of `seeds` through [`run_one`]. A run counts
/// as a crash exactly when its trip fired.
pub fn sweep<P: Plan>(plan: &P, seeds: Range<u64>) -> CampaignReport {
    let mut report = CampaignReport::default();
    for seed in seeds {
        let (trip, outcome) = match plan.build(seed) {
            Ok((mut app, trip, cut)) => {
                let mut outcome = run_one(&mut app, trip, cut);
                app.tally(&mut report);
                if !outcome.crashed && outcome.verdict.is_ok() {
                    outcome.verdict = app.completed();
                }
                (Some(trip), outcome)
            }
            Err(e) => (None, not_built(e)),
        };
        report.record(P::NAME, seed, trip, outcome);
    }
    report
}

fn not_built(e: Finding) -> AppOutcome {
    AppOutcome {
        crashed: false,
        verdict: Err(e),
    }
}

/// Bounded exhaustive crash-state enumeration of `plan` at each seed of
/// `seeds`; the plan's trip and cut are not used. A probe run harvests
/// every device's fence epochs; epochs before the workload (format, mount)
/// are skipped. Each other epoch is replayed on a fresh build to its last
/// staged `clflush` and cut at every frontier ([`Cut::Frontier`]): all
/// `2^k` subsets of its `k` staged lines when that fits `cap_per_epoch`,
/// else a deterministic sample that keeps the empty and full ones. Each
/// crash state is one run of the report; a failed probe is one run with no
/// trip.
pub fn frontier<P: Plan>(plan: &P, seeds: Range<u64>, cap_per_epoch: usize) -> CampaignReport {
    let mut report = CampaignReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..CampaignReport::default()
    };
    for seed in seeds {
        let probe = plan.build(seed).and_then(|(mut app, _, _)| {
            let starts: Vec<u64> = app.devices().iter().map(|d| d.events()).collect();
            app.drive()?;
            let epochs: Vec<_> = app
                .devices()
                .iter()
                .map(|d| epochs_from_trace(&d.take_trace()))
                .collect();
            Ok((starts, epochs))
        });
        let (starts, epochs) = match probe {
            Ok(probe) => probe,
            Err(e) => {
                report.record(P::NAME, seed, None, not_built(e));
                continue;
            }
        };
        for (s, epochs) in epochs.iter().enumerate() {
            for (i, ep) in epochs.iter().enumerate() {
                if ep.trip_event <= starts[s] {
                    continue;
                }
                report.epochs_total += 1;
                let sub_seed = seed ^ ((s as u64) << 48) ^ ((i as u64) << 32);
                let (keeps, capped) = frontiers(&ep.staged, cap_per_epoch, sub_seed);
                if capped {
                    report.epochs_capped += 1;
                    telemetry::count("frontier.epochs.capped", 1);
                } else {
                    report.epochs_exhaustive += 1;
                }
                let trip = Trip {
                    dev: s,
                    at: ep.trip_event - starts[s],
                };
                for keep in keeps {
                    telemetry::count("frontier.states", 1);
                    let cut = Cut::Frontier {
                        dev: s,
                        keep: &keep,
                    };
                    let mut outcome = match plan.build(seed) {
                        Ok((mut app, _, _)) => run_one(&mut app, trip, cut),
                        Err(e) => not_built(e),
                    };
                    if !outcome.crashed && outcome.verdict.is_ok() {
                        outcome.verdict = Err(Check::Replay.found("the trip did not fire"));
                    }
                    outcome.verdict = outcome.verdict.map_err(|e| Finding {
                        detail: format!("epoch {i} keep {keep:?}: {}", e.detail),
                        ..e
                    });
                    report.record(P::NAME, seed, Some(trip), outcome);
                }
            }
        }
    }
    report
}

/// NVM bytes per shard of the campaigns' small pools.
pub const SHARD_BYTES: usize = 256 << 10;

/// The campaigns' small pool: a 4 KB ring per shard, everything else
/// default.
pub fn small_pool(shards: usize, commit_mode: CommitMode, delta_stage: bool) -> PoolConfig {
    PoolConfig {
        shards,
        commit_mode,
        cache: TincaConfig {
            ring_bytes: 4096,
            delta_stage,
            ..TincaConfig::default()
        },
    }
}

/// One scripted transaction: disjoint `(block, version)` writes.
pub(crate) type TxnSpec = Vec<(u64, u64)>;

/// Draws one scripted transaction of `n` writes, every script's one
/// shape: a block from `block`, redrawn until `taken` had not seen it,
/// then its version.
pub(crate) fn draw_txn(
    rng: &mut StdRng,
    n: usize,
    taken: &mut HashSet<u64>,
    mut block: impl FnMut(&mut StdRng) -> u64,
) -> TxnSpec {
    let mut spec = Vec::with_capacity(n);
    while spec.len() < n {
        let b = block(rng);
        if taken.insert(b) {
            spec.push((b, rng.gen_range(1..=255u8).into()));
        }
    }
    spec
}

/// The pool plans' random trip: shard `seed mod shards`, at an event
/// drawn from `1..4000`.
pub(crate) fn pool_trip(rng: &mut StdRng, seed: u64, shards: usize) -> Trip {
    Trip {
        dev: (seed % shards as u64) as usize,
        at: rng.gen_range(1..4_000u64),
    }
}

/// Where the power fails: persistence event `at` (counted from arming)
/// of device `dev`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trip {
    pub dev: usize,
    pub at: u64,
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trip {}@shard{}", self.at, self.dev)
    }
}

/// One formatted pool under test and everything needed to recover and
/// check it.
pub struct Rig {
    /// One traced device per shard.
    pub devices: Vec<Nvm>,
    /// The disk's clock, which is also the telemetry clock.
    pub clock: SimClock,
    /// The payloads the oracle's blocks read as: sparse under delta
    /// staging (a rewrite then skips lines and stores runs in both
    /// halves), dense otherwise.
    pub images: Images,
    disk: DynDisk,
    faulty: Option<Arc<FaultyDisk>>,
    cfg: PoolConfig,
    metadata: Vec<Vec<Range<usize>>>,
}

fn traced(bytes: usize) -> NvmConfig {
    NvmConfig::new(bytes, NvmTech::Pcm).with_tracing()
}

impl Rig {
    /// `cfg.shards` traced devices of `shard_bytes` each, every one on its
    /// own clock, over a plain SSD; returns the rig and the formatted
    /// pool.
    pub fn new(cfg: PoolConfig, shard_bytes: usize) -> (Rig, TincaPool) {
        let devices = shard_devices(&traced(cfg.shards * shard_bytes), cfg.shards);
        let clock = SimClock::new();
        telemetry::swap_clock(&clock);
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone());
        Rig::format(cfg, devices, disk, None, clock)
    }

    /// As [`new`](Self::new), with the disk wrapped in a [`FaultyDisk`]
    /// running `plan` and every device on the disk's clock, so fault
    /// latency and device time share one timeline.
    pub fn with_faults(cfg: PoolConfig, shard_bytes: usize, plan: FaultPlan) -> (Rig, TincaPool) {
        let clock = SimClock::new();
        telemetry::swap_clock(&clock);
        let devices = (0..cfg.shards)
            .map(|_| NvmDevice::new(traced(shard_bytes), clock.clone()))
            .collect();
        let faulty = FaultyDisk::new(SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone()), plan);
        Rig::format(cfg, devices, faulty.clone(), Some(faulty), clock)
    }

    fn format(
        cfg: PoolConfig,
        devices: Vec<Nvm>,
        disk: DynDisk,
        faulty: Option<Arc<FaultyDisk>>,
        clock: SimClock,
    ) -> (Rig, TincaPool) {
        let pool = TincaPool::format(devices.clone(), disk.clone(), cfg.clone());
        let metadata = (0..cfg.shards)
            .map(|s| pool.shard_metadata_ranges(s))
            .collect();
        let images = if cfg.cache.delta_stage {
            Images::Sparse
        } else {
            Images::Dense
        };
        let rig = Rig {
            devices,
            clock,
            images,
            disk,
            faulty,
            cfg,
            metadata,
        };
        (rig, pool)
    }

    /// Checks a live or recovered pool, with fault injection off so the
    /// reads observe state rather than perturb it: every shard's
    /// internals, the persist-order [`audit`] of everything traced since
    /// the last check, then `oracle` over blocks `0..blocks` (one never
    /// written reads zeroes: nothing refused, shed or torn leaked), whose
    /// verdict it returns.
    pub fn check(
        &self,
        pool: &TincaPool,
        oracle: &Blocks,
        blocks: u64,
    ) -> Result<Vec<bool>, Finding> {
        if let Some(faulty) = &self.faulty {
            faulty.set_enabled(false);
        }
        pool.check_consistency()
            .map_err(|e| Check::Internals.found(e))?;
        self.audit().verdict()?;
        oracle.judge(0..blocks, |&b, version| {
            let mut buf = [0u8; BLOCK_SIZE];
            pool.read_nocache(b, &mut buf)
                .map_err(|e| Check::Oracle.found(format_args!("block {b} unreadable: {e}")))?;
            Ok(buf == self.images.of(b, version.copied()))
        })
    }

    /// The persist-order [`audit`] of everything the devices traced since
    /// the last one.
    pub fn audit(&self) -> Audit {
        audit(&self.devices, &self.metadata)
    }

    /// Recovers the pool from what the devices hold.
    pub fn recover(&self) -> Result<TincaPool, TincaError> {
        TincaPool::recover(self.devices.clone(), self.disk.clone(), self.cfg.clone())
    }
}

/// What a pool app plays: its drive, and hooks for a run the trip never
/// cut and for the app's own counters.
pub trait Workload {
    /// Plays the plan on `pool`, telling `oracle` what it commits.
    fn play(&mut self, rig: &Rig, pool: &TincaPool, oracle: &mut Blocks) -> Result<(), Finding>;
    /// [`Crashable::completed`], on the pool the drive ran on.
    fn completed(&mut self, _: &Rig, _: &TincaPool, _: &Blocks) -> Result<(), Finding> {
        Ok(())
    }
    /// [`Crashable::tally`], off the pool the drive ran on.
    fn tally(&self, _: &TincaPool, _: &mut CampaignReport) {}
}

/// Scripted writers stepped by a [`Sched`]: writer `w` commits
/// `queues[w]` in order and idles through its `None` entries. A
/// transaction is in flight in the oracle from its reservation, or its
/// one-step commit, until it takes effect. A trip ends the run at once,
/// unless `survive`: then the writer it cut stops, the others run to
/// completion, and the trip unwinds again. (`survive` restarts the
/// schedule, so it suits one-step commits: a mutex pool.)
pub struct Writers {
    pub queues: Vec<Vec<Option<TxnSpec>>>,
    pub sched: Sched,
    pub survive: bool,
}

impl Writers {
    /// The plain script: one writer committing each transaction in turn.
    pub(crate) fn serial(plan: Vec<TxnSpec>) -> Writers {
        Writers {
            queues: vec![plan.into_iter().map(Some).collect()],
            sched: Sched {
                policy: Policy::Rounds,
            },
            survive: false,
        }
    }
}

/// [`Writers`]' [`Script`].
struct Queues<'a> {
    queues: Vec<std::slice::Iter<'a, Option<TxnSpec>>>,
    images: Images,
    oracle: &'a mut Blocks,
    /// Each writer's transaction, from its draw until it takes effect.
    current: Vec<Option<&'a TxnSpec>>,
}

impl Script for Queues<'_> {
    fn next(&mut self, w: usize, pool: &TincaPool) -> Option<Op> {
        let Some(spec) = self.queues[w].next()? else {
            return Some(Op::Idle);
        };
        self.current[w] = Some(spec);
        let txn = self.images.txn(pool, spec);
        let home = pool.shard_of(spec[0].0);
        if spec.iter().all(|&(b, _)| pool.shard_of(b) == home) {
            Some(Op::Commit(txn))
        } else {
            Some(Op::Spanning(txn))
        }
    }

    fn begin(&mut self, w: usize) {
        let spec = self.current[w].expect("a drawn transaction");
        self.oracle.begin(spec.iter().copied());
    }

    fn done(&mut self, w: usize) {
        let spec = self.current[w].take().expect("a drawn transaction");
        self.oracle.retire(spec.iter().copied());
    }
}

impl Workload for Writers {
    fn play(&mut self, rig: &Rig, pool: &TincaPool, oracle: &mut Blocks) -> Result<(), Finding> {
        let n = self.queues.len();
        let mut script = Queues {
            queues: self.queues.iter().map(|q| q.iter()).collect(),
            images: rig.images,
            oracle,
            current: vec![None; n],
        };
        let sched = self.sched;
        let Err(trip) = catch_unwind(AssertUnwindSafe(|| sched.run(pool, n, &mut script))) else {
            return Ok(());
        };
        if !self.survive || !trip.is::<CrashTripped>() {
            resume_unwind(trip);
        }
        for w in (0..n).filter(|&w| script.current[w].is_some()) {
            script.queues[w] = [].iter();
        }
        sched.run(pool, n, &mut script);
        resume_unwind(trip)
    }
}

/// A pool plan as a [`Crashable`]: the rig, the pool it formatted, the
/// oracle over its blocks `0..blocks`, and the workload that plays on the
/// pool.
pub struct PoolApp<W> {
    rig: Rig,
    /// The pool the drive ran on. A crash leaves it as the workload did,
    /// DRAM counters included; recovery builds a new one.
    pool: TincaPool,
    oracle: Blocks,
    blocks: u64,
    recovered: Option<TincaPool>,
    work: W,
}

impl<W: Workload> PoolApp<W> {
    pub(crate) fn new(rig: Rig, pool: TincaPool, blocks: u64, work: W) -> PoolApp<W> {
        PoolApp {
            rig,
            pool,
            oracle: Oracle::default(),
            blocks,
            recovered: None,
            work,
        }
    }

    /// A freshly formatted pool of `cfg` with [`SHARD_BYTES`] shards,
    /// whose oracle judges blocks `0..blocks`.
    pub(crate) fn fresh(cfg: &PoolConfig, blocks: u64, work: W) -> PoolApp<W> {
        let (rig, pool) = Rig::new(cfg.clone(), SHARD_BYTES);
        PoolApp::new(rig, pool, blocks, work)
    }
}

impl<W: Workload> Crashable for PoolApp<W> {
    fn devices(&self) -> &[Nvm] {
        &self.rig.devices
    }

    fn drive(&mut self) -> Result<(), Finding> {
        self.work.play(&self.rig, &self.pool, &mut self.oracle)
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        cut.apply(&self.rig.devices);
        let pool = self.rig.recover().map_err(|e| Check::Recovery.found(e))?;
        self.recovered = Some(pool);
        Ok(())
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        let pool = self.recovered.as_ref().expect("recovered pool");
        self.rig.check(pool, &self.oracle, self.blocks)
    }

    fn completed(&mut self) -> Result<(), Finding> {
        self.work.completed(&self.rig, &self.pool, &self.oracle)
    }

    fn tally(&self, report: &mut CampaignReport) {
        self.work.tally(&self.pool, report);
    }
}

/// The trip runner: runs `f` until it returns (`Some` of its result) or
/// an armed trip cuts it short (`None`, a [`CrashTripped`] unwind). Any
/// other panic propagates — a workload bug must fail the campaign, not
/// hide behind crash verification. Every device in `devices` is disarmed
/// afterwards.
pub fn tripped<R>(devices: &[Nvm], f: impl FnOnce() -> R) -> Option<R> {
    let outcome = catch_unwind(AssertUnwindSafe(f));
    for d in devices {
        d.set_trip(None);
    }
    match outcome {
        Ok(r) => Some(r),
        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => None,
        Err(p) => resume_unwind(p),
    }
}

/// How the power fails.
#[derive(Clone, Copy, Debug)]
pub enum Cut<'a> {
    /// Every device resolves its un-fenced write-back state
    /// adversarially, device `s` by `CrashPolicy::Random(seed ^ (s <<
    /// shift))`. Each campaign passes the seed and shift it has always
    /// used, so every seed keeps its cut.
    Random { seed: u64, shift: u32 },
    /// A process kill: DRAM is lost but the CPU caches drain, so
    /// everything stored reaches NVM.
    PersistAll,
    /// Every device loses everything not yet fenced.
    LoseVolatile,
    /// Device `dev` resolves its open fence epoch to exactly the staged
    /// lines `keep`; every other device loses its volatile state.
    Frontier { dev: usize, keep: &'a [usize] },
}

impl Cut<'_> {
    /// §5.1's two failure scenarios: a power pull is [`Cut::Random`]
    /// from `seed` (device `s` also mixes in `s << 17`), a process kill
    /// [`Cut::PersistAll`].
    pub fn of(mode: FailureMode, seed: u64) -> Cut<'static> {
        match mode {
            FailureMode::PowerPull => Cut::Random { seed, shift: 17 },
            FailureMode::ProcessKill => Cut::PersistAll,
        }
    }

    /// Fails the power on every device.
    pub fn apply(self, devices: &[Nvm]) {
        match self {
            Cut::Random { seed, shift } => {
                for (s, d) in devices.iter().enumerate() {
                    d.crash(CrashPolicy::Random(seed ^ ((s as u64) << shift)));
                }
            }
            Cut::PersistAll => devices
                .iter()
                .for_each(|d| d.crash(CrashPolicy::PersistAll)),
            Cut::LoseVolatile => devices
                .iter()
                .for_each(|d| d.crash(CrashPolicy::LoseVolatile)),
            Cut::Frontier { dev, keep } => {
                let keep: HashSet<usize> = keep.iter().copied().collect();
                devices[dev].crash_frontier(&keep);
                for (s, d) in devices.iter().enumerate() {
                    if s != dev {
                        d.crash(CrashPolicy::LoseVolatile);
                    }
                }
            }
        }
    }
}

/// The persist-order audit of everything `devices` traced since the last
/// audit: each shard's trace against its own `metadata` ranges, then,
/// with several shards, the merged pool-wide trace, its addresses and
/// ranges rebased by `s * capacity` — the spanning intent's
/// publish/resolve/retire stores on shard 0 must be ordered like any
/// other commit point.
pub fn audit(devices: &[Nvm], metadata: &[Vec<Range<usize>>]) -> Audit {
    let report = |ranges: Vec<Range<usize>>, trace: &[nvmsim::TracedOp]| {
        let mut checker = Checker::new(CheckConfig::with_metadata(ranges));
        checker.push_all(trace);
        checker.report()
    };
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    let shards: Vec<Report> = traces
        .iter()
        .zip(metadata)
        .map(|(trace, ranges)| report(ranges.clone(), trace))
        .collect();
    let merged = if devices.len() > 1 {
        let capacity = devices[0].capacity();
        let ranges = metadata
            .iter()
            .enumerate()
            .flat_map(|(s, ranges)| {
                ranges
                    .iter()
                    .map(move |r| r.start + s * capacity..r.end + s * capacity)
            })
            .collect();
        report(ranges, &merge_shard_traces(traces, capacity))
    } else {
        shards[0].clone()
    };
    Audit { shards, merged }
}

/// The reports of one [`audit`].
pub struct Audit {
    /// Each shard's report, in shard order.
    pub shards: Vec<Report>,
    /// The merged pool-wide trace's report. With one shard the shard's
    /// trace is the pool's, and this is its report.
    pub merged: Report,
}

impl Audit {
    /// Every view with its name: each shard, then, with several shards,
    /// the merged trace.
    pub fn views(&self) -> impl Iterator<Item = (String, &Report)> {
        let merged = (self.shards.len() > 1).then(|| ("merged trace".to_string(), &self.merged));
        self.shards
            .iter()
            .enumerate()
            .map(|(s, r)| (format!("shard {s}"), r))
            .chain(merged)
    }

    /// The audit as a verdict: a [`Check::PersistOrder`] finding naming
    /// the first correctness rule that fired, view by view.
    pub fn verdict(&self) -> Result<(), Finding> {
        self.views()
            .try_for_each(|(what, report)| match report.violations.first() {
                None => Ok(()),
                Some(v) => Err(Check::PersistOrder(v.rule).found(format_args!("{what}: {report}"))),
            })
    }
}

/// The payloads a campaign writes. Version `v` of block `b` is
/// [`of`](Self::of)`(b, Some(v))`; `None` is a block never written (the
/// disk's zeroes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Images {
    /// `[v; BLOCK_SIZE]`.
    Dense,
    /// Most lines constant per block and nonzero, `v` in two separate
    /// three-line runs, one in each half of the block, whose positions
    /// move with `v`: a delta-staged rewrite has lines to skip and lines
    /// to store in both halves, and every line of every version differs
    /// from a fresh device's zeroes, so a torn or never-persisted line
    /// anywhere shows in a byte-for-byte check.
    Sparse,
    /// [`write_payload`]`(b, v)`: `v` is the open-loop op's unique
    /// sequence number, so no two writes share an image.
    Stamped,
}

impl Images {
    /// Version `v` of block `b`.
    pub fn of(self, b: u64, v: Option<u64>) -> [u8; BLOCK_SIZE] {
        let Some(v) = v else {
            return [0; BLOCK_SIZE];
        };
        match self {
            Images::Dense => [v as u8; BLOCK_SIZE],
            Images::Stamped => write_payload(b, v),
            Images::Sparse => {
                let mut p = [0u8; BLOCK_SIZE];
                for (l, line) in p.chunks_exact_mut(CACHE_LINE).enumerate() {
                    line.fill((b as u8).wrapping_mul(31).wrapping_add(l as u8) | 1);
                }
                for start in [v as usize % 24, 32 + v as usize % 29] {
                    p[start * CACHE_LINE..(start + 3) * CACHE_LINE].fill(v as u8);
                }
                p
            }
        }
    }

    /// A pool transaction writing version `v` of every `(b, v)` in
    /// `writes`.
    pub fn txn(self, pool: &TincaPool, writes: &[(u64, u64)]) -> Txn {
        let mut t = pool.init_txn();
        for &(b, v) in writes {
            t.write(b, &self.of(b, Some(v)));
        }
        t
    }
}

/// What a store must hold after a crash: the durable value of every key,
/// and the transactions in flight when the power failed, each judged all
/// or nothing on its own. A transaction is its writes, and a `None` value
/// deletes its key. The pool plans key blocks by number, each value
/// a version of its [`Images`] payload; the FS plans key files by name,
/// each value its contents; kvdb keys its records.
#[derive(Clone, Debug, Default)]
pub struct Oracle<K, V> {
    durable: BTreeMap<K, V>,
    in_flight: Vec<BTreeMap<K, Option<V>>>,
}

/// The pool plans' oracle: each block's version.
pub(crate) type Blocks = Oracle<u64, u64>;

impl<K: Ord + Clone + fmt::Debug, V: Clone + PartialEq> Oracle<K, V> {
    /// The value of every key that must survive any crash.
    pub fn durable(&self) -> &BTreeMap<K, V> {
        &self.durable
    }

    /// A transaction of `writes` is in flight: from here until it commits,
    /// retires or aborts a cut may leave it all or nothing.
    pub fn begin(&mut self, writes: impl IntoIterator<Item = (K, V)>) {
        let txn = writes.into_iter().map(|(k, v)| (k, Some(v))).collect();
        self.in_flight.push(txn);
    }

    /// Adds a write to the newest transaction in flight, opening one if
    /// none is; it replaces that transaction's earlier write of `key`.
    pub fn stage(&mut self, key: K, value: Option<V>) {
        if self.in_flight.is_empty() {
            self.in_flight.push(BTreeMap::new());
        }
        let txn = self.in_flight.last_mut().expect("a transaction in flight");
        txn.insert(key, value);
    }

    /// Every transaction in flight returned: durable now.
    pub fn commit(&mut self) {
        for (k, v) in self.in_flight.drain(..).flatten() {
            match v {
                Some(v) => self.durable.insert(k, v),
                None => self.durable.remove(&k),
            };
        }
    }

    /// The in-flight transaction `writes` took effect on its own: durable
    /// now, while the others stay in flight.
    pub fn retire(&mut self, writes: impl IntoIterator<Item = (K, V)>) {
        let txn: BTreeMap<_, _> = writes.into_iter().map(|(k, v)| (k, Some(v))).collect();
        self.in_flight.retain(|t| *t != txn);
        self.durable
            .extend(txn.into_iter().filter_map(|(k, v)| Some((k, v?))));
    }

    /// Every transaction in flight ended without effect (a refused
    /// commit, a shed op).
    pub(crate) fn abort(&mut self) {
        self.in_flight.clear();
    }

    /// Judges a recovered store, which `holds` reads: whether it holds a
    /// value at a key (`None`: no value). Every key of `keys` or of the
    /// durable map that no in-flight transaction writes must hold its
    /// durable value. Each in-flight transaction must read wholly new or
    /// wholly old; a key whose new value is its durable one witnesses
    /// neither, but must hold it. Returns, per in-flight transaction,
    /// whether it read new — rolled forward. A passing judge accepts each
    /// key it reads after exactly one `holds` that returned `true`.
    pub fn judge(
        &self,
        keys: impl IntoIterator<Item = K>,
        mut holds: impl FnMut(&K, Option<&V>) -> Result<bool, Finding>,
    ) -> Result<Vec<bool>, Finding> {
        let fail = |detail: String| Err(Check::Oracle.found(detail));
        let open: BTreeSet<&K> = self.in_flight.iter().flatten().map(|(k, _)| k).collect();
        let settled: BTreeSet<K> = keys
            .into_iter()
            .chain(self.durable.keys().cloned())
            .collect();
        for k in settled.iter().filter(|k| !open.contains(k)) {
            if !holds(k, self.durable.get(k))? {
                return fail(format!("{k:?}: not its durable value"));
            }
        }
        let mut forward = Vec::with_capacity(self.in_flight.len());
        for (t, writes) in self.in_flight.iter().enumerate() {
            let (mut news, mut olds) = (Vec::new(), Vec::new());
            for (k, new) in writes {
                let (old, new) = (self.durable.get(k), new.as_ref());
                if old != new && holds(k, new)? {
                    news.push(k);
                } else if !holds(k, old)? {
                    return fail(format!("in-flight txn {t}: {k:?} is torn"));
                } else if old != new {
                    olds.push(k);
                }
            }
            if !news.is_empty() && !olds.is_empty() {
                return fail(format!(
                    "in-flight txn {t} not atomic: {news:?} read new, {olds:?} read old"
                ));
            }
            forward.push(!news.is_empty());
        }
        Ok(forward)
    }
}

/// Files: a write lands in the file's newest contents.
impl Oracle<String, Vec<u8>> {
    /// Stages `data` written at `offset` of the file `name`, which must
    /// exist; the file grows, zero-filled, to cover it.
    pub fn write_at(&mut self, name: &str, offset: u64, data: &[u8]) {
        let staged = self.in_flight.iter().rev().find_map(|t| t.get(name));
        let newest = staged.map_or(self.durable.get(name), Option::as_ref);
        let mut file = newest.expect("oracle: write to unknown file").clone();
        let end = offset as usize + data.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(data);
        self.stage(name.to_string(), Some(file));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An app that is cut at once, or fails its drive with no crash, and
    /// whose recovery fails.
    struct Scripted {
        devices: Vec<Nvm>,
        crashes: bool,
    }

    impl Crashable for Scripted {
        fn devices(&self) -> &[Nvm] {
            &self.devices
        }
        fn drive(&mut self) -> Result<(), Finding> {
            if self.crashes {
                resume_unwind(Box::new(CrashTripped { event: 1 }));
            }
            Err(Check::Workload.found("no crash, and no result"))
        }
        fn recover(&mut self, _: Cut<'_>) -> Result<(), Finding> {
            Err(Check::Recovery.found("boom"))
        }
        fn verify(&mut self) -> Result<Vec<bool>, Finding> {
            unreachable!("verify after a failed recovery")
        }
    }

    /// The plan: whether the app crashes.
    struct Crashes(bool);

    impl Plan for Crashes {
        type App = Scripted;
        const NAME: &'static str = "scripted";
        fn build(&self, _: u64) -> Result<(Scripted, Trip, Cut<'static>), Finding> {
            let device = NvmDevice::new(NvmConfig::new(4096, NvmTech::Pcm), SimClock::new());
            let app = Scripted {
                devices: vec![device],
                crashes: self.0,
            };
            Ok((app, Trip { dev: 0, at: 1 }, Cut::LoseVolatile))
        }
    }

    #[test]
    fn a_failed_drive_with_no_crash_is_a_completed_run() {
        let r = sweep(&Crashes(false), 3..4);
        assert_eq!((r.runs, r.completed, r.crashes), (1, 1, 0));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, Check::Workload);
    }

    #[test]
    fn recovery_failure_is_a_violation() {
        let r = sweep(&Crashes(true), 3..4);
        assert_eq!((r.runs, r.completed, r.crashes), (1, 0, 1));
        let v = &r.violations[0];
        assert_eq!(
            (v.trip, v.check),
            (Some(Trip { dev: 0, at: 1 }), Check::Recovery)
        );
        assert_eq!(
            v.to_string(),
            "scripted seed 3 trip 1@shard0: Recovery: boom"
        );
    }
}
