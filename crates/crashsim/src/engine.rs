//! The crash engine: the one trip → cut → recover → verify sequence every
//! campaign runs.
//!
//! An application — the FS stack, a kvdb personality, a pool and its
//! plan — implements [`Crashable`]; two drivers run the experiment on
//! it:
//!
//! * [`run_one`] — one trip: arm it, drive the app until it returns or
//!   the trip cuts it, and if it was cut, fail the power, recover and
//!   verify. The random sweeps run it once per seed, the directed ones
//!   once per chosen instant;
//! * [`frontier`] — bounded exhaustive enumeration: a probe run harvests
//!   every device's fence epochs, then every persist frontier of every
//!   epoch is replayed through [`run_one`] with [`Cut::Frontier`].
//!
//! The pieces they and the pool campaigns share are here too, once:
//!
//! * [`Rig`] — the traced shard devices, the disk (plain, or wrapped in a
//!   [`FaultyDisk`]), the [`PoolConfig`] and each shard's metadata ranges;
//!   it formats, recovers, audits and checks the pool;
//! * [`tripped`] — the trip runner: runs a driver until it returns or an
//!   armed trip cuts it, re-raises any other panic, disarms;
//! * [`Cut`] — how the power fails: adversarially on every device, a
//!   process kill, or one exact persist frontier of the tripped device;
//! * [`audit`] — the persist-order check of every shard's trace and of
//!   the merged pool-wide trace;
//! * [`BlockOracle`] — the payload images, the durable map and the
//!   in-flight transactions, judged after recovery;
//! * the report is [`crate::CampaignReport`], one outcome per seed an
//!   [`AppOutcome`] ([`FrontierReport`] per enumeration).

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use blockdev::{DiskKind, FaultPlan, FaultyDisk, SimDisk, BLOCK_SIZE};
use nvmsim::{
    merge_shard_traces, shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmDevice,
    NvmTech, SimClock, CACHE_LINE,
};
use persistcheck::{CheckConfig, Checker};
use tinca::{CommitMode, DynDisk, PoolConfig, TincaConfig, TincaError, TincaPool, Txn};
use workloads::openloop::write_payload;

use crate::app::AppOutcome;
use crate::frontier::{epochs_from_trace, frontiers};
use crate::{quiet_crash_panics, FailureMode, FrontierReport};

/// One application under the crash experiment. It is built fresh:
/// formatted, its plan rolled, no trip armed.
pub trait Crashable {
    /// The traced NVM devices, in shard order.
    fn devices(&self) -> &[Nvm];
    /// Runs the plan, telling the oracle what it committed. An error with
    /// no crash is a workload bug, and a violation.
    fn drive(&mut self) -> Result<(), String>;
    /// Fails the power per `cut` and runs the application's own recovery.
    fn recover(&mut self, cut: Cut<'_>) -> Result<(), String>;
    /// Checks the recovered state: internals, the persist-order
    /// [`audit`], then the oracle.
    fn verify(&mut self) -> Result<(), String>;
}

/// One crash experiment: arms `trip`, drives `app` until it returns (the
/// run completed) or the trip cuts it, and then fails the power per `cut`,
/// recovers and verifies.
pub fn run_one(app: &mut impl Crashable, trip: Trip, cut: Cut<'_>) -> AppOutcome {
    quiet_crash_panics();
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
    let devices = app.devices().to_vec();
    devices[trip.dev].set_trip(Some(trip.at));
    let verdict = match tripped(&devices, || app.drive()) {
        Some(Ok(())) => return AppOutcome::Completed,
        Some(Err(e)) => Err(e),
        None => app.recover(cut).and_then(|()| app.verify()),
    };
    match verdict {
        Ok(()) => AppOutcome::CrashedVerified,
        Err(e) => AppOutcome::Violation(e),
    }
}

/// Bounded exhaustive crash-state enumeration of the app `build` makes. A
/// probe run harvests every device's fence epochs; epochs before the
/// workload (format, mount) are skipped. Each other epoch is replayed on
/// a fresh build to its last staged `clflush` and cut at every frontier
/// ([`Cut::Frontier`]): all `2^k` subsets of its `k` staged lines when
/// that fits `cap_per_epoch`, else a deterministic sample that keeps the
/// empty and full ones. `site` names the device in violations (`"seed S
/// shard D epoch I …"`); `None` omits it, for one-device apps.
pub fn frontier<A: Crashable>(
    build: impl Fn() -> Result<A, String>,
    seed: u64,
    cap_per_epoch: usize,
    site: Option<&str>,
) -> FrontierReport {
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let probe = build().and_then(|mut app| {
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
            report.violations.push(format!("probe: {e}"));
            return report;
        }
    };
    for (s, epochs) in epochs.iter().enumerate() {
        for (i, ep) in epochs.iter().enumerate() {
            if ep.trip_event <= starts[s] {
                report.epochs_skipped_setup += 1;
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
                report.states_run += 1;
                telemetry::count("frontier.states", 1);
                let cut = Cut::Frontier {
                    dev: s,
                    keep: &keep,
                };
                let e = match build().map(|mut app| run_one(&mut app, trip, cut)) {
                    Ok(AppOutcome::CrashedVerified) => continue,
                    Ok(AppOutcome::Completed) => {
                        "trip did not fire on replay (workload not deterministic?)".into()
                    }
                    Ok(AppOutcome::Violation(e)) | Err(e) => e,
                };
                let at = match site {
                    Some(site) => format!("{site} {s} epoch {i}"),
                    None => format!("epoch {i}"),
                };
                report.violations.push(format!(
                    "seed {seed} {at} trip {} keep {keep:?}: {e}",
                    ep.trip_event
                ));
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

/// Where the power fails: persistence event `at` (counted from arming)
/// of device `dev`.
#[derive(Clone, Copy, Debug)]
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
        let rig = Rig {
            devices,
            clock,
            disk,
            faulty,
            cfg,
            metadata,
        };
        (rig, pool)
    }

    /// An oracle over blocks `0..blocks` with the images this pool's
    /// configuration calls for: sparse under delta staging (a rewrite
    /// then skips lines and stores runs in both halves), dense otherwise.
    pub fn oracle(&self, blocks: u64) -> BlockOracle {
        let images = if self.cfg.cache.delta_stage {
            Images::Sparse
        } else {
            Images::Dense
        };
        BlockOracle::new(images, blocks)
    }

    /// Checks a live or recovered pool, with fault injection off so the
    /// reads observe state rather than perturb it: every shard's
    /// internals, the persist-order [`audit`] of everything traced since
    /// the last check, then `oracle`.
    pub fn check(&self, pool: &TincaPool, oracle: &BlockOracle) -> Result<(), String> {
        if let Some(faulty) = &self.faulty {
            faulty.set_enabled(false);
        }
        pool.check_consistency()
            .map_err(|e| format!("inconsistent internals: {e}"))?;
        self.audit()?;
        oracle.check(pool)
    }

    /// The persist-order [`audit`] of everything the devices traced since
    /// the last one.
    pub fn audit(&self) -> Result<(), String> {
        audit(&self.devices, &self.metadata)
    }

    /// Recovers the pool from what the devices hold.
    pub fn recover(&self) -> Result<TincaPool, TincaError> {
        TincaPool::recover(self.devices.clone(), self.disk.clone(), self.cfg.clone())
    }
}

/// A pool campaign as a [`Crashable`]: the rig, the pool it formatted, the
/// oracle, and the campaign's drive, which plays the plan on the pool and
/// tells the oracle what it commits.
pub(crate) struct PoolApp<D> {
    pub rig: Rig,
    /// The pool the drive ran on. A crash leaves it as the workload did,
    /// DRAM counters included; recovery builds a new one.
    pub pool: TincaPool,
    pub oracle: BlockOracle,
    recovered: Option<TincaPool>,
    drive: D,
}

impl<D> PoolApp<D>
where
    D: FnMut(&Rig, &TincaPool, &mut BlockOracle) -> Result<(), String>,
{
    pub fn new(rig: Rig, pool: TincaPool, oracle: BlockOracle, drive: D) -> PoolApp<D> {
        PoolApp {
            rig,
            pool,
            oracle,
            recovered: None,
            drive,
        }
    }

    /// A freshly formatted pool of `cfg` with [`SHARD_BYTES`] shards, and
    /// an oracle over blocks `0..blocks` with the images `cfg` calls for.
    pub fn fresh(cfg: &PoolConfig, blocks: u64, drive: D) -> PoolApp<D> {
        let (rig, pool) = Rig::new(cfg.clone(), SHARD_BYTES);
        let oracle = rig.oracle(blocks);
        PoolApp::new(rig, pool, oracle, drive)
    }
}

impl<D> Crashable for PoolApp<D>
where
    D: FnMut(&Rig, &TincaPool, &mut BlockOracle) -> Result<(), String>,
{
    fn devices(&self) -> &[Nvm] {
        &self.rig.devices
    }

    fn drive(&mut self) -> Result<(), String> {
        (self.drive)(&self.rig, &self.pool, &mut self.oracle)
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), String> {
        cut.apply(&self.rig.devices);
        let pool = self.rig.recover();
        self.recovered = Some(pool.map_err(|e| format!("recovery failed: {e}"))?);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let pool = self.recovered.as_ref().expect("recovered pool");
        self.rig.check(pool, &self.oracle)
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
/// with several shards, the merged pool-wide trace — the spanning
/// intent's publish/resolve/retire stores on shard 0 must be ordered like
/// any other commit point.
pub fn audit(devices: &[Nvm], metadata: &[Vec<Range<usize>>]) -> Result<(), String> {
    let check = |ranges: Vec<Range<usize>>, trace: &[nvmsim::TracedOp]| {
        let mut checker = Checker::new(CheckConfig::with_metadata(ranges));
        checker.push_all(trace);
        let report = checker.report();
        if report.is_clean() {
            Ok(())
        } else {
            Err(report.to_string())
        }
    };
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    for (s, trace) in traces.iter().enumerate() {
        check(metadata[s].clone(), trace)
            .map_err(|r| format!("shard {s} persist-order violation: {r}"))?;
    }
    if devices.len() > 1 {
        let capacity = devices[0].capacity();
        let merged = metadata
            .iter()
            .enumerate()
            .flat_map(|(s, ranges)| {
                ranges
                    .iter()
                    .map(move |r| r.start + s * capacity..r.end + s * capacity)
            })
            .collect();
        check(merged, &merge_shard_traces(traces, capacity))
            .map_err(|r| format!("merged-trace persist-order violation: {r}"))?;
    }
    Ok(())
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

/// What blocks `0..blocks` must hold: the durable version of each, plus
/// the transactions in flight when the power failed, each judged
/// all-or-nothing on its own.
#[derive(Clone, Debug)]
pub struct BlockOracle {
    images: Images,
    blocks: u64,
    durable: HashMap<u64, u64>,
    in_flight: Vec<Vec<(u64, u64)>>,
}

impl BlockOracle {
    pub fn new(images: Images, blocks: u64) -> BlockOracle {
        BlockOracle {
            images,
            blocks,
            durable: HashMap::new(),
            in_flight: Vec::new(),
        }
    }

    pub fn images(&self) -> Images {
        self.images
    }

    /// `writes` is in flight: from here until [`commit`](Self::commit)
    /// or [`abort`](Self::abort) a cut may leave it all or nothing.
    pub fn begin(&mut self, writes: &[(u64, u64)]) {
        assert!(writes.iter().all(|&(b, _)| b < self.blocks));
        self.in_flight.push(writes.to_vec());
    }

    /// Every transaction in flight returned: durable now.
    pub fn commit(&mut self) {
        for (b, v) in self.in_flight.drain(..).flatten() {
            self.durable.insert(b, v);
        }
    }

    /// Every transaction in flight ended without effect (a refused
    /// commit, a shed op).
    pub fn abort(&mut self) {
        self.in_flight.clear();
    }

    /// The durable image of block `b`.
    pub fn durable_image(&self, b: u64) -> [u8; BLOCK_SIZE] {
        self.images.of(b, self.durable.get(&b).copied())
    }

    /// Commits each transaction of `plan` in turn, in flight until the
    /// commit returns.
    pub fn commit_each(&mut self, pool: &TincaPool, plan: &[TxnSpec]) {
        for writes in plan {
            self.begin(writes);
            pool.commit(self.images.txn(pool, writes))
                .expect("scripted commit");
            self.commit();
        }
    }

    /// Reads every block back. A block no in-flight transaction touches
    /// must hold its durable version (zeroes if never written: nothing
    /// refused, shed or torn leaked). Each in-flight transaction must
    /// read wholly new or wholly old; a block whose new version equals
    /// its durable one witnesses neither, but must read that version.
    pub fn check(&self, pool: &TincaPool) -> Result<(), String> {
        let read = |b: u64| {
            let mut buf = [0u8; BLOCK_SIZE];
            pool.read_nocache(b, &mut buf)
                .map(|()| buf)
                .map_err(|e| format!("block {b} unreadable: {e}"))
        };
        let open: HashSet<u64> = self.in_flight.iter().flatten().map(|&(b, _)| b).collect();
        for b in (0..self.blocks).filter(|b| !open.contains(b)) {
            let want = self.durable.get(&b).copied();
            if read(b)? != self.images.of(b, want) {
                return Err(format!("block {b}: not its durable version {want:?}"));
            }
        }
        for (t, writes) in self.in_flight.iter().enumerate() {
            let (mut news, mut olds) = (Vec::new(), Vec::new());
            for &(b, v) in writes {
                let old = self.durable.get(&b).copied();
                let got = read(b)?;
                let torn = if old == Some(v) {
                    got != self.images.of(b, old)
                } else if got == self.images.of(b, Some(v)) {
                    news.push(b);
                    false
                } else {
                    olds.push(b);
                    got != self.images.of(b, old)
                };
                if torn {
                    return Err(format!("in-flight txn {t} block {b} is torn"));
                }
            }
            if !news.is_empty() && !olds.is_empty() {
                return Err(format!(
                    "in-flight txn {t} not atomic: blocks {news:?} read new, {olds:?} read old"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted {
        devices: Vec<Nvm>,
        crashes: bool,
        recover: Result<(), String>,
    }

    impl Crashable for Scripted {
        fn devices(&self) -> &[Nvm] {
            &self.devices
        }
        fn drive(&mut self) -> Result<(), String> {
            if self.crashes {
                resume_unwind(Box::new(CrashTripped { event: 1 }));
            }
            Ok(())
        }
        fn recover(&mut self, _: Cut<'_>) -> Result<(), String> {
            self.recover.clone()
        }
        fn verify(&mut self) -> Result<(), String> {
            Err("verify must not run".into())
        }
    }

    fn scripted(crashes: bool, recover: Result<(), String>) -> AppOutcome {
        let device = NvmDevice::new(NvmConfig::new(4096, NvmTech::Pcm), SimClock::new());
        let mut app = Scripted {
            devices: vec![device],
            crashes,
            recover,
        };
        run_one(&mut app, Trip { dev: 0, at: 1 }, Cut::LoseVolatile)
    }

    #[test]
    fn completed_skips_recovery() {
        let recover = Err("recovery must not run".into());
        assert_eq!(scripted(false, recover), AppOutcome::Completed);
    }

    #[test]
    fn recovery_failure_is_a_violation() {
        let outcome = scripted(true, Err("boom".into())).tagged("seed 3");
        assert_eq!(outcome, AppOutcome::Violation("seed 3: boom".into()));
    }

    #[test]
    fn sparse_images_change_runs_in_both_halves_and_hold_no_zero_line() {
        let of = |b, v| Images::Sparse.of(b, Some(v));
        assert_eq!(Images::Dense.of(7, Some(9)), [9u8; BLOCK_SIZE]);
        assert_eq!(Images::Sparse.of(7, None), [0u8; BLOCK_SIZE]);
        let (a, b) = (of(7, 9), of(7, 200));
        assert!(a.iter().all(|&x| x != 0));
        let changed: Vec<usize> = (0..BLOCK_SIZE / CACHE_LINE)
            .filter(|l| a[l * CACHE_LINE..][..CACHE_LINE] != b[l * CACHE_LINE..][..CACHE_LINE])
            .collect();
        assert_eq!(changed, [8, 9, 10, 11, 41, 42, 43, 58, 59, 60]);
        assert_ne!(of(7, 9), of(8, 9));
    }
}
