//! Bounded exhaustive crash-state enumeration.
//!
//! The random trip sweep ([`crate::fuzz`], [`crate::poolfuzz`]) samples one
//! crash instant and one write-back resolution per seed. This module
//! *enumerates* instead: a probe run records the full event trace of a
//! scripted workload, every fence epoch (the staged lines between two
//! consecutive `sfence`s) is extracted, and for each epoch every reachable
//! **persist frontier** — every subset of the epoch's staged lines — is
//! materialised with [`nvmsim::NvmDevice::crash_frontier`], recovered, and
//! verified against the oracle. For small scripts this subsumes the random
//! sweep: any crash state `CrashPolicy::Random` can produce at line
//! granularity is one of the enumerated frontiers.
//!
//! Epochs with more than `log2(cap_per_epoch)` staged lines are sampled
//! instead of enumerated (the empty and full frontiers are always
//! included); the report counts those epochs so a capped run is never
//! mistaken for an exhaustive one.
//!
//! Three campaigns are provided:
//!
//! * [`frontier_fs_campaign`] — the single-threaded FS stack, replaying
//!   the same scripts as [`crate::fuzz`];
//! * [`pool_frontier_campaign`] — a genuinely multi-threaded pool
//!   workload: one OS thread per shard (blocks ≡ thread mod shards keep
//!   every shard single-writer and its event stream deterministic), the
//!   spawn handoff annotated with release/acquire sync events so the
//!   persistrace rules audit each shard's trace without false positives;
//! * [`spanning_frontier_campaign`] — a single-threaded stream of
//!   transactions that each touch **every** shard, so each commit runs
//!   the pool's two-phase spanning protocol. Epochs are enumerated on
//!   every device in turn, which lands crashes inside the intent publish,
//!   between fragment prepares, around the resolve store, and during
//!   window retirement; recovery must make each transaction
//!   all-or-nothing across all shards at every frontier.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{Disk, DiskKind, SimDisk, BLOCK_SIZE};
use fssim::stack::{StackConfig, System};
use nvmsim::{
    merge_shard_traces, shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmTech, SimClock,
};
use nvmsim::{TraceEvent, TracedOp};
use persistcheck::{CheckConfig, Checker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{PoolConfig, TincaConfig, TincaPool};

use crate::fuzz::{apply, script};
use crate::poolfuzz::image;
use crate::{quiet_crash_panics, CrashHarness, FsOracle};

/// Aggregate over a frontier-enumeration campaign.
#[derive(Clone, Debug, Default)]
pub struct FrontierReport {
    /// Per-epoch crash-state budget the campaign ran with.
    pub cap_per_epoch: usize,
    /// Fence epochs found in the workload window of the probe trace.
    pub epochs_total: u64,
    /// Epochs whose frontier set was enumerated exhaustively (2^k ≤ cap).
    pub epochs_exhaustive: u64,
    /// Epochs that exceeded the cap and were deterministically sampled
    /// (empty + full frontiers always included).
    pub epochs_capped: u64,
    /// Epochs before the workload window (stack format/mount) — skipped.
    pub epochs_skipped_setup: u64,
    /// Crash states materialised, recovered, and verified.
    pub states_run: u64,
    pub violations: Vec<String>,
}

impl FrontierReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for FrontierReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} epochs ({} exhaustive, {} capped at {} states), {} crash states, {} violations",
            self.epochs_total,
            self.epochs_exhaustive,
            self.epochs_capped,
            self.cap_per_epoch,
            self.states_run,
            self.violations.len()
        )
    }
}

/// One fence epoch reconstructed from a probe trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FenceEpoch {
    /// Staged lines, in first-staging order, deduplicated.
    pub staged: Vec<usize>,
    /// Absolute persistence-event ordinal of the epoch's **last staged
    /// clflush**. Tripping there crashes with the whole epoch staged but
    /// not yet fenced (events fire after the instruction takes effect, so
    /// tripping at the `sfence` itself would be one event too late).
    pub trip_event: u64,
}

/// Walks a trace and reconstructs every fence epoch that staged at least
/// one line, mirroring the device's persistence-event counter: each
/// `clflush` *line*, each `sfence`, and each atomic store bumps it; plain
/// stores and sync annotations do not.
pub fn epochs_from_trace(ops: &[TracedOp]) -> Vec<FenceEpoch> {
    let mut out = Vec::new();
    let mut event = 0u64;
    let mut staged: Vec<usize> = Vec::new();
    let mut last_staged_event = 0u64;
    for op in ops {
        match op.event {
            TraceEvent::Clflush { line, staged: s } => {
                event += 1;
                if s {
                    if !staged.contains(&line) {
                        staged.push(line);
                    }
                    last_staged_event = event;
                }
            }
            TraceEvent::Sfence { .. } => {
                event += 1;
                if !staged.is_empty() {
                    out.push(FenceEpoch {
                        staged: std::mem::take(&mut staged),
                        trip_event: last_staged_event,
                    });
                }
            }
            TraceEvent::AtomicStore { .. } => event += 1,
            TraceEvent::Crash => staged.clear(),
            _ => {}
        }
    }
    out
}

/// The frontiers to run for one epoch: all `2^k` line subsets when that
/// fits the cap, else a deterministic sample (always containing the empty
/// and full frontiers). Returns `(frontiers, capped)`.
fn frontiers(staged: &[usize], cap: usize, seed: u64) -> (Vec<Vec<usize>>, bool) {
    let k = staged.len();
    let cap = cap.max(2);
    if k < usize::BITS as usize - 1 && (1usize << k) <= cap {
        let all = (0..1u64 << k)
            .map(|mask| {
                staged
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .collect()
            })
            .collect();
        return (all, false);
    }
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut sorted_full: Vec<usize> = staged.to_vec();
    sorted_full.sort_unstable();
    seen.insert(Vec::new());
    seen.insert(sorted_full);
    let mut rng = StdRng::seed_from_u64(seed);
    // Bounded attempts: duplicates are discarded, and an epoch this large
    // always has far more than `cap` distinct subsets.
    for _ in 0..cap * 16 {
        if seen.len() >= cap {
            break;
        }
        let mut s: Vec<usize> = staged.iter().copied().filter(|_| rng.gen()).collect();
        s.sort_unstable();
        seen.insert(s);
    }
    (seen.into_iter().collect(), true)
}

/// The shared frontier-enumeration loop: for each device's probe-harvested
/// fence epochs, skips setup epochs, enumerates (or samples) each epoch's
/// frontiers, and calls `run_state(device, rel_trip, keep)` once per crash
/// state — which must replay the workload to `rel_trip` events past the
/// device's start, crash at exactly `keep`, recover, and verify.
///
/// `site` labels the device index in violation strings (`Some("shard")` →
/// `"seed S shard D epoch I …"`; `None` omits it, for single-device
/// campaigns). All three built-in campaigns and the kvdb frontier
/// campaigns run through this loop.
pub fn frontier_enumerate<F>(
    seed: u64,
    cap_per_epoch: usize,
    epochs_per_dev: &[Vec<FenceEpoch>],
    starts: &[u64],
    site: Option<&str>,
    mut run_state: F,
) -> FrontierReport
where
    F: FnMut(usize, u64, &[usize]) -> Result<(), String>,
{
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    for (s, epochs) in epochs_per_dev.iter().enumerate() {
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
            for keep in keeps {
                report.states_run += 1;
                telemetry::count("frontier.states", 1);
                if let Err(e) = run_state(s, ep.trip_event - starts[s], &keep) {
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
    }
    report
}

// ---------------------------------------------------------------------------
// FS campaign (single-threaded stack, same scripts as the random fuzzer)
// ---------------------------------------------------------------------------

/// Enumerates crash frontiers for one seeded FS script against `system`.
///
/// A probe run traces the complete workload once; every fence epoch in the
/// workload window is then re-run to its last staged `clflush`, crashed at
/// each enumerated frontier, recovered, and verified against the oracle
/// (all-or-nothing visibility plus persist-order cleanliness).
pub fn frontier_fs_campaign(
    system: System,
    seed: u64,
    steps: usize,
    cap_per_epoch: usize,
) -> FrontierReport {
    quiet_crash_panics();
    let mut cfg = StackConfig::tiny(system);
    cfg.txn_block_limit = 100_000; // commits only at explicit fsync
    let plan = {
        let mut rng = StdRng::seed_from_u64(seed);
        script(&mut rng, steps, 12)
    };

    // Probe: run the whole script once, untripped, and harvest the epochs.
    let (epochs, start_events) = {
        let mut probe = CrashHarness::new(cfg.clone());
        telemetry::swap_clock(&probe.stack().clock);
        let start = probe.events();
        let mut oracle = FsOracle::new();
        probe.run(|fs| {
            for step in &plan {
                apply(fs, &mut oracle, step);
            }
        });
        (epochs_from_trace(&probe.stack().nvm.take_trace()), start)
    };

    frontier_enumerate(
        seed,
        cap_per_epoch,
        &[epochs],
        &[start_events],
        None,
        |_, rel_trip, keep| run_fs_state(&cfg, &plan, rel_trip, keep),
    )
}

/// One crash state: replay to the epoch's trip, crash at exactly `keep`,
/// remount, verify.
fn run_fs_state(
    cfg: &StackConfig,
    plan: &[crate::fuzz::Step],
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let mut harness = CrashHarness::new(cfg.clone());
    telemetry::swap_clock(&harness.stack().clock);
    let mut oracle = FsOracle::new();
    let crashed = {
        let oracle = &mut oracle;
        harness.run_with_trip(rel_trip, move |fs| {
            for step in plan {
                apply(fs, oracle, step);
            }
        })
    };
    if !crashed {
        return Err("trip did not fire on replay (workload not deterministic?)".into());
    }
    let keep_set: HashSet<usize> = keep.iter().copied().collect();
    harness.crash_frontier_and_remount(&keep_set);
    harness.verify(&oracle).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Pool campaign (one OS thread per shard)
// ---------------------------------------------------------------------------

/// One scripted transaction: disjoint (block, fill) writes on one shard.
type TxnSpec = Vec<(u64, u8)>;

/// Worker trace-thread ids start here, far above any lazily assigned id.
const WORKER_TRACE_BASE: u32 = 1000;
/// Sync-object id for the spawn handoff of shard `s` is `HANDOFF_OBJ + s`.
const HANDOFF_OBJ: u64 = 0x5F00;

fn fill(v: u8) -> [u8; BLOCK_SIZE] {
    [v; BLOCK_SIZE]
}

/// Per-thread script: thread `t` of `shards` only touches blocks
/// ≡ `t` (mod `shards`), so each shard has exactly one writer and its
/// device event stream is deterministic under any thread interleaving.
fn thread_script(
    rng: &mut StdRng,
    txns: usize,
    blocks: u64,
    shards: u64,
    thread: u64,
) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let n = rng.gen_range(1..=2usize);
            let mut spec: TxnSpec = Vec::with_capacity(n);
            while spec.len() < n {
                let b = rng.gen_range(0..blocks / shards) * shards + thread;
                if spec.iter().all(|(x, _)| *x != b) {
                    spec.push((b, rng.gen_range(1..=255)));
                }
            }
            spec
        })
        .collect()
}

fn build_pool(shards: usize, delta_stage: bool) -> (Vec<Nvm>, Disk, PoolConfig) {
    let nvm_cfg = NvmConfig::new(shards * (256 << 10), NvmTech::Pcm).with_tracing();
    let devices = shard_devices(&nvm_cfg, shards);
    let clock = SimClock::new();
    telemetry::swap_clock(&clock);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let pool_cfg = PoolConfig {
        shards,
        cache: TincaConfig {
            ring_bytes: 4096,
            delta_stage,
            ..TincaConfig::default()
        },
        ..PoolConfig::default()
    };
    (devices, disk, pool_cfg)
}

/// Runs one OS thread per plan against the shared pool. Thread `i` owns
/// shard `i`. Returns per-thread `(committed, crashed)`; any panic other
/// than the armed [`CrashTripped`] propagates.
fn run_pool_threads(
    pool: &TincaPool,
    devices: &[Nvm],
    plans: &[Vec<TxnSpec>],
) -> Vec<(usize, bool)> {
    // Annotate the spawn handoff: the spawning thread releases, each
    // worker acquires, giving the race rules the happens-before edge the
    // real `thread::scope` spawn provides.
    for (s, d) in devices.iter().enumerate() {
        d.note_atomic_store_release(HANDOFF_OBJ + s as u64);
    }
    std::thread::scope(|sc| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let device = &devices[i];
                sc.spawn(move || {
                    nvmsim::set_trace_thread(WORKER_TRACE_BASE + i as u32);
                    device.note_atomic_load_acquire(HANDOFF_OBJ + i as u64);
                    let mut committed = 0usize;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        for spec in plan {
                            let mut t = pool.init_txn();
                            for (b, v) in spec {
                                t.write(*b, &fill(*v));
                            }
                            pool.commit(t).expect("frontier commit");
                            committed += 1;
                        }
                    }));
                    let crashed = match outcome {
                        Ok(()) => false,
                        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => true,
                        Err(p) => std::panic::resume_unwind(p),
                    };
                    (committed, crashed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("frontier worker"))
            .collect()
    })
}

/// Enumerates crash frontiers for a multi-threaded pool workload: one OS
/// thread per shard commits its own transaction stream; each shard's
/// fence epochs are enumerated in turn, the crash landing mid-commit on
/// that shard while the other threads run to completion.
pub fn pool_frontier_campaign(
    shards: usize,
    seed: u64,
    txns_per_thread: usize,
    cap_per_epoch: usize,
) -> FrontierReport {
    quiet_crash_panics();
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let blocks = 96u64;
    let plans: Vec<Vec<TxnSpec>> = (0..shards)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64 + 1) << 8));
            thread_script(&mut rng, txns_per_thread, blocks, shards as u64, t as u64)
        })
        .collect();

    // Probe: full run, no trip. Each shard is single-writer, so its event
    // stream (and thus each epoch's trip ordinal) is replay-stable.
    let (epochs_per_shard, starts) = {
        let (devices, disk, pool_cfg) = build_pool(shards, false);
        let pool = TincaPool::format(devices.clone(), disk, pool_cfg);
        let starts: Vec<u64> = devices.iter().map(|d| d.events()).collect();
        let results = run_pool_threads(&pool, &devices, &plans);
        drop(pool);
        if let Some((t, _)) = results.iter().enumerate().find(|(_, (_, c))| *c) {
            report.violations.push(format!(
                "probe run crashed on thread {t} with no trip armed"
            ));
            return report;
        }
        let epochs: Vec<Vec<FenceEpoch>> = devices
            .iter()
            .map(|d| epochs_from_trace(&d.take_trace()))
            .collect();
        (epochs, starts)
    };

    frontier_enumerate(
        seed,
        cap_per_epoch,
        &epochs_per_shard,
        &starts,
        Some("shard"),
        |s, rel_trip, keep| run_pool_state(shards, &plans, s, rel_trip, keep),
    )
}

/// One pool crash state: replay, trip shard `trip_shard` at `rel_trip`,
/// resolve its open epoch to exactly `keep` (other shards lose volatile
/// state), recover, verify.
fn run_pool_state(
    shards: usize,
    plans: &[Vec<TxnSpec>],
    trip_shard: usize,
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let (devices, disk, pool_cfg) = build_pool(shards, false);
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
    let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
    devices[trip_shard].set_trip(Some(rel_trip));
    let results = run_pool_threads(&pool, &devices, plans);
    devices[trip_shard].set_trip(None);
    drop(pool);

    if !results[trip_shard].1 {
        return Err("trip did not fire on replay (shard stream not deterministic?)".into());
    }
    if let Some((t, _)) = results
        .iter()
        .enumerate()
        .find(|(t, (_, c))| *c && *t != trip_shard)
    {
        return Err(format!(
            "thread {t} crashed but the trip was on shard {trip_shard}"
        ));
    }

    let keep_set: HashSet<usize> = keep.iter().copied().collect();
    devices[trip_shard].crash_frontier(&keep_set);
    for (s, d) in devices.iter().enumerate() {
        if s != trip_shard {
            d.crash(CrashPolicy::LoseVolatile);
        }
    }
    let pool = TincaPool::recover(devices.clone(), disk, pool_cfg)
        .map_err(|e| format!("recovery failed: {e}"))?;
    verify_pool(&pool, &devices, &metadata_ranges, plans, &results)
}

fn verify_pool(
    pool: &TincaPool,
    devices: &[Nvm],
    metadata_ranges: &[Vec<std::ops::Range<usize>>],
    plans: &[Vec<TxnSpec>],
    results: &[(usize, bool)],
) -> Result<(), String> {
    // 1. Internal invariants of every shard.
    pool.check_consistency()
        .map_err(|e| format!("inconsistent internals: {e}"))?;

    // 2. Every shard's full multi-thread trace passes the analyzer —
    //    including the concurrency rules (persist-race, unordered-commit,
    //    cross-thread-flush-dependency).
    for (s, d) in devices.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(metadata_ranges[s].clone()));
        checker.push_all(&d.take_trace());
        let rep = checker.report();
        if !rep.is_clean() {
            return Err(format!("shard {s} analyzer violation: {rep}"));
        }
    }

    // 3. Committed transactions are durable; the tripped thread's
    //    in-flight transaction (single-shard by construction) is
    //    all-or-nothing.
    let mut durable: HashMap<u64, u8> = HashMap::new();
    let mut in_flight: Option<&TxnSpec> = None;
    for (t, plan) in plans.iter().enumerate() {
        let (committed, crashed) = results[t];
        for spec in &plan[..committed] {
            for &(b, v) in spec {
                durable.insert(b, v);
            }
        }
        if crashed && committed < plan.len() {
            in_flight = Some(&plan[committed]);
        }
    }
    let staged: HashMap<u64, u8> = in_flight
        .map(|s| s.iter().copied().collect())
        .unwrap_or_default();
    let mut buf = [0u8; BLOCK_SIZE];
    for (&b, &v) in &durable {
        if staged.contains_key(&b) {
            continue; // judged by the all-or-nothing check below
        }
        pool.read(b, &mut buf)
            .map_err(|e| format!("read {b}: {e}"))?;
        if buf != fill(v) {
            return Err(format!(
                "durable block {b}: expected fill {v:#x}, read {:#x}",
                buf[0]
            ));
        }
    }
    if let Some(spec) = in_flight {
        let mut news = 0usize;
        let mut olds = 0usize;
        for &(b, v) in spec {
            pool.read(b, &mut buf)
                .map_err(|e| format!("read {b}: {e}"))?;
            if buf == fill(v) {
                news += 1;
            } else if buf == fill(durable.get(&b).copied().unwrap_or(0)) {
                olds += 1;
            } else {
                return Err(format!("in-flight block {b} is torn: read {:#x}", buf[0]));
            }
        }
        if news != 0 && olds != 0 {
            return Err(format!(
                "in-flight txn not atomic: {news} new / {olds} old of {}",
                spec.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Spanning campaign (single-threaded, every transaction crosses all shards)
// ---------------------------------------------------------------------------

/// Spanning script: every transaction writes one block on **each** shard
/// (`base * shards + s`), so every commit exercises the pool's two-phase
/// spanning protocol — intent publish, one prepared fragment per shard,
/// resolve, and window retirement.
fn spanning_script(rng: &mut StdRng, txns: usize, bases: u64, shards: u64) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let base = rng.gen_range(0..bases);
            (0..shards)
                .map(|s| (base * shards + s, rng.gen_range(1..=255)))
                .collect()
        })
        .collect()
}

/// Commits `plan` on the calling thread; returns `(committed, crashed)`.
/// Any panic other than the armed [`CrashTripped`] propagates.
fn run_spanning_script(pool: &TincaPool, plan: &[TxnSpec], sparse: bool) -> (usize, bool) {
    let mut committed = 0usize;
    let outcome = {
        let committed = &mut committed;
        catch_unwind(AssertUnwindSafe(move || {
            for spec in plan {
                let mut t = pool.init_txn();
                for (b, v) in spec {
                    t.write(*b, &image(*b, Some(*v), sparse));
                }
                pool.commit(t).expect("spanning frontier commit");
                *committed += 1;
            }
        }))
    };
    let crashed = match outcome {
        Ok(()) => false,
        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => true,
        Err(p) => std::panic::resume_unwind(p),
    };
    (committed, crashed)
}

/// Enumerates crash frontiers for a spanning-transaction workload. The
/// script is single-threaded (the spanning path serialises pool-wide
/// anyway), so every device's event stream is replay-stable; each
/// device's fence epochs are enumerated in turn, the crash landing on
/// that device while the others lose their volatile state.
///
/// With `delta_stage` the pool runs [`TincaConfig::delta_stage`], every
/// transaction rewrites the same block per shard and the payloads are
/// sparse (`poolfuzz::image`), so from the third transaction on each
/// fragment rewrites a reserved shadow block and the enumerated frontiers
/// are subsets of the few lines it stored, in both halves of the block.
pub fn spanning_frontier_campaign(
    shards: usize,
    seed: u64,
    txns: usize,
    cap_per_epoch: usize,
    delta_stage: bool,
) -> FrontierReport {
    quiet_crash_panics();
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let plan = {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases = if delta_stage { 1 } else { 12 };
        spanning_script(&mut rng, txns, bases, shards as u64)
    };

    // Probe: full run, no trip, harvest every device's epochs.
    let (epochs_per_dev, starts) = {
        let (devices, disk, pool_cfg) = build_pool(shards, delta_stage);
        let pool = TincaPool::format(devices.clone(), disk, pool_cfg);
        let starts: Vec<u64> = devices.iter().map(|d| d.events()).collect();
        let (committed, crashed) = run_spanning_script(&pool, &plan, delta_stage);
        drop(pool);
        if crashed || committed != plan.len() {
            report
                .violations
                .push("probe run crashed with no trip armed".into());
            return report;
        }
        let epochs: Vec<Vec<FenceEpoch>> = devices
            .iter()
            .map(|d| epochs_from_trace(&d.take_trace()))
            .collect();
        (epochs, starts)
    };

    frontier_enumerate(
        seed,
        cap_per_epoch,
        &epochs_per_dev,
        &starts,
        Some("device"),
        |s, rel_trip, keep| run_spanning_state(shards, delta_stage, &plan, s, rel_trip, keep),
    )
}

/// One spanning crash state: replay, trip device `trip_dev` at
/// `rel_trip`, resolve its open epoch to exactly `keep` (the other
/// devices lose volatile state), recover the pool, verify.
fn run_spanning_state(
    shards: usize,
    delta_stage: bool,
    plan: &[TxnSpec],
    trip_dev: usize,
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let (devices, disk, pool_cfg) = build_pool(shards, delta_stage);
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
    let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
    devices[trip_dev].set_trip(Some(rel_trip));
    let (committed, crashed) = run_spanning_script(&pool, plan, delta_stage);
    devices[trip_dev].set_trip(None);
    drop(pool);

    if !crashed {
        return Err("trip did not fire on replay (stream not deterministic?)".into());
    }
    let keep_set: HashSet<usize> = keep.iter().copied().collect();
    devices[trip_dev].crash_frontier(&keep_set);
    for (s, d) in devices.iter().enumerate() {
        if s != trip_dev {
            d.crash(CrashPolicy::LoseVolatile);
        }
    }
    let pool = TincaPool::recover(devices.clone(), disk, pool_cfg)
        .map_err(|e| format!("recovery failed: {e}"))?;
    verify_spanning(
        &pool,
        &devices,
        &metadata_ranges,
        plan,
        committed,
        delta_stage,
    )
}

/// Post-recovery oracle for the spanning campaign: internals, per-shard
/// and merged persist-order cleanliness, committed durability, and
/// whole-transaction atomicity of the in-flight spanning commit.
fn verify_spanning(
    pool: &TincaPool,
    devices: &[Nvm],
    metadata_ranges: &[Vec<std::ops::Range<usize>>],
    plan: &[TxnSpec],
    committed: usize,
    sparse: bool,
) -> Result<(), String> {
    pool.check_consistency()
        .map_err(|e| format!("inconsistent internals: {e}"))?;

    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(metadata_ranges[s].clone()));
        checker.push_all(trace);
        let rep = checker.report();
        if !rep.is_clean() {
            return Err(format!("shard {s} analyzer violation: {rep}"));
        }
    }
    let shard_capacity = devices[0].capacity();
    let merged_ranges: Vec<_> = metadata_ranges
        .iter()
        .enumerate()
        .flat_map(|(s, ranges)| {
            let base = s * shard_capacity;
            ranges.iter().map(move |r| r.start + base..r.end + base)
        })
        .collect();
    let mut checker = Checker::new(CheckConfig::with_metadata(merged_ranges));
    checker.push_all(&merge_shard_traces(traces, shard_capacity));
    let rep = checker.report();
    if !rep.is_clean() {
        return Err(format!("merged-trace analyzer violation: {rep}"));
    }

    // Durability + whole-txn atomicity. Blocks whose in-flight value
    // equals their last committed value cannot witness either outcome
    // and are skipped.
    let mut durable: HashMap<u64, u8> = HashMap::new();
    for spec in &plan[..committed] {
        for &(b, v) in spec {
            durable.insert(b, v);
        }
    }
    let in_flight = &plan[committed];
    let staged: HashMap<u64, u8> = in_flight.iter().copied().collect();
    let mut buf = [0u8; BLOCK_SIZE];
    for (&b, &v) in &durable {
        if staged.contains_key(&b) {
            continue;
        }
        pool.read(b, &mut buf)
            .map_err(|e| format!("read {b}: {e}"))?;
        if buf != image(b, Some(v), sparse) {
            return Err(format!(
                "durable block {b}: expected fill {v:#x}, read {:#x}",
                buf[0]
            ));
        }
    }
    let mut news: Vec<u64> = Vec::new();
    let mut olds: Vec<u64> = Vec::new();
    for &(b, v) in in_flight {
        let old = durable.get(&b).copied();
        if old == Some(v) {
            continue;
        }
        pool.read(b, &mut buf)
            .map_err(|e| format!("read {b}: {e}"))?;
        if buf == image(b, Some(v), sparse) {
            news.push(b);
        } else if buf == image(b, old, sparse) {
            olds.push(b);
        } else {
            return Err(format!("in-flight block {b} is torn: read {:#x}", buf[0]));
        }
    }
    if !news.is_empty() && !olds.is_empty() {
        return Err(format!(
            "in-flight spanning txn not atomic: blocks {news:?} read new, {olds:?} read old"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::{NvmDevice, NvmTech};

    fn traced_device() -> Nvm {
        NvmDevice::new(
            NvmConfig::new(4096, NvmTech::Pcm).with_tracing(),
            SimClock::new(),
        )
    }

    #[test]
    fn epochs_from_trace_finds_staged_sets_and_trip_ordinals() {
        let d = traced_device();
        d.write(0, &[1u8; 64]);
        d.write(128, &[2u8; 64]);
        d.clflush(0, 64); //   event 1 (staged line 0)
        d.clflush(128, 64); // event 2 (staged line 2)
        d.sfence(); //         event 3
        d.clflush(0, 64); //   event 4: clean flush, no staging
        d.sfence(); //         event 5: empty epoch, not reported
        d.write(64, &[3u8; 64]);
        d.clflush(64, 64); //  event 6 (staged line 1)
        d.clflush(0, 64); //   event 7: clean, must not move the trip
        d.sfence(); //         event 8
        let epochs = epochs_from_trace(&d.take_trace());
        assert_eq!(
            epochs,
            vec![
                FenceEpoch {
                    staged: vec![0, 2],
                    trip_event: 2
                },
                FenceEpoch {
                    staged: vec![1],
                    trip_event: 6
                },
            ]
        );
    }

    #[test]
    fn epoch_event_count_matches_device_counter() {
        let d = traced_device();
        d.write(0, &[1u8; 200]); // spans lines 0..=3
        d.clflush(0, 200); // 4 line events
        d.atomic_write_u64(256, 7); // 1 event
        d.sfence(); // 1 event
        assert_eq!(d.events(), 6);
        let epochs = epochs_from_trace(&d.take_trace());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].staged, vec![0, 1, 2, 3]);
        // The atomic store only dirties the overlay (it stages nothing),
        // so the last staged clflush remains event 4.
        assert_eq!(epochs[0].trip_event, 4);
    }

    #[test]
    fn frontiers_exhaustive_when_under_cap() {
        let (f, capped) = frontiers(&[3, 7], 8, 1);
        assert!(!capped);
        assert_eq!(f.len(), 4);
        assert!(f.contains(&vec![]));
        assert!(f.contains(&vec![3]));
        assert!(f.contains(&vec![7]));
        assert!(f.contains(&vec![3, 7]));
    }

    #[test]
    fn frontiers_capped_sample_keeps_extremes() {
        let staged: Vec<usize> = (0..20).collect();
        let (f, capped) = frontiers(&staged, 6, 42);
        assert!(capped);
        assert!(f.len() <= 6);
        assert!(f.contains(&vec![]));
        assert!(f.contains(&staged));
        // Deterministic across calls.
        assert_eq!(f, frontiers(&staged, 6, 42).0);
    }

    #[test]
    fn fs_frontier_enumeration_recovers_clean() {
        let report = frontier_fs_campaign(System::Tinca, 11, 8, 4);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        assert!(report.states_run >= 2 * report.epochs_total);
        // The commit record is a single line: some epochs must have been
        // enumerated exhaustively even with a tiny cap.
        assert!(report.epochs_exhaustive > 0, "{report}");
    }

    #[test]
    fn spanning_frontier_enumeration_is_all_or_nothing() {
        let report = spanning_frontier_campaign(2, 9, 2, 4, false);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        // Epochs exist on both devices: the intent record lives on device
        // 0, the second fragment commits on device 1.
        assert!(report.states_run >= 2 * report.epochs_total);
    }

    /// Delta staging under the same enumerator: the third and fourth
    /// transactions rewrite a shadow on each shard, and every frontier of
    /// the lines they stored recovers all-or-nothing.
    #[test]
    fn spanning_frontier_enumeration_covers_delta_staged_fragments() {
        let report = spanning_frontier_campaign(2, 9, 4, 4, true);
        println!("delta spanning frontier: {report}");
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.states_run >= 2 * report.epochs_total);
    }

    #[test]
    fn pool_frontier_enumeration_recovers_clean_multithreaded() {
        let report = pool_frontier_campaign(2, 5, 2, 4);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        // Data-block epochs (64 lines) must have hit the cap, and the
        // report must say so.
        assert!(report.epochs_capped > 0, "{report}");
    }
}
