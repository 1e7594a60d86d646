//! Crash campaigns for the **multi-writer lock-free commit path**
//! (`CommitMode::LockFreeRing`, DESIGN §16).
//!
//! The mutex-path campaigns ([`crate::poolfuzz`], [`crate::frontier`])
//! never leave more than one window in flight per shard. This module
//! drives the steppable window API directly — each *round* reserves and
//! stages several disjoint windows (possibly on the same shard), publishes
//! their `STAGED` descriptors in a rotated order, and only then runs the
//! sequencer — so a crash can land:
//!
//! * between a window's reservation and its payload staging,
//! * **mid-publication**: some descriptors `STAGED`, some still
//!   `RESERVED`, in any ring order (the rotation makes later windows
//!   publish first);
//! * inside the sequencer round, around the fence and the `Head` store;
//! * inside a spanning prepare interleaved with the multi-writer stream.
//!
//! Recovery must resume-or-roll-back each window exactly once: every
//! transaction whose round retired before the crash reads back exactly,
//! every other transaction is all-or-nothing, and every shard's trace —
//! plus the merged pool-wide trace — passes the persist-order analyzer.
//!
//! Two campaigns: [`mw_pool_fuzz_campaign`] (random trip + adversarial
//! write-back resolution per seed) and [`mw_frontier_campaign`] (bounded
//! exhaustive enumeration of every fence epoch's persist frontiers,
//! subsuming every line-granular crash state of the random sweep).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{Disk, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{
    merge_shard_traces, shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmTech, SimClock,
};
use persistcheck::{CheckConfig, Checker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, MwAdmission, MwTicket, PoolConfig, TincaConfig, TincaPool};

use crate::app::{campaign, run_recoverable, RecoverableApp};
use crate::frontier::{epochs_from_trace, frontier_enumerate, FenceEpoch, FrontierReport};
use crate::poolfuzz::{PoolFuzzOutcome, PoolFuzzReport};
use crate::quiet_crash_panics;

/// One scripted transaction: disjoint (block, fill) writes.
type TxnSpec = Vec<(u64, u8)>;

/// One step of the multi-writer plan.
#[derive(Clone, Debug)]
enum MwRound {
    /// Concurrent single-shard windows: all reserved and staged, then
    /// published in a rotated order, then sequenced.
    Writers(Vec<TxnSpec>),
    /// One transaction touching every shard, committed through the
    /// spanning two-phase path (which quiesces the ring first).
    Spanning(TxnSpec),
}

impl MwRound {
    fn specs(&self) -> &[TxnSpec] {
        match self {
            MwRound::Writers(specs) => specs,
            MwRound::Spanning(spec) => std::slice::from_ref(spec),
        }
    }
}

fn fill(v: u8) -> [u8; BLOCK_SIZE] {
    [v; BLOCK_SIZE]
}

/// Seeded plan: mostly multi-window rounds (1–3 windows of 1–2 blocks,
/// pairwise block-disjoint so admissions never conflict), with an
/// occasional spanning transaction when the pool has several shards.
fn mw_script(rng: &mut StdRng, rounds: usize, blocks: u64, shards: u64) -> Vec<MwRound> {
    (0..rounds)
        .map(|_| {
            if shards > 1 && rng.gen_range(0..5) == 0 {
                let base = rng.gen_range(0..blocks / shards);
                return MwRound::Spanning(
                    (0..shards)
                        .map(|s| (base * shards + s, rng.gen_range(1..=255)))
                        .collect(),
                );
            }
            let k = rng.gen_range(1..=3usize);
            let mut used: HashSet<u64> = HashSet::new();
            let specs = (0..k)
                .map(|_| {
                    let s = rng.gen_range(0..shards);
                    let n = rng.gen_range(1..=2usize);
                    let mut spec: TxnSpec = Vec::with_capacity(n);
                    while spec.len() < n {
                        let b = rng.gen_range(0..blocks / shards) * shards + s;
                        if used.insert(b) {
                            spec.push((b, rng.gen_range(1..=255)));
                        }
                    }
                    spec
                })
                .collect();
            MwRound::Writers(specs)
        })
        .collect()
}

fn build_mw_pool(shards: usize) -> (Vec<Nvm>, Disk, PoolConfig) {
    let nvm_cfg = NvmConfig::new(shards * (256 << 10), NvmTech::Pcm).with_tracing();
    let devices = shard_devices(&nvm_cfg, shards);
    let clock = SimClock::new();
    telemetry::swap_clock(&clock);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let pool_cfg = PoolConfig {
        shards,
        commit_mode: CommitMode::LockFreeRing,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
    };
    (devices, disk, pool_cfg)
}

/// Plays `plan` on the calling thread through the steppable window API;
/// returns `(rounds_done, crashed)`. Any panic other than the armed
/// [`CrashTripped`] propagates. The driving is deterministic, so every
/// device's event stream is replay-stable — which both the per-seed
/// determinism of the fuzzer and the frontier campaign's trip replay
/// depend on.
fn run_mw_plan(pool: &TincaPool, plan: &[MwRound]) -> (usize, bool) {
    let mut done = 0usize;
    let outcome = {
        let done = &mut done;
        catch_unwind(AssertUnwindSafe(move || {
            for (round, step) in plan.iter().enumerate() {
                match step {
                    MwRound::Spanning(spec) => {
                        let mut t = pool.init_txn();
                        for (b, v) in spec {
                            t.write(*b, &fill(*v));
                        }
                        pool.commit(t).expect("mw spanning commit");
                    }
                    MwRound::Writers(specs) => {
                        let mut tickets: Vec<MwTicket> = Vec::with_capacity(specs.len());
                        for spec in specs {
                            let mut t = pool.init_txn();
                            for (b, v) in spec {
                                t.write(*b, &fill(*v));
                            }
                            match pool.mw_try_begin(t).expect("mw admission") {
                                MwAdmission::Admitted(tk) => tickets.push(tk),
                                // Rounds are block-disjoint and fully
                                // retired before the next one starts.
                                MwAdmission::Busy(_) => {
                                    panic!("unexpected Busy admission in disjoint round")
                                }
                            }
                        }
                        for tk in tickets.iter_mut() {
                            pool.mw_stage(tk);
                        }
                        // Publish out of ring order: the rotation makes the
                        // crash land with arbitrary STAGED/RESERVED mixes.
                        tickets.rotate_left(round % specs.len().max(1));
                        let mut touched: Vec<usize> = Vec::new();
                        for tk in tickets.drain(..) {
                            if !touched.contains(&tk.shard()) {
                                touched.push(tk.shard());
                            }
                            pool.mw_publish(tk);
                        }
                        for s in touched {
                            while pool.mw_sequence(s) > 0 {}
                        }
                    }
                }
                *done += 1;
            }
        }))
    };
    let crashed = match outcome {
        Ok(()) => false,
        Err(p) if p.downcast_ref::<CrashTripped>().is_some() => true,
        Err(p) => std::panic::resume_unwind(p),
    };
    (done, crashed)
}

/// Post-recovery oracle shared by both campaigns: internals, per-shard
/// and merged persist-order cleanliness, durability of retired rounds,
/// and per-transaction all-or-nothing for the crashed round's windows
/// (each window is an independent transaction — unlike the spanning
/// oracle they need not agree with each other, only with themselves).
fn verify_mw(
    pool: &TincaPool,
    devices: &[Nvm],
    metadata_ranges: &[Vec<std::ops::Range<usize>>],
    durable: &HashMap<u64, u8>,
    in_flight: &[TxnSpec],
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

    // Blocks of the crashed round are judged by the per-window check;
    // a block whose in-flight value equals its durable value cannot
    // witness either outcome and is skipped.
    let staged: HashMap<u64, u8> = in_flight.iter().flatten().copied().collect();
    let mut buf = [0u8; BLOCK_SIZE];
    for (&b, &v) in durable {
        if staged.contains_key(&b) {
            continue;
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
    for (w, spec) in in_flight.iter().enumerate() {
        let mut news: Vec<u64> = Vec::new();
        let mut olds: Vec<u64> = Vec::new();
        for &(b, v) in spec {
            let old = durable.get(&b).copied().unwrap_or(0);
            if old == v {
                continue;
            }
            pool.read(b, &mut buf)
                .map_err(|e| format!("read {b}: {e}"))?;
            if buf == fill(v) {
                news.push(b);
            } else if buf == fill(old) {
                olds.push(b);
            } else {
                return Err(format!("window {w} block {b} is torn: read {:#x}", buf[0]));
            }
        }
        if !news.is_empty() && !olds.is_empty() {
            return Err(format!(
                "window {w} not atomic: blocks {news:?} read new, {olds:?} read old"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Random-trip fuzz
// ---------------------------------------------------------------------------

/// The multi-writer crash application: a seeded [`mw_script`] plan with a
/// random trip armed on one shard's device, recovered and verified via
/// the shared [`RecoverableApp`] protocol.
struct MwPoolApp {
    pool: TincaPool,
    devices: Vec<Nvm>,
    disk: Disk,
    pool_cfg: PoolConfig,
    metadata_ranges: Vec<Vec<std::ops::Range<usize>>>,
    plan: Vec<MwRound>,
    durable: HashMap<u64, u8>,
    rounds_done: usize,
    trip_shard: usize,
    trip: u64,
    seed: u64,
    _seed_span: telemetry::Span,
}

impl MwPoolApp {
    fn new(shards: usize, seed: u64, rounds: usize) -> MwPoolApp {
        quiet_crash_panics();
        let mut rng = StdRng::seed_from_u64(seed);
        let (devices, disk, pool_cfg) = build_mw_pool(shards);
        let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
        let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
        let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
        let plan = mw_script(&mut rng, rounds, 96, shards as u64);
        let trip_shard = (seed % shards as u64) as usize;
        let trip = rng.gen_range(1..4_000u64);
        devices[trip_shard].set_trip(Some(trip));
        MwPoolApp {
            pool,
            devices,
            disk,
            pool_cfg,
            metadata_ranges,
            plan,
            durable: HashMap::new(),
            rounds_done: 0,
            trip_shard,
            trip,
            seed,
            _seed_span,
        }
    }
}

impl RecoverableApp for MwPoolApp {
    fn run_to_trip(&mut self) -> bool {
        let (done, crashed) = run_mw_plan(&self.pool, &self.plan);
        self.devices[self.trip_shard].set_trip(None);
        self.rounds_done = done;
        for round in &self.plan[..done] {
            for spec in round.specs() {
                for &(b, v) in spec {
                    self.durable.insert(b, v);
                }
            }
        }
        crashed
    }

    fn crash_recover(&mut self) -> Result<(), String> {
        for (s, d) in self.devices.iter().enumerate() {
            d.crash(CrashPolicy::Random(self.seed ^ 0x3757 ^ (s as u64) << 17));
        }
        match TincaPool::recover(
            self.devices.clone(),
            self.disk.clone(),
            self.pool_cfg.clone(),
        ) {
            Ok(p) => {
                self.pool = p;
                Ok(())
            }
            Err(e) => {
                let (seed, trip, trip_shard) = (self.seed, self.trip, self.trip_shard);
                Err(format!(
                    "seed {seed} trip {trip}@shard{trip_shard}: recovery failed: {e}"
                ))
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        verify_mw(
            &self.pool,
            &self.devices,
            &self.metadata_ranges,
            &self.durable,
            self.plan[self.rounds_done].specs(),
        )
        .map_err(|e| {
            let (seed, trip, trip_shard) = (self.seed, self.trip, self.trip_shard);
            format!("seed {seed} trip {trip}@shard{trip_shard}: {e}")
        })
    }
}

/// Runs one seeded multi-writer crash-fuzz iteration.
pub fn mw_pool_fuzz_one(shards: usize, seed: u64, rounds: usize) -> PoolFuzzOutcome {
    run_recoverable(&mut MwPoolApp::new(shards, seed, rounds)).into()
}

/// Runs a multi-writer crash-fuzz campaign of `runs` seeds.
pub fn mw_pool_fuzz_campaign(
    shards: usize,
    base_seed: u64,
    runs: u64,
    rounds: usize,
) -> PoolFuzzReport {
    let r = campaign(runs, false, |i| {
        run_recoverable(&mut MwPoolApp::new(shards, base_seed + i, rounds))
    });
    PoolFuzzReport {
        runs: r.runs,
        completed: r.completed,
        crashes: r.crashes,
        violations: r.violations,
    }
}

// ---------------------------------------------------------------------------
// Frontier enumeration
// ---------------------------------------------------------------------------

/// Enumerates crash frontiers for the multi-writer workload. A probe run
/// harvests every device's fence epochs; each epoch is then replayed to
/// its last staged `clflush` and crashed at every enumerated persist
/// frontier. Because writers stage and publish **without fencing** (only
/// the sequencer fences), a whole round's window payloads *and* `STAGED`
/// descriptor publications share one fence epoch — the frontier subsets
/// therefore cover every combination of published/unpublished/torn
/// descriptors, i.e. every concurrent publication order a real
/// multi-writer race could persist.
pub fn mw_frontier_campaign(
    shards: usize,
    seed: u64,
    rounds: usize,
    cap_per_epoch: usize,
) -> FrontierReport {
    quiet_crash_panics();
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let plan = {
        let mut rng = StdRng::seed_from_u64(seed);
        mw_script(&mut rng, rounds, 96, shards as u64)
    };

    // Probe: full run, no trip, harvest every device's epochs.
    let (epochs_per_dev, starts): (Vec<Vec<FenceEpoch>>, Vec<u64>) = {
        let (devices, disk, pool_cfg) = build_mw_pool(shards);
        let pool = TincaPool::format(devices.clone(), disk, pool_cfg);
        let starts: Vec<u64> = devices.iter().map(|d| d.events()).collect();
        let (done, crashed) = run_mw_plan(&pool, &plan);
        drop(pool);
        if crashed || done != plan.len() {
            report
                .violations
                .push("probe run crashed with no trip armed".into());
            return report;
        }
        let epochs = devices
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
        Some("shard"),
        |s, rel_trip, keep| run_mw_state(shards, &plan, s, rel_trip, keep),
    )
}

/// One multi-writer crash state: replay, trip shard `trip_shard` at
/// `rel_trip`, resolve its open epoch to exactly `keep` (the other shards
/// lose volatile state), recover, verify.
fn run_mw_state(
    shards: usize,
    plan: &[MwRound],
    trip_shard: usize,
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let (devices, disk, pool_cfg) = build_mw_pool(shards);
    let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
    let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
    devices[trip_shard].set_trip(Some(rel_trip));
    let (done, crashed) = run_mw_plan(&pool, plan);
    devices[trip_shard].set_trip(None);
    drop(pool);

    if !crashed {
        return Err("trip did not fire on replay (stream not deterministic?)".into());
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

    let mut durable: HashMap<u64, u8> = HashMap::new();
    for round in &plan[..done] {
        for spec in round.specs() {
            for &(b, v) in spec {
                durable.insert(b, v);
            }
        }
    }
    verify_mw(
        &pool,
        &devices,
        &metadata_ranges,
        &durable,
        plan[done].specs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_rounds_disjoint() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plan_a = mw_script(&mut a, 30, 96, 4);
        let plan_b = mw_script(&mut b, 30, 96, 4);
        assert_eq!(format!("{plan_a:?}"), format!("{plan_b:?}"));
        let mut saw_multi = false;
        let mut saw_spanning = false;
        for round in &plan_a {
            match round {
                MwRound::Spanning(spec) => {
                    saw_spanning = true;
                    assert_eq!(spec.len(), 4, "spanning rounds touch every shard");
                }
                MwRound::Writers(specs) => {
                    saw_multi |= specs.len() > 1;
                    let mut blocks: Vec<u64> = specs.iter().flatten().map(|(b, _)| *b).collect();
                    let n = blocks.len();
                    blocks.sort_unstable();
                    blocks.dedup();
                    assert_eq!(blocks.len(), n, "round blocks must be disjoint");
                    for spec in specs {
                        let s = spec[0].0 % 4;
                        assert!(spec.iter().all(|(b, _)| b % 4 == s), "single-shard txn");
                    }
                }
            }
        }
        assert!(saw_multi, "plan never exercised concurrent windows");
        assert!(saw_spanning, "plan never exercised the spanning path");
    }

    #[test]
    fn mw_fuzz_outcomes_are_deterministic_per_seed() {
        let a = mw_pool_fuzz_one(2, 21, 20);
        let b = mw_pool_fuzz_one(2, 21, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn mw_frontier_enumeration_covers_publication_states() {
        let report = mw_frontier_campaign(2, 7, 3, 4);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        // Multi-window rounds stage several payloads and descriptor
        // publications inside one fence epoch, so some epochs must have
        // exceeded the tiny cap.
        assert!(report.epochs_capped > 0, "{report}");
    }
}
