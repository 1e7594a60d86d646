//! Combined crash + disk-fault fuzzing.
//!
//! The crash fuzzers ([`crate::fuzz`], [`crate::poolfuzz`]) assume a
//! perfect disk. This campaign drops that assumption: each seeded run
//! wraps the disk in a [`FaultyDisk`](blockdev::FaultyDisk) with a
//! randomized [`FaultPlan`] (transient read/write bursts, an occasional
//! permanently bad block range, latency spikes) *and* arms a crash trip on
//! one shard's NVM device, then verifies that the two failure modes
//! composed still lose nothing:
//!
//! * every transaction committed before the crash reads back exactly —
//!   a block whose writeback permanently fails must survive *in NVM*
//!   (quarantined, pinned dirty), not evaporate — and a refused commit
//!   leaves no trace;
//! * the in-flight transaction is all-or-nothing;
//! * transient faults are absorbed by the cache's bounded retry and never
//!   surface to the committing caller, and a read that succeeds agrees
//!   with the oracle;
//! * the NVM event traces stay persist-order clean (the fault/retry path
//!   must not skip fences);
//! * the pool's [`Health`] reports `Degraded` exactly when blocks are
//!   quarantined.
//!
//! With one shard the pool is bit-for-bit a bare cache. With several the
//! script's random blocks make most transactions span shards, so the
//! two-phase spanning commit runs under transient bursts and bad ranges.
//!
//! Fault injection stays enabled through the workload *and* recovery;
//! verification reads run with injection disabled so they observe state
//! rather than perturb it.

use blockdev::{FaultPlan, BLOCK_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, Health, TincaPool};

use crate::app::{campaign, AppOutcome, CampaignReport};
use crate::engine::{small_pool, tripped, BlockOracle, Cut, Rig, Trip, TxnSpec, SHARD_BYTES};
use crate::quiet_crash_panics;

/// Disk blocks the workload touches.
const WORK_BLOCKS: u64 = 96;

/// One scripted step: a transaction of disjoint writes, or a read probe.
enum Op {
    Txn(TxnSpec),
    Read(u64),
}

fn script(rng: &mut StdRng, txns: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(txns * 2);
    for _ in 0..txns {
        if rng.gen_range(0..4) == 0 {
            out.push(Op::Read(rng.gen_range(0..WORK_BLOCKS)));
        }
        let n = rng.gen_range(1..=4usize);
        let mut spec: TxnSpec = Vec::with_capacity(n);
        while spec.len() < n {
            let b = rng.gen_range(0..WORK_BLOCKS);
            if spec.iter().all(|(x, _)| *x != b) {
                spec.push((b, rng.gen_range(1..=255u8).into()));
            }
        }
        out.push(Op::Txn(spec));
    }
    out
}

/// Draws a randomized fault plan from the seed stream. Burst length stays
/// below the cache's default retry budget, so every transient fault is
/// absorbable; roughly one run in three also gets a permanently bad block
/// range.
fn draw_plan(rng: &mut StdRng, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed ^ 0xFA01_7D15)
        .with_transient_reads(rng.gen_range(0..=120))
        .with_transient_writes(rng.gen_range(0..=120))
        .with_burst_len(rng.gen_range(1..=3))
        .with_latency_spikes(rng.gen_range(0..=30), 2_000_000);
    if rng.gen_range(0..3) == 0 {
        let start = rng.gen_range(0..WORK_BLOCKS - 6);
        let len = rng.gen_range(1..=6);
        plan = plan.with_bad_range(start..start + len);
    }
    plan
}

/// Plays the script. A commit error means the transaction aborted cleanly
/// (e.g. every eviction victim quarantined): its writes must not become
/// durable. A read may fail permanently (a bad uncached block) — losing
/// *committed* data may not, and a read that succeeds must agree with the
/// oracle.
fn play(pool: &TincaPool, ops: &[Op], oracle: &mut BlockOracle) -> Result<(), String> {
    let images = oracle.images();
    for op in ops {
        match op {
            Op::Read(b) => {
                let mut buf = [0u8; BLOCK_SIZE];
                if pool.read(*b, &mut buf).is_ok() && buf != oracle.durable_image(*b) {
                    return Err(format!("read of block {b} disagrees with the oracle"));
                }
            }
            Op::Txn(spec) => {
                oracle.begin(spec);
                if pool.commit(images.txn(pool, spec)).is_ok() {
                    oracle.commit();
                } else {
                    oracle.abort();
                }
            }
        }
    }
    Ok(())
}

fn quarantined(pool: &TincaPool) -> usize {
    (0..pool.shard_count())
        .map(|s| pool.with_shard(s, |c| c.quarantined_count()))
        .sum()
}

/// The checks of a run the trip never cut: health mirrors the quarantine
/// set, and an orderly flush keeps failing only while something is
/// quarantined — every committed block must still read back, from NVM if
/// pinned.
fn check_completed(rig: &Rig, pool: &TincaPool, oracle: &BlockOracle) -> Result<(), String> {
    let q = quarantined(pool);
    let health = pool.health();
    let health_ok = match health {
        Health::Healthy => q == 0,
        Health::Degraded { quarantined } => quarantined == q && q > 0,
        Health::ReadOnly => q > 0,
    };
    if !health_ok {
        return Err(format!(
            "health {health:?} disagrees with quarantined_count {q}"
        ));
    }
    let flush = pool.flush_all();
    if flush.is_err() && quarantined(pool) == 0 {
        return Err(format!(
            "flush_all failed ({flush:?}) yet nothing is quarantined"
        ));
    }
    rig.check(pool, oracle)
}

/// One seeded crash+fault iteration on an `N`-shard pool, its fault
/// counters added to `report`.
fn fault_seed(shards: usize, seed: u64, txns: usize, report: &mut CampaignReport) -> AppOutcome {
    quiet_crash_panics();
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = draw_plan(&mut rng, seed);
    // Odd seeds run the write-behind pipeline: the 256 KB of NVM (split
    // over the shards) holds ~61 data blocks against a 96-block working
    // set, so the destage daemon fires mid-script and the campaign covers
    // crash-during-destage and destage-retry-under-faults schedules
    // alongside the synchronous path.
    let destage = seed % 2 == 1;
    let mut cfg = small_pool(shards, CommitMode::Mutex, false);
    cfg.cache.destage = destage;
    cfg.cache.coalesce_flushes = destage;
    let (rig, pool) = Rig::with_faults(cfg, SHARD_BYTES / shards, plan);
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);

    // The trip range deliberately overshoots the script's event count for
    // part of the seed space, so campaigns cover both mid-run crashes and
    // completed runs (where flush_all and degraded-health checks apply).
    // The trip shard skips the seed's low bit, which picks `destage`.
    let ops = script(&mut rng, txns);
    let trip = Trip {
        dev: (seed / 2 % shards as u64) as usize,
        at: rng.gen_range(1..12_000u64),
    };
    let mut oracle = rig.oracle(WORK_BLOCKS);
    rig.arm(trip);
    let run = tripped(&rig.devices, || play(&pool, &ops, &mut oracle));

    // Fault counters live in DRAM, so they are read off the pre-crash
    // pool (a crash wipes them along with the rest of DRAM).
    let s = pool.stats();
    report.io_retries += s.io_retries;
    report.transients_absorbed += s.transient_errors_absorbed;
    report.permanent_errors += s.permanent_io_errors;
    report.degraded += u64::from(quarantined(&pool) > 0);

    let completed = run.is_some();
    let verdict = match run {
        Some(played) => played.and_then(|()| check_completed(&rig, &pool, &oracle)),
        // Power failure mid-run: recovery runs with fault injection still
        // live (it must not need the disk).
        None => rig.cut(
            Cut::Random {
                seed: seed ^ 0xD15C,
                shift: 17,
            },
            &oracle,
        ),
    };
    match AppOutcome::judged(verdict, format_args!("seed {seed} {trip}")) {
        AppOutcome::CrashedVerified if completed => AppOutcome::Completed,
        outcome => outcome,
    }
}

/// Runs one seeded crash+fault iteration on an `N`-shard pool.
pub fn fault_fuzz_one(shards: usize, seed: u64, txns: usize) -> AppOutcome {
    fault_seed(shards, seed, txns, &mut CampaignReport::default())
}

/// Runs a fault-fuzz campaign of `runs` seeds on an `N`-shard pool.
pub fn fault_fuzz_campaign(
    shards: usize,
    base_seed: u64,
    runs: u64,
    txns: usize,
) -> CampaignReport {
    campaign(runs, false, |i, report| {
        fault_seed(shards, base_seed + i, txns, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = draw_plan(&mut rng, seed);
            (
                p.transient_read_per_mille,
                p.transient_write_per_mille,
                p.burst_len,
                p.bad_ranges.clone(),
            )
        };
        assert_eq!(draw(42), draw(42));
    }

    #[test]
    fn small_campaign_is_clean() {
        let report = fault_fuzz_campaign(1, 7, 25, 40);
        assert!(report.clean(), "violations: {:#?}", report.violations);
        assert!(report.crashes + report.completed == report.runs);
    }
}
