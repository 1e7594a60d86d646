//! Combined crash + disk-fault fuzzing.
//!
//! The crash fuzzers ([`crate::harness`], [`crate::poolfuzz`]) assume a
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
//! two-phase spanning commit runs under transient bursts and bad ranges —
//! behind the commit mutex or through the lock-free ring, as the plan's
//! `mode` says.
//!
//! Fault injection stays enabled through the workload *and* recovery;
//! verification reads run with injection disabled so they observe state
//! rather than perturb it.

use std::collections::HashSet;

use blockdev::{FaultPlan, BLOCK_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, Health, TincaPool};

use crate::engine::{
    draw_txn, small_pool, Blocks, Cut, Plan, PoolApp, Rig, Trip, TxnSpec, Workload, SHARD_BYTES,
};
use crate::FailureMode::PowerPull;
use crate::{CampaignReport, Check, Finding};

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
        let spec = draw_txn(rng, n, &mut HashSet::new(), |rng| {
            rng.gen_range(0..WORK_BLOCKS)
        });
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

/// The fault plan's script.
pub struct Faults(Vec<Op>);

fn quarantined(pool: &TincaPool) -> usize {
    (0..pool.shard_count())
        .map(|s| pool.shard_quarantined(s))
        .sum()
}

impl Workload for Faults {
    /// Plays the script. A commit error means the transaction aborted
    /// cleanly (e.g. every eviction victim quarantined): its writes must
    /// not become durable. A read may fail permanently (a bad uncached
    /// block) — losing *committed* data may not, and a read that succeeds
    /// must agree with the oracle.
    fn play(&mut self, rig: &Rig, pool: &TincaPool, oracle: &mut Blocks) -> Result<(), Finding> {
        let images = rig.images;
        for op in &self.0 {
            match op {
                Op::Read(b) => {
                    let mut buf = [0u8; BLOCK_SIZE];
                    let durable = images.of(*b, oracle.durable().get(b).copied());
                    if pool.read(*b, &mut buf).is_ok() && buf != durable {
                        return Err(Check::Oracle
                            .found(format_args!("read of block {b} disagrees with the oracle")));
                    }
                }
                Op::Txn(spec) => {
                    oracle.begin(spec.iter().copied());
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

    /// The checks of a run the trip never cut: health mirrors the
    /// quarantine set, and an orderly flush keeps failing only while
    /// something is quarantined — every committed block must still read
    /// back, from NVM if pinned.
    fn completed(&mut self, rig: &Rig, pool: &TincaPool, oracle: &Blocks) -> Result<(), Finding> {
        let q = quarantined(pool);
        let health = pool.health();
        let health_ok = match health {
            Health::Healthy => q == 0,
            Health::Degraded { quarantined } => quarantined == q && q > 0,
            Health::ReadOnly => q > 0,
        };
        if !health_ok {
            return Err(Check::Internals.found(format_args!(
                "health {health:?} disagrees with quarantined_count {q}"
            )));
        }
        let flush = pool.flush_all();
        if flush.is_err() && quarantined(pool) == 0 {
            return Err(Check::Internals.found(format_args!(
                "flush_all failed ({flush:?}) yet nothing is quarantined"
            )));
        }
        rig.check(pool, oracle, WORK_BLOCKS).map(drop)
    }

    /// The fault counters live in DRAM: they are read off the pool the
    /// workload ran on (a crash wipes them along with the rest of DRAM),
    /// before [`completed`](Workload::completed)'s flush.
    fn tally(&self, pool: &TincaPool, report: &mut CampaignReport) {
        let s = pool.stats();
        report.io_retries += s.io_retries;
        report.transients_absorbed += s.transient_errors_absorbed;
        report.permanent_errors += s.permanent_io_errors;
        report.degraded += u64::from(quarantined(pool) > 0);
    }
}

/// Random trips under a randomized disk-fault plan per seed.
#[derive(Clone, Copy, Debug)]
pub struct FaultsPlan {
    pub shards: usize,
    /// Transactions per script.
    pub txns: usize,
    pub mode: CommitMode,
}

impl Plan for FaultsPlan {
    type App = PoolApp<Faults>;
    const NAME: &'static str = "faults";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = draw_plan(&mut rng, seed);
        // Odd seeds run the write-behind pipeline: the 256 KB of NVM (split
        // over the shards) holds ~61 data blocks against a 96-block working
        // set, so the destage daemon fires mid-script and the campaign
        // covers crash-during-destage and destage-retry-under-faults
        // schedules alongside the synchronous path.
        let destage = seed % 2 == 1;
        let mut cfg = small_pool(self.shards, self.mode, false);
        cfg.cache.destage = destage;
        cfg.cache.coalesce_flushes = destage;
        let (rig, pool) = Rig::with_faults(cfg, SHARD_BYTES / self.shards, plan);

        // The trip range deliberately overshoots the script's event count
        // for part of the seed space, so campaigns cover both mid-run
        // crashes and completed runs (where flush_all and degraded-health
        // checks apply). The trip shard skips the seed's low bit, which
        // picks `destage`.
        let ops = script(&mut rng, self.txns);
        let trip = Trip {
            dev: (seed / 2 % self.shards as u64) as usize,
            at: rng.gen_range(1..12_000u64),
        };
        // Power failure mid-run: recovery runs with fault injection still
        // live (it must not need the disk).
        let cut = Cut::of(PowerPull, seed ^ 0xD15C);
        Ok((PoolApp::new(rig, pool, WORK_BLOCKS, Faults(ops)), trip, cut))
    }
}
