//! Crash-mid-backlog campaign: power-pull while an open-loop overload is
//! queued and shedding.
//!
//! [`crate::poolfuzz`] crashes a pool under a closed-loop script. This
//! campaign drives the pool through the open-loop tier
//! ([`workloads::openloop`]) at an offered rate far past capacity, with a
//! bounded per-shard queue, so at the crash instant there is a real
//! serving-tier state to corrupt: a backlog of admitted-but-queued ops
//! and a population of shed (rejected) ops. The property proven per
//! seed:
//!
//! * every *completed* write reads back exactly after recovery;
//! * the op in flight at the crash is all-or-nothing (writes are
//!   shard-aligned, so the whole transaction is one shard fragment);
//! * **no shed or merely-queued op is ever visible** — admission control
//!   rejects before any cache work, so a shed op's payload must not
//!   exist anywhere on the recovered pool. Payloads embed the op's unique
//!   sequence number ([`Images::Stamped`]) and the engine's oracle reads
//!   every block of the working set, which makes the check exact;
//! * every shard's internals and persist-order event trace are clean.

use tinca::CommitMode;
use workloads::openloop::{
    Arrival, ArrivalStream, Arrivals, OpKind, OpenLoopDriver, OpenLoopSpec, StepOutcome,
    TincaServer,
};

use crate::app::{campaign, AppOutcome, CampaignReport};
use crate::engine::{small_pool, BlockOracle, Cut, Images, Rig, Trip};
use crate::quiet_crash_panics;

fn overload_spec(shards: usize, seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        users: 100_000,
        // ~100× a shard's service capacity: the queue fills within a few
        // arrivals and stays full, so most of the run happens at the
        // admission boundary.
        arrivals: Arrivals::Poisson {
            rate_ops_per_sec: 20_000_000.0,
        },
        ops: 240,
        read_pct: 30,
        blocks: 16 * shards as u64,
        txn_blocks: 2,
        queue_cap: 6,
        limiter: None,
        seed,
    }
}

/// One seeded crash-mid-backlog iteration against an `N`-shard pool, the
/// writes admission control shed before the crash (or stream end) added
/// to `report`.
fn backlog_seed(shards: usize, seed: u64, report: &mut CampaignReport) -> AppOutcome {
    quiet_crash_panics();
    let spec = overload_spec(shards, seed);
    let (rig, pool) = Rig::new(small_pool(shards, CommitMode::Mutex, false), 512 << 10);
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);

    // The stream is deterministic, so the oracle sees the whole plan up
    // front: step `i` serves arrival `i`.
    let plan: Vec<Arrival> = ArrivalStream::new(&spec, shards).collect();
    let trip = Trip {
        dev: (seed % shards as u64) as usize,
        at: 1 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 3_000),
    };
    let mut oracle = BlockOracle::new(Images::Stamped, spec.blocks);
    let mut driver = OpenLoopDriver::new(spec, TincaServer::new(&pool, rig.clock.clone()));
    let cut = Cut::Random {
        seed: seed ^ 0xBAC1,
        shift: 13,
    };
    rig.run_seed(seed, trip, cut, &mut oracle, |oracle| {
        for arrival in &plan {
            let write: Option<Vec<(u64, u64)>> = match &arrival.kind {
                OpKind::Write { blks, seq } => Some(blks.iter().map(|&b| (b, *seq)).collect()),
                _ => None,
            };
            if let Some(w) = &write {
                oracle.begin(w);
            }
            match driver.step() {
                Some(StepOutcome::Completed { .. }) => oracle.commit(),
                Some(StepOutcome::ShedQueueFull { .. } | StepOutcome::ShedThrottled { .. }) => {
                    report.shed += u64::from(write.is_some());
                    oracle.abort();
                }
                None => break,
            }
        }
    })
}

/// Runs one seeded crash-mid-backlog iteration against an `N`-shard pool.
pub fn backlog_one(shards: usize, seed: u64) -> AppOutcome {
    backlog_seed(shards, seed, &mut CampaignReport::default())
}

/// Runs a crash-mid-backlog campaign of `runs` seeds.
pub fn backlog_campaign(shards: usize, base_seed: u64, runs: u64) -> CampaignReport {
    campaign(runs, false, |i, report| {
        backlog_seed(shards, base_seed + i, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_spec_actually_sheds() {
        // Without a crash (trip unarmed path: run the driver directly),
        // the overload spec must build a backlog and shed — otherwise
        // the campaign proves nothing.
        let shards = 2;
        let spec = overload_spec(shards, 7);
        let (rig, pool) = Rig::new(small_pool(shards, CommitMode::Mutex, false), 512 << 10);
        let r = OpenLoopDriver::new(spec, TincaServer::new(&pool, rig.clock.clone())).run();
        assert!(r.shed_queue_full > 0, "no backlog formed");
        assert!(r.completed > 0);
    }

    #[test]
    fn single_seed_verifies() {
        let out = backlog_one(2, 3);
        assert!(
            matches!(out, AppOutcome::Completed | AppOutcome::CrashedVerified),
            "{out:?}"
        );
    }
}
