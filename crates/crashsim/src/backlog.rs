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

use tinca::{CommitMode, TincaPool};
use workloads::openloop::{
    Arrival, ArrivalStream, Arrivals, OpKind, OpenLoopDriver, OpenLoopSpec, StepOutcome,
    TincaServer,
};

use crate::engine::{small_pool, Blocks, Cut, Images, Plan, PoolApp, Rig, Trip, Workload};
use crate::{CampaignReport, Finding};

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
        seed,
    }
}

/// The open-loop driver's spec, its arrivals (step `i` serves arrival
/// `i`), and the writes admission control shed before the crash or the
/// stream's end.
pub struct Backlog {
    spec: OpenLoopSpec,
    plan: Vec<Arrival>,
    shed: u64,
}

impl Workload for Backlog {
    fn play(&mut self, rig: &Rig, pool: &TincaPool, oracle: &mut Blocks) -> Result<(), Finding> {
        let server = TincaServer::new(pool, rig.clock.clone());
        let mut driver = OpenLoopDriver::new(self.spec.clone(), server);
        for arrival in &self.plan {
            if let OpKind::Write { blks, seq } = &arrival.kind {
                oracle.begin(blks.iter().map(|&b| (b, *seq)));
            }
            match driver.step() {
                Some(StepOutcome::Completed { .. }) => oracle.commit(),
                Some(StepOutcome::ShedQueueFull { .. }) => {
                    self.shed += u64::from(matches!(arrival.kind, OpKind::Write { .. }));
                    oracle.abort();
                }
                None => break,
            }
        }
        Ok(())
    }

    fn tally(&self, _: &TincaPool, report: &mut CampaignReport) {
        report.shed += self.shed;
    }
}

/// Random trips into an overloaded open-loop tier on an `N`-shard pool.
#[derive(Clone, Copy, Debug)]
pub struct BacklogPlan {
    pub shards: usize,
}

impl Plan for BacklogPlan {
    type App = PoolApp<Backlog>;
    const NAME: &'static str = "backlog";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let spec = overload_spec(self.shards, seed);
        let (mut rig, pool) =
            Rig::new(small_pool(self.shards, CommitMode::Mutex, false), 512 << 10);
        rig.images = Images::Stamped;
        // The stream is deterministic, so the oracle sees the whole plan
        // up front.
        let plan: Vec<Arrival> = ArrivalStream::new(&spec, self.shards).collect();
        let trip = Trip {
            dev: (seed % self.shards as u64) as usize,
            at: 1 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 3_000),
        };
        let blocks = spec.blocks;
        let cut = Cut::Random {
            seed: seed ^ 0xBAC1,
            shift: 13,
        };
        let work = Backlog {
            spec,
            plan,
            shed: 0,
        };
        Ok((PoolApp::new(rig, pool, blocks, work), trip, cut))
    }
}
