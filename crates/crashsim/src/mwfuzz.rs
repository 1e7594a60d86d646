//! Crash campaigns for the **multi-writer lock-free commit path**
//! (`CommitMode::LockFreeRing`, DESIGN §8).
//!
//! [`RingPlan`] deals a seeded script to three writers stepped through
//! the pool's window steps, several windows possibly on one shard, so a
//! crash can land between a window's reservation, registration and
//! staging, **mid-publication** (some descriptors `STAGED`, some still
//! `RESERVED`, in any ring order), inside a sequencer round, or inside a
//! spanning prepare. [`Policy::Rounds`] runs each script round as one
//! scheduler round (later windows regularly publish first);
//! [`Policy::Seeded`] interleaves single steps: holes at the retire
//! frontier, partial sequencer rounds, conflicts between rounds.
//!
//! Recovery must resume-or-roll-back each window exactly once: every
//! retired transaction reads back, every window reserved since is
//! all-or-nothing on its own, and every shard's trace and the merged trace
//! pass the persist-order analyzer. Writers stage and publish **without
//! fencing** (only the sequencer fences), so a round's payloads and
//! `STAGED` publications share one fence epoch, whose frontiers cover
//! every publication order a multi-writer race could persist.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::CommitMode;
use workloads::sched::{Policy, Sched};

use crate::engine::{draw_txn, pool_trip, small_pool, Cut, Plan, PoolApp, Trip, TxnSpec, Writers};
use crate::FailureMode::PowerPull;
use crate::Finding;

/// Blocks the multi-writer scripts draw from.
const BLOCKS: u64 = 96;
/// Writers the script is dealt to: the most windows a round holds.
const WRITERS: usize = 3;

/// Seeded script, dealt to [`WRITERS`] writers round by round: mostly
/// rounds of 1–3 concurrent windows of 1–2 blocks, pairwise
/// block-disjoint, writer `j` taking the `j`-th; now and then, when the
/// pool has several shards, one transaction touching every shard, writer
/// 0's. A writer with nothing in a round idles through it.
fn mw_script(
    rng: &mut StdRng,
    rounds: usize,
    blocks: u64,
    shards: u64,
) -> Vec<Vec<Option<TxnSpec>>> {
    let mut queues = vec![Vec::new(); WRITERS];
    for _ in 0..rounds {
        let mut used: HashSet<u64> = HashSet::new();
        let round: Vec<TxnSpec> = if shards > 1 && rng.gen_range(0..5) == 0 {
            let mut b = rng.gen_range(0..blocks / shards) * shards;
            vec![draw_txn(rng, shards as usize, &mut used, |_| {
                b += 1;
                b - 1
            })]
        } else {
            let k = rng.gen_range(1..=3usize);
            (0..k)
                .map(|_| {
                    let s = rng.gen_range(0..shards);
                    let n = rng.gen_range(1..=2usize);
                    draw_txn(rng, n, &mut used, |rng| {
                        rng.gen_range(0..blocks / shards) * shards + s
                    })
                })
                .collect()
        };
        for (j, queue) in queues.iter_mut().enumerate() {
            queue.push(round.get(j).cloned());
        }
    }
    queues
}

/// Rounds of concurrent windows on a ring-mode pool, with random trips.
/// `sched` is the writers' schedule; a [`Policy::Seeded`] seed is mixed
/// with each campaign seed, so every seed runs its own interleaving.
#[derive(Clone, Copy, Debug)]
pub struct RingPlan {
    pub shards: usize,
    pub rounds: usize,
    pub sched: Policy,
}

impl Plan for RingPlan {
    type App = PoolApp<Writers>;
    const NAME: &'static str = "ring";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let queues = mw_script(&mut rng, self.rounds, BLOCKS, self.shards as u64);
        let trip = pool_trip(&mut rng, seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0x3757);
        let cfg = small_pool(self.shards, CommitMode::LockFreeRing, false);
        let policy = match self.sched {
            Policy::Seeded(s) => Policy::Seeded(s ^ seed),
            rounds => rounds,
        };
        let work = Writers {
            queues,
            sched: Sched { policy },
            survive: false,
        };
        Ok((PoolApp::fresh(&cfg, BLOCKS, work), trip, cut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_rounds_disjoint() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plan_a = mw_script(&mut a, 30, BLOCKS, 4);
        let plan_b = mw_script(&mut b, 30, BLOCKS, 4);
        assert_eq!(plan_a, plan_b);
        let mut saw_multi = false;
        let mut saw_spanning = false;
        for r in 0..30 {
            let round: Vec<&TxnSpec> = plan_a.iter().filter_map(|q| q[r].as_ref()).collect();
            let mut blocks: Vec<u64> = round.iter().copied().flatten().map(|(b, _)| *b).collect();
            let n = blocks.len();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), n, "round blocks must be disjoint");
            saw_multi |= round.len() > 1;
            for spec in round {
                let s = spec[0].0 % 4;
                if spec.iter().all(|(b, _)| b % 4 == s) {
                    continue;
                }
                saw_spanning = true;
                assert_eq!(spec.len(), 4, "spanning rounds touch every shard");
                assert!(plan_a[0][r].as_ref() == Some(spec), "writer 0's");
            }
        }
        assert!(saw_multi, "plan never exercised concurrent windows");
        assert!(saw_spanning, "plan never exercised the spanning path");
    }
}
