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
//! every window admitted since is all-or-nothing on its own (the
//! engine's oracle judges each in-flight transaction separately), and
//! every shard's trace — plus the merged pool-wide trace — passes the
//! persist-order analyzer.
//!
//! One plan, [`RingPlan`], is swept and enumerated. Writers stage and
//! publish **without fencing** (only the sequencer fences), so a round's
//! payloads *and* `STAGED` publications share one fence epoch, and its
//! frontiers cover every publication order a real multi-writer race could
//! persist.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, MwAdmission, MwTicket, TincaPool};

use crate::engine::{
    draw_txn, pool_trip, small_pool, BlockOracle, Cut, Plan, PoolApp, Rig, Trip, TxnSpec, Workload,
};
use crate::FailureMode::PowerPull;
use crate::Finding;

/// Blocks the multi-writer scripts draw from.
const BLOCKS: u64 = 96;

/// One step of the multi-writer plan.
#[derive(Clone, Debug)]
pub enum MwRound {
    /// Concurrent single-shard windows: all reserved and staged, then
    /// published in a rotated order, then sequenced.
    Writers(Vec<TxnSpec>),
    /// One transaction touching every shard, committed through the
    /// spanning two-phase path (which quiesces the ring first).
    Spanning(TxnSpec),
}

/// Seeded plan: mostly multi-window rounds (1–3 windows of 1–2 blocks,
/// pairwise block-disjoint so admissions never conflict), with an
/// occasional spanning transaction when the pool has several shards.
fn mw_script(rng: &mut StdRng, rounds: usize, blocks: u64, shards: u64) -> Vec<MwRound> {
    (0..rounds)
        .map(|_| {
            let mut used: HashSet<u64> = HashSet::new();
            if shards > 1 && rng.gen_range(0..5) == 0 {
                let mut b = rng.gen_range(0..blocks / shards) * shards;
                return MwRound::Spanning(draw_txn(rng, shards as usize, &mut used, |_| {
                    b += 1;
                    b - 1
                }));
            }
            let k = rng.gen_range(1..=3usize);
            let specs = (0..k)
                .map(|_| {
                    let s = rng.gen_range(0..shards);
                    let n = rng.gen_range(1..=2usize);
                    draw_txn(rng, n, &mut used, |rng| {
                        rng.gen_range(0..blocks / shards) * shards + s
                    })
                })
                .collect();
            MwRound::Writers(specs)
        })
        .collect()
}

/// Plays the plan on the calling thread through the steppable window API,
/// every window in flight in the oracle from its admission until its
/// round retires. The driving is deterministic, so every device's event
/// stream is replay-stable — which both the per-seed determinism of the
/// sweep and the frontier enumerator's trip replay depend on.
impl Workload for Vec<MwRound> {
    fn play(&mut self, _: &Rig, pool: &TincaPool, oracle: &mut BlockOracle) -> Result<(), Finding> {
        let images = oracle.images();
        for (round, step) in self.iter().enumerate() {
            match step {
                MwRound::Spanning(spec) => {
                    oracle.begin(spec);
                    pool.commit(images.txn(pool, spec))
                        .expect("mw spanning commit");
                }
                MwRound::Writers(specs) => {
                    let mut tickets: Vec<MwTicket> = Vec::with_capacity(specs.len());
                    for spec in specs {
                        oracle.begin(spec);
                        match pool
                            .mw_try_begin(images.txn(pool, spec))
                            .expect("mw admission")
                        {
                            MwAdmission::Admitted(tk) => tickets.push(tk),
                            // Rounds are block-disjoint and fully retired
                            // before the next one starts.
                            MwAdmission::Busy(_) => {
                                panic!("unexpected Busy admission in disjoint round")
                            }
                        }
                    }
                    for tk in tickets.iter_mut() {
                        pool.mw_stage(tk);
                    }
                    // Publish out of ring order: the rotation makes the crash
                    // land with arbitrary STAGED/RESERVED mixes.
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
            oracle.commit();
        }
        Ok(())
    }
}

/// Rounds of concurrent windows on a ring-mode pool, with random trips.
#[derive(Clone, Copy, Debug)]
pub struct RingPlan {
    pub shards: usize,
    pub rounds: usize,
}

impl Plan for RingPlan {
    type App = PoolApp<Vec<MwRound>>;
    const NAME: &'static str = "ring";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = mw_script(&mut rng, self.rounds, BLOCKS, self.shards as u64);
        let trip = pool_trip(&mut rng, seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0x3757);
        let cfg = small_pool(self.shards, CommitMode::LockFreeRing, false);
        Ok((PoolApp::fresh(&cfg, BLOCKS, plan), trip, cut))
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
}
