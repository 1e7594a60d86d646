//! Crash plans for the sharded [`TincaPool`](tinca::TincaPool) front-end
//! that commit a script one transaction at a time.
//!
//! [`PoolPlan`] attacks the pool with random trips: a seeded script of
//! block transactions runs against an `N`-shard pool with a crash trip
//! armed on **one** shard's NVM device; when it fires mid-commit, *every*
//! shard is power-cycled (each resolving its un-fenced write-back state
//! adversarially), the pool is recovered shard by shard, and the engine
//! checks the result: every shard's internals and trace, the merged
//! pool-wide trace, every committed transaction, and the in-flight one
//! all-or-nothing **across every shard it touches** — the scripts draw
//! random blocks, so most transactions span shards and exercise the
//! pool's two-phase spanning commit.
//!
//! `delta_stage` is one more axis: with it on the pool runs
//! [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), the
//! script draws from a narrow block range and the engine writes sparse
//! images, so most writes are rewrites that find a reserved shadow block,
//! skip most of its lines and store a few runs in both halves — and the
//! trip lands mid-way through rewriting one. With it off the script draws
//! from the wide range and the images are dense.
//!
//! [`SpanningPlan`] is the frontier enumerator's: a single-threaded stream
//! of transactions that each touch **every** shard, so each commit runs
//! the two-phase spanning protocol, and the enumerated crashes land inside
//! the intent publish, between fragment prepares, around the resolve
//! store, and during window retirement.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::CommitMode;

use crate::engine::{draw_txn, pool_trip, small_pool, Cut, Plan, PoolApp, Trip, TxnSpec, Writers};
use crate::FailureMode::PowerPull;
use crate::Finding;

/// Random trips over a script of 1–4-block transactions.
#[derive(Clone, Copy, Debug)]
pub struct PoolPlan {
    pub shards: usize,
    /// Transactions per script.
    pub txns: usize,
    pub delta_stage: bool,
}

fn script(rng: &mut StdRng, txns: usize, blocks: u64) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let n = rng.gen_range(1..=4usize);
            draw_txn(rng, n, &mut HashSet::new(), |rng| rng.gen_range(0..blocks))
        })
        .collect()
}

impl Plan for PoolPlan {
    type App = PoolApp<Writers>;
    const NAME: &'static str = "pool";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = if self.delta_stage { 16u64 } else { 96 };
        let work = Writers::serial(script(&mut rng, self.txns, blocks));
        let trip = pool_trip(&mut rng, seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0xD1CE);
        let cfg = small_pool(self.shards, CommitMode::Mutex, self.delta_stage);
        Ok((PoolApp::fresh(&cfg, blocks, work), trip, cut))
    }
}

/// Transactions that each write one block on every shard: block
/// `base * shards + s` on shard `s`. With `delta_stage` every transaction
/// rewrites the same block per shard and the images are sparse, so from
/// the third transaction on each fragment rewrites a reserved shadow block
/// and the enumerated frontiers are subsets of the few lines it stored, in
/// both halves of the block. With `coalesce` the pool runs
/// [`TincaConfig::coalesce_flushes`](tinca::TincaConfig::coalesce_flushes):
/// each fragment stores its payload, entry and ring slot unfenced and
/// drains them with one fence before its `Head` move, so the frontiers
/// enumerate subsets of all three.
#[derive(Clone, Copy, Debug)]
pub struct SpanningPlan {
    pub shards: usize,
    pub txns: usize,
    pub delta_stage: bool,
    pub coalesce: bool,
}

impl Plan for SpanningPlan {
    type App = PoolApp<Writers>;
    const NAME: &'static str = "spanning";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (bases, shards) = (if self.delta_stage { 1 } else { 12 }, self.shards as u64);
        let plan: Vec<TxnSpec> = (0..self.txns)
            .map(|_| {
                let base = rng.gen_range(0..bases);
                let mut b = base * shards;
                draw_txn(&mut rng, self.shards, &mut HashSet::new(), |_| {
                    b += 1;
                    b - 1
                })
            })
            .collect();
        let trip = pool_trip(&mut rng, seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0xD1CE);
        let mut cfg = small_pool(self.shards, CommitMode::Mutex, self.delta_stage);
        cfg.cache.coalesce_flushes = self.coalesce;
        let work = Writers::serial(plan);
        Ok((PoolApp::fresh(&cfg, bases * shards, work), trip, cut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_txns_have_distinct_blocks() {
        let mut rng = StdRng::seed_from_u64(11);
        for spec in script(&mut rng, 50, 16) {
            let mut blocks: Vec<u64> = spec.iter().map(|(b, _)| *b).collect();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), spec.len());
        }
    }
}
