//! Crash fuzzing for the sharded [`TincaPool`](tinca::TincaPool)
//! front-end.
//!
//! The FS-level fuzzer ([`crate::fuzz`]) exercises one single-threaded
//! stack. This module attacks the pool: a seeded script of block
//! transactions runs against an `N`-shard pool with a crash trip armed on
//! **one** shard's NVM device; when it fires mid-commit, *every* shard is
//! power-cycled (each resolving its un-fenced write-back state
//! adversarially), the pool is recovered shard by shard, and the engine
//! checks the result: every shard's internals and trace, the merged
//! pool-wide trace, every committed transaction, and the in-flight one
//! all-or-nothing **across every shard it touches** — the scripts draw
//! random blocks, so most transactions span shards and exercise the
//! pool's two-phase spanning commit.
//!
//! `delta_stage` is one more input: with it on the pool runs
//! [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), the
//! script draws from a narrow block range and the engine writes sparse
//! images, so most writes are rewrites that find a reserved shadow block,
//! skip most of its lines and store a few runs in both halves — and the
//! trip lands mid-way through rewriting one. With it off the script draws
//! from the wide range and the images are dense.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::CommitMode;

use crate::app::{campaign, AppOutcome};
use crate::engine::{small_pool, Cut, Rig, Trip, TxnSpec, SHARD_BYTES};
use crate::quiet_crash_panics;

fn script(rng: &mut StdRng, txns: usize, blocks: u64) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let n = rng.gen_range(1..=4usize);
            let mut spec: TxnSpec = Vec::with_capacity(n);
            while spec.len() < n {
                let b = rng.gen_range(0..blocks);
                if spec.iter().all(|(x, _)| *x != b) {
                    spec.push((b, rng.gen_range(1..=255u8).into()));
                }
            }
            spec
        })
        .collect()
}

/// Runs one seeded crash-fuzz iteration against an `N`-shard pool.
pub fn pool_fuzz_one(shards: usize, seed: u64, txns: usize, delta_stage: bool) -> AppOutcome {
    quiet_crash_panics();
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = if delta_stage { 16u64 } else { 96 };
    let (rig, pool) = Rig::new(
        small_pool(shards, CommitMode::Mutex, delta_stage),
        SHARD_BYTES,
    );
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
    let plan = script(&mut rng, txns, blocks);
    let trip = Trip {
        dev: (seed % shards as u64) as usize,
        at: rng.gen_range(1..4_000u64),
    };
    let cut = Cut::Random {
        seed: seed ^ 0xD1CE,
        shift: 17,
    };
    rig.run_seed(seed, trip, cut, &mut rig.oracle(blocks), |oracle| {
        oracle.commit_each(&pool, &plan);
    })
}

/// Runs a pool-fuzz campaign of `runs` seeds.
pub fn pool_fuzz_campaign(
    shards: usize,
    base_seed: u64,
    runs: u64,
    txns: usize,
    delta_stage: bool,
) -> crate::CampaignReport {
    campaign(runs, false, |i, _| {
        pool_fuzz_one(shards, base_seed + i, txns, delta_stage)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(script(&mut a, 20, 64), script(&mut b, 20, 64));
    }

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
