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
//! Two campaigns: [`mw_pool_fuzz_campaign`] (random trip + adversarial
//! write-back resolution per seed) and [`mw_frontier_campaign`] (bounded
//! exhaustive enumeration of every fence epoch's persist frontiers,
//! subsuming every line-granular crash state of the random sweep).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, MwAdmission, MwTicket, TincaPool};

use crate::app::{campaign, AppOutcome};
use crate::engine::{small_pool, tripped, BlockOracle, Cut, Rig, Trip, TxnSpec, SHARD_BYTES};
use crate::frontier::{pool_frontier, FrontierReport};
use crate::quiet_crash_panics;

/// Blocks the multi-writer scripts draw from.
const BLOCKS: u64 = 96;

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
                        .map(|s| (base * shards + s, rng.gen_range(1..=255u8).into()))
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
                            spec.push((b, rng.gen_range(1..=255u8).into()));
                        }
                    }
                    spec
                })
                .collect();
            MwRound::Writers(specs)
        })
        .collect()
}

/// Plays `plan` on the calling thread through the steppable window API,
/// every window in flight in `oracle` from its admission until its round
/// retires. The driving is deterministic, so every device's event stream
/// is replay-stable — which both the per-seed determinism of the fuzzer
/// and the frontier campaign's trip replay depend on.
fn play(pool: &TincaPool, plan: &[MwRound], oracle: &mut BlockOracle) {
    let images = oracle.images();
    for (round, step) in plan.iter().enumerate() {
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
}

/// Runs one seeded multi-writer crash-fuzz iteration: a random trip on
/// one shard, every shard's write-back state resolved adversarially.
pub fn mw_pool_fuzz_one(shards: usize, seed: u64, rounds: usize) -> AppOutcome {
    quiet_crash_panics();
    let mut rng = StdRng::seed_from_u64(seed);
    let (rig, pool) = Rig::new(
        small_pool(shards, CommitMode::LockFreeRing, false),
        SHARD_BYTES,
    );
    let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
    let plan = mw_script(&mut rng, rounds, BLOCKS, shards as u64);
    let trip = Trip {
        dev: (seed % shards as u64) as usize,
        at: rng.gen_range(1..4_000u64),
    };
    let cut = Cut::Random {
        seed: seed ^ 0x3757,
        shift: 17,
    };
    rig.run_seed(seed, trip, cut, &mut rig.oracle(BLOCKS), |oracle| {
        play(&pool, &plan, oracle);
    })
}

/// Runs a multi-writer crash-fuzz campaign of `runs` seeds.
pub fn mw_pool_fuzz_campaign(
    shards: usize,
    base_seed: u64,
    runs: u64,
    rounds: usize,
) -> crate::CampaignReport {
    campaign(runs, false, |i, _| {
        mw_pool_fuzz_one(shards, base_seed + i, rounds)
    })
}

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
    let plan = mw_script(
        &mut StdRng::seed_from_u64(seed),
        rounds,
        BLOCKS,
        shards as u64,
    );
    let cfg = small_pool(shards, CommitMode::LockFreeRing, false);
    pool_frontier(
        &cfg,
        BLOCKS,
        seed,
        cap_per_epoch,
        "shard",
        |rig, pool, oracle| Ok(tripped(&rig.devices, || play(pool, &plan, oracle)).is_none()),
    )
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
