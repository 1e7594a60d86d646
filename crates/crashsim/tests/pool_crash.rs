//! Crash-fuzz campaign over the sharded pool: crash one shard mid-commit,
//! power-cycle all shards, recover, and verify durability, whole-
//! transaction atomicity across shards, and persist-order cleanliness on
//! every shard and on the merged pool-wide trace.

use crashsim::engine::{frontier, sweep};
use crashsim::{CampaignReport, PoolPlan, ThreadedPlan};

/// `runs` seeds from `seed` on an `shards`-shard pool, 40 transactions
/// per script.
fn pool_fuzz(shards: usize, seed: u64, runs: u64, delta_stage: bool) -> CampaignReport {
    let plan = PoolPlan {
        shards,
        txns: 40,
        delta_stage,
    };
    sweep(&plan, seed..seed + runs)
}

#[test]
fn four_shard_pool_survives_fuzz_campaign() {
    let report = pool_fuzz(4, 0x900D, 24, false);
    assert!(
        report.clean(),
        "pool crash-consistency violations: {:#?}",
        report.violations
    );
    assert!(
        report.crashes > 0,
        "campaign never crashed — trips too late for the workload size"
    );
}

#[test]
fn single_shard_pool_survives_fuzz() {
    let report = pool_fuzz(1, 0x1D, 10, false);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0);
}

/// The spanning-commit acceptance sweep: 200 seeds of random-block
/// scripts (most transactions span shards), each crashing one shard at a
/// random persistence event — including between fragments and during the
/// intent publish/resolve — then power-cycling all shards. Zero torn
/// transactions tolerated.
#[test]
fn spanning_txns_all_or_nothing_200_seed_sweep() {
    let report = pool_fuzz(4, 0x59A7, 200, false);
    assert!(
        report.clean(),
        "spanning crash-consistency violations: {:#?}",
        report.violations
    );
    // ~half the seeds trip mid-script (the rest complete first); keep a
    // wide margin so the assertion only catches a broken trip mechanism.
    assert!(report.crashes > 60, "crashes: {}", report.crashes);
}

#[test]
fn outcomes_are_deterministic_per_seed() {
    for delta_stage in [false, true] {
        let plan = PoolPlan {
            shards: 4,
            txns: 30,
            delta_stage,
        };
        assert_eq!(sweep(&plan, 77..78), sweep(&plan, 77..78));
    }
}

/// The same sweep with delta staging on, single-shard and spanning: the
/// scripts rewrite a narrow block range, so most commits rewrite reserved
/// shadow blocks in place and the trips land mid-rewrite.
#[test]
fn delta_staged_commits_survive_200_seed_sweeps() {
    for (shards, base_seed) in [(1, 0xDE17A1), (2, 0xDE17A2)] {
        let report = pool_fuzz(shards, base_seed, 200, true);
        assert!(
            report.clean(),
            "{shards}-shard delta-staging violations: {:#?}",
            report.violations
        );
        assert!(report.crashes > 60, "crashes: {}", report.crashes);
    }
}

/// Delta staging on the threaded frontier: four commits per thread over
/// its two blocks, so the later ones rewrite shadows, and every enumerated
/// frontier of every shard recovers clean.
#[test]
fn threaded_delta_staged_frontier_recovers_clean() {
    let plan = ThreadedPlan {
        shards: 2,
        txns_per_thread: 4,
        delta_stage: true,
    };
    let report = frontier(&plan, 5..6, 4);
    println!("delta threaded frontier: {report}");
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.runs >= 2 * report.epochs_total);
}
