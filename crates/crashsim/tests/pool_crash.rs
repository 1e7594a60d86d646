//! Crash-fuzz campaign over the sharded pool: crash one shard mid-commit,
//! power-cycle all shards, recover, and verify durability, whole-
//! transaction atomicity across shards, and persist-order cleanliness on
//! every shard and on the merged pool-wide trace.

use crashsim::{pool_fuzz_campaign, pool_fuzz_one};

#[test]
fn four_shard_pool_survives_fuzz_campaign() {
    let report = pool_fuzz_campaign(4, 0x900D, 24, 40, false);
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
    let report = pool_fuzz_campaign(1, 0x1D, 10, 40, false);
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
    let report = pool_fuzz_campaign(4, 0x59A7, 200, 40, false);
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
        let a = pool_fuzz_one(4, 77, 30, delta_stage);
        let b = pool_fuzz_one(4, 77, 30, delta_stage);
        assert_eq!(a, b);
    }
}

/// The same sweep with delta staging on, single-shard and spanning: the
/// scripts rewrite a narrow block range, so most commits rewrite reserved
/// shadow blocks in place and the trips land mid-rewrite.
#[test]
fn delta_staged_commits_survive_200_seed_sweeps() {
    for (shards, base_seed) in [(1, 0xDE17A1), (2, 0xDE17A2)] {
        let report = pool_fuzz_campaign(shards, base_seed, 200, 40, true);
        assert!(
            report.clean(),
            "{shards}-shard delta-staging violations: {:#?}",
            report.violations
        );
        assert!(report.crashes > 60, "crashes: {}", report.crashes);
    }
}
