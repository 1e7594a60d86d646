//! Disk faults crossed with spanning transactions: the fault-fuzz
//! campaign on a two-shard pool in mutex mode. Its random-block script
//! makes most transactions span both shards, so the two-phase spanning
//! commit runs — and is cut — under transient read/write bursts, latency
//! spikes and permanently bad block ranges, with the destage pipeline on
//! for odd seeds.

use crashsim::{fault_fuzz_campaign, fault_fuzz_one};

#[test]
fn two_shard_fault_fuzz_smoke() {
    let report = fault_fuzz_campaign(2, 0xFA57_2000, 12, 40);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0, "no seed crashed");
    assert!(report.transients_absorbed > 0, "no fault was injected");
}

#[test]
fn two_shard_outcomes_are_deterministic_per_seed() {
    assert_eq!(fault_fuzz_one(2, 41, 40), fault_fuzz_one(2, 41, 40));
}

/// The acceptance sweep: 200 seeds, zero violations tolerated.
#[test]
#[ignore = "long: run via cargo test -p crashsim --release --test fault_crash -- --ignored"]
fn fault_x_spanning_200_seed_sweep() {
    let report = fault_fuzz_campaign(2, 0xFA57_5000, 200, 40);
    println!(
        "fault x spanning: {} runs, {} crashes, {} completed, {} degraded, \
         {} transients absorbed over {} retries, {} permanent errors",
        report.runs,
        report.crashes,
        report.completed,
        report.degraded,
        report.transients_absorbed,
        report.io_retries,
        report.permanent_errors
    );
    assert!(
        report.clean(),
        "fault x spanning violations: {:#?}",
        report.violations
    );
    assert!(report.crashes > 60, "crashes: {}", report.crashes);
}
