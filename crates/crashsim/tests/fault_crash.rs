//! Disk faults crossed with spanning transactions: the fault-fuzz plan on
//! a two-shard pool, behind the commit mutex and through the lock-free
//! ring. Its random-block script makes most transactions span both
//! shards, so the two-phase spanning commit runs — and is cut — under
//! transient read/write bursts, latency spikes and permanently bad block
//! ranges, with the destage pipeline on for odd seeds.

use crashsim::engine::sweep;
use crashsim::{CampaignReport, FaultsPlan};
use tinca::CommitMode;

fn fault_fuzz(mode: CommitMode, seed: u64, runs: u64) -> CampaignReport {
    let plan = FaultsPlan {
        shards: 2,
        txns: 40,
        mode,
    };
    sweep(&plan, seed..seed + runs)
}

#[test]
fn two_shard_fault_fuzz_smoke() {
    let report = fault_fuzz(CommitMode::Mutex, 0xFA57_2000, 12);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0, "no seed crashed");
    assert!(report.transients_absorbed > 0, "no fault was injected");
}

#[test]
fn two_shard_outcomes_are_deterministic_per_seed() {
    for mode in [CommitMode::Mutex, CommitMode::LockFreeRing] {
        assert_eq!(fault_fuzz(mode, 41, 1), fault_fuzz(mode, 41, 1));
    }
}

/// The acceptance sweep: 200 seeds, zero violations tolerated.
fn sweep_200(mode: CommitMode, seed: u64) {
    let report = fault_fuzz(mode, seed, 200);
    println!("fault x spanning ({mode:?}): {report}");
    assert!(
        report.clean(),
        "fault x spanning violations: {:#?}",
        report.violations
    );
    assert!(report.crashes > 60, "crashes: {}", report.crashes);
}

#[test]
#[ignore = "long: run via cargo test -p crashsim --release --test fault_crash -- --ignored"]
fn fault_x_spanning_200_seed_sweep() {
    sweep_200(CommitMode::Mutex, 0xFA57_5000);
}

/// Disk faults × the lock-free ring × spanning transactions.
#[test]
#[ignore = "long: run via cargo test -p crashsim --release --test fault_crash -- --ignored"]
fn fault_x_ring_x_spanning_200_seed_sweep() {
    sweep_200(CommitMode::LockFreeRing, 0xFA57_6000);
}
