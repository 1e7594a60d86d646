//! Crash campaigns for the multi-writer lock-free commit path: rounds of
//! concurrent windows, scripted or in seeded interleavings, crash
//! mid-reservation, mid-staging, mid-publication (descriptors flipped out
//! of ring order), and mid-sequencing; recovery must resume-or-roll-back
//! each window exactly once, keep every retired window durable, and leave
//! every per-shard and merged event trace persist-order clean.

use crashsim::engine::{frontier, sweep};
use crashsim::RingPlan;
use workloads::sched::Policy;

const fn ring(shards: usize, rounds: usize) -> RingPlan {
    RingPlan {
        shards,
        rounds,
        sched: Policy::Rounds,
    }
}

const fn seeded(shards: usize, rounds: usize) -> RingPlan {
    RingPlan {
        shards,
        rounds,
        sched: Policy::Seeded(0x5EED),
    }
}

/// The multi-writer acceptance sweep: 200 seeds of multi-window rounds
/// (plus interleaved spanning transactions) against a two-shard pool,
/// each crashing one shard at a random persistence event and resolving
/// the un-fenced write-back state adversarially. Zero violations
/// tolerated.
#[test]
fn mw_commit_path_survives_200_seed_sweep() {
    let report = sweep(&ring(2, 20), 0x3757_0000..0x3757_0000 + 200);
    assert!(
        report.clean(),
        "multi-writer crash-consistency violations: {:#?}",
        report.violations
    );
    assert!(report.crashes > 60, "crashes: {}", report.crashes);
}

#[test]
fn mw_four_shard_pool_survives_fuzz() {
    let report = sweep(&ring(4, 20), 0x3757_4444..0x3757_4444 + 30);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0);
}

#[test]
fn mw_single_shard_pool_survives_fuzz() {
    let report = sweep(&ring(1, 20), 0x3757_1111..0x3757_1111 + 20);
    assert!(report.clean(), "violations: {:#?}", report.violations);
    assert!(report.crashes > 0);
}

#[test]
fn mw_outcomes_are_deterministic_per_seed() {
    assert_eq!(
        sweep(&ring(2, 20), 1234..1235),
        sweep(&ring(2, 20), 1234..1235)
    );
}

/// Bounded-exhaustive companion to the random sweep: every fence epoch
/// of a short multi-writer workload is crashed at every enumerated
/// persist frontier — covering, in particular, every combination of
/// published / unpublished / torn `STAGED` descriptors within a round.
#[test]
fn mw_frontier_enumeration_recovers_clean() {
    let report = frontier(&ring(2, 4), 0x3757_F0F0..0x3757_F0F1, 6);
    assert!(
        report.clean(),
        "multi-writer frontier violations: {:#?}",
        report.violations
    );
    assert!(report.epochs_total > 0, "probe found no workload epochs");
    assert!(report.runs >= 2 * report.epochs_total);
}

#[test]
fn mw_frontier_enumeration_covers_publication_states() {
    let report = frontier(&ring(2, 3), 7..8, 4);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.epochs_total > 0, "probe found no workload epochs");
    // Multi-window rounds stage several payloads and descriptor
    // publications inside one fence epoch, so some epochs must have
    // exceeded the tiny cap.
    assert!(report.epochs_capped > 0, "{report}");
}

/// The writers in seeded interleavings of single steps: holes at the
/// retire frontier, partial sequencer rounds, spanning commits waiting out
/// the windows, conflicts between rounds.
#[test]
fn mw_seeded_schedules_survive_sweep() {
    for (shards, seeds) in [(1, 20), (2, 60), (4, 20)] {
        let report = sweep(&seeded(shards, 20), 0x5EED_0000..0x5EED_0000 + seeds);
        assert!(
            report.clean(),
            "{shards} shards: violations: {:#?}",
            report.violations
        );
        assert!(report.crashes > 0, "{shards} shards: {report}");
    }
}

#[test]
fn mw_seeded_outcomes_are_deterministic_per_seed() {
    assert_eq!(
        sweep(&seeded(2, 20), 1234..1240),
        sweep(&seeded(2, 20), 1234..1240)
    );
    // The interleaving moves the fence epochs, which a frontier run
    // enumerates.
    assert_ne!(
        frontier(&seeded(2, 4), 7..8, 4),
        frontier(&ring(2, 4), 7..8, 4),
        "the schedule must matter"
    );
}

#[test]
fn mw_seeded_frontier_enumeration_recovers_clean() {
    let report = frontier(&seeded(2, 4), 0x5EED_F0F0..0x5EED_F0F2, 4);
    assert!(report.clean(), "{:#?}", report.violations);
    assert!(report.epochs_total > 0, "probe found no workload epochs");
}

/// `bench mw_scaling --quick`'s two campaigns. `Rig` reads each shard's
/// metadata ranges without taking the cache lock, so the only edge from
/// the formatting (or recovering) thread to the ring's writers in the
/// trace is the cache-mutex release `TincaPool::format` and
/// `TincaPool::recover` end with. Without it the sweep reports 15
/// `UnorderedCommit` violations: a commit covers lines whose fence no
/// edge orders before it.
#[test]
fn format_and_recover_publish_the_regions_to_the_ring_writers() {
    let fuzz = sweep(&ring(2, 20), 0x3757_B900..0x3757_B900 + 40);
    assert!(fuzz.clean(), "{:#?}", fuzz.violations);
    let frontier = frontier(&ring(2, 3), 0x3757_B901..0x3757_B902, 6);
    assert!(frontier.clean(), "{:#?}", frontier.violations);
}
