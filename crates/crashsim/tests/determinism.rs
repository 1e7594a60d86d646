//! Every sweep entry of `crashsim::CAMPAIGNS` reports the same twice at
//! its first seed: a seed fixes its script, its trip and its cut, and
//! nothing else (thread timing, hash order, a global RNG) may move an
//! outcome. The exact tallies are pinned in the workspace's
//! `tests/pinned_campaigns.rs`.

use crashsim::{Campaign, CAMPAIGNS};

fn entry(name: &str) -> &'static Campaign {
    CAMPAIGNS
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no campaign entry {name:?}"))
}

#[test]
fn every_sweep_is_deterministic_per_seed() {
    for c in CAMPAIGNS {
        // A frontier entry's report says so even over no seeds.
        if c.report(0).cap_per_epoch == 0 {
            assert_eq!(c.report(1), c.report(1), "{}", c.name);
        }
    }
}

/// The two ring frontier entries differ only in their schedule, at the
/// same seed: the interleaving moves the fence epochs a frontier run
/// enumerates.
#[test]
fn the_schedule_moves_the_frontier() {
    assert_ne!(
        entry("ring-seeded-frontier").report(1),
        entry("ring-frontier").report(1),
        "the schedule must matter"
    );
}
