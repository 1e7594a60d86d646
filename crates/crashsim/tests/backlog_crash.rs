//! Crash-mid-backlog campaign: a power cut while the open-loop tier is
//! overloaded (queue full, admission shedding) must never corrupt
//! recovery, and shed/queued ops must leave no trace.

use crashsim::{backlog_campaign, AppOutcome};

#[test]
fn campaign_over_seeds_is_clean_and_actually_crashes_mid_backlog() {
    let report = backlog_campaign(4, 0xB10C, 40);
    assert_eq!(report.runs, 40);
    assert!(
        report.crashes >= 10,
        "only {} trips fired — the campaign barely crashes",
        report.crashes
    );
    assert!(
        report.shed > 0,
        "no ops were shed: the overload never built a backlog"
    );
    assert!(
        report.clean(),
        "oracle violations:\n{}",
        report.violations.join("\n")
    );
}

#[test]
fn two_shard_campaign_is_clean() {
    let report = backlog_campaign(2, 0x2B10, 20);
    assert_eq!(report.runs, 20);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.crashes + report.completed == 20);
}

#[test]
fn outcomes_are_deterministic_per_seed() {
    let a = crashsim::backlog_one(2, 11);
    let b = crashsim::backlog_one(2, 11);
    assert_eq!(a, b);
    assert!(!matches!(a, AppOutcome::Violation(_)), "{a:?}");
}
