//! The refactoring test for the crash campaigns: exact tallies for a
//! small fixed seed range of every campaign.
//!
//! The other crash tests assert loose bounds (`crashes > 60`), which a
//! trip drawn from a different RNG draw, a cut resolved with a different
//! seed or an extra persistence event would all slip past. These numbers
//! were recorded before the campaigns moved onto the shared engine and
//! must not move: every seed keeps its verdict, its trip and its cut.
//! A change that is *meant* to move them (a new script draw, a protocol
//! that spends more persistence events) updates them in the same commit
//! and says why.

use crashsim::{
    backlog_campaign, fault_fuzz_campaign, fuzz_system, fuzz_system_opts, mw_frontier_campaign,
    mw_pool_fuzz_campaign, pool_frontier_campaign, pool_fuzz_campaign, spanning_frontier_campaign,
    FailureMode, FrontierReport,
};
use fssim::stack::System;

/// `(runs, completed, crashes)` of a random-trip campaign, which must be
/// clean.
macro_rules! tally {
    ($r:expr) => {{
        let r = $r;
        assert!(r.violations.is_empty(), "{:#?}", r.violations);
        (r.runs, r.completed, r.crashes)
    }};
}

/// `(epochs_total, epochs_exhaustive, epochs_capped, states_run)` of a
/// clean frontier campaign.
fn epochs(r: FrontierReport) -> (u64, u64, u64, u64) {
    assert!(r.clean(), "{:#?}", r.violations);
    (
        r.epochs_total,
        r.epochs_exhaustive,
        r.epochs_capped,
        r.states_run,
    )
}

#[test]
fn pool_fuzz_tallies() {
    assert_eq!(
        tally!(pool_fuzz_campaign(4, 0x900D, 24, 40, false)),
        (24, 7, 17)
    );
    assert_eq!(
        tally!(pool_fuzz_campaign(1, 0xDE17A1, 24, 40, true)),
        (24, 0, 24)
    );
    assert_eq!(
        tally!(pool_fuzz_campaign(2, 0xDE17A2, 24, 40, true)),
        (24, 3, 21)
    );
}

#[test]
fn mw_fuzz_tallies() {
    assert_eq!(
        tally!(mw_pool_fuzz_campaign(2, 0x3757_0000, 24, 20)),
        (24, 7, 17)
    );
}

#[test]
fn fault_fuzz_tallies() {
    let r = fault_fuzz_campaign(1, 0xFA57_0000, 40, 40);
    let counters = (
        r.degraded,
        r.transients_absorbed,
        r.io_retries,
        r.permanent_errors,
    );
    assert_eq!(tally!(r), (40, 14, 26));
    assert_eq!(counters, (0, 20, 42, 2));
}

#[test]
fn backlog_tallies() {
    let r = backlog_campaign(2, 0x2B10, 10);
    let shed = r.shed;
    assert_eq!(tally!(r), (10, 6, 4));
    assert_eq!(shed, 937);
}

#[test]
fn fs_fuzz_tallies() {
    assert_eq!(tally!(fuzz_system(System::Tinca, 1000, 10, 60)), (10, 8, 2));
    let destage = fuzz_system_opts(System::Tinca, 7000, 10, 60, FailureMode::PowerPull, true);
    assert_eq!(tally!(destage), (10, 7, 3));
}

#[test]
fn frontier_tallies() {
    assert_eq!(
        epochs(mw_frontier_campaign(2, 0x3757_F0F0, 3, 4)),
        (38, 33, 5, 86)
    );
    assert_eq!(
        epochs(pool_frontier_campaign(2, 5, 2, 4, false)),
        (32, 26, 6, 76)
    );
    assert_eq!(
        epochs(spanning_frontier_campaign(2, 9, 2, 4, false)),
        (34, 30, 4, 76)
    );
    assert_eq!(
        epochs(spanning_frontier_campaign(2, 9, 4, 4, true)),
        (68, 60, 8, 152)
    );
}
