//! Crash-consistency campaigns for both kvdb durability personalities:
//! random trip sweeps under both failure modes, bounded exhaustive
//! persist-frontier enumeration, and a directed sweep that cuts the power
//! between a meta-less commit and the split that next carries page 0. The
//! ignored 200-seed sweeps run in CI's dedicated kvdb crash step
//! (`--ignored`).
//!
//! The `pinned_` tests are the refactoring test for these campaigns, as
//! `crates/crashsim/tests/pinned_tallies.rs` is for crashsim's: exact
//! tallies of a small fixed seed range. If a number moves, a trip, a cut
//! or a persistence event moved.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use crashsim::engine::{run_one, Crashable, Cut, Trip};
use crashsim::{AppOutcome, FailureMode, FrontierReport};
use kvdb::{
    tinca_kv_frontier_campaign, tinca_kv_fuzz_campaign, wal_kv_frontier_campaign,
    wal_kv_fuzz_campaign, KvApp, Meta, Personality, TincaStore, WalStore,
};

/// Transactions per seeded plan.
const TXNS: usize = 15;
/// Trip ranges sized from measured event rates (~1430 events/txn for the
/// WAL stack; a 15-transaction run on the delta-staging pool emits 492
/// events per shard in the median and 879 at most), so trips land
/// mid-workload for most seeds while some seeds run to completion. A
/// change that moves a stack's event count moves its range with it, or
/// fewer seeds crash.
const WAL_TRIP_MAX: u64 = 20_000;
const TINCA_TRIP_MAX: u64 = 1_000;

#[test]
fn wal_kv_fuzz_power_pull_smoke() {
    let r = wal_kv_fuzz_campaign(0x11A0, 12, TXNS, WAL_TRIP_MAX, FailureMode::PowerPull);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn wal_kv_fuzz_process_kill_smoke() {
    let r = wal_kv_fuzz_campaign(0x11B0, 6, TXNS, WAL_TRIP_MAX, FailureMode::ProcessKill);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn tinca_kv_fuzz_power_pull_smoke() {
    let r = tinca_kv_fuzz_campaign(0x22A0, 12, TXNS, TINCA_TRIP_MAX, FailureMode::PowerPull);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn tinca_kv_fuzz_process_kill_smoke() {
    let r = tinca_kv_fuzz_campaign(0x22B0, 6, TXNS, TINCA_TRIP_MAX, FailureMode::ProcessKill);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn wal_kv_frontier_smoke() {
    let r = wal_kv_frontier_campaign(0x33A0, 2, 4);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.epochs_total > 0, "probe found no workload epochs");
    assert!(r.states_run >= 2 * r.epochs_total);
}

#[test]
fn tinca_kv_frontier_smoke() {
    let r = tinca_kv_frontier_campaign(0x44A0, 2, 4);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.epochs_total > 0, "probe found no workload epochs");
    // Both shards must contribute epochs: even pages (the meta page
    // among them, when a split moves it) commit on shard 0, odd ones on
    // shard 1.
    assert!(r.states_run >= 2 * r.epochs_total);
}

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
fn pinned_kv_fuzz_tallies() {
    let (pull, kill) = (FailureMode::PowerPull, FailureMode::ProcessKill);
    let wal = |base, runs, mode| wal_kv_fuzz_campaign(base, runs, TXNS, WAL_TRIP_MAX, mode);
    let tinca = |base, runs, mode| tinca_kv_fuzz_campaign(base, runs, TXNS, TINCA_TRIP_MAX, mode);
    assert_eq!(tally!(wal(0x11A0, 6, pull)), (6, 2, 4));
    assert_eq!(tally!(wal(0x11B0, 4, kill)), (4, 3, 1));
    assert_eq!(tally!(tinca(0x22A0, 12, pull)), (12, 7, 5));
    assert_eq!(tally!(tinca(0x22B0, 6, kill)), (6, 3, 3));
}

#[test]
fn pinned_kv_frontier_tallies() {
    assert_eq!(
        epochs(wal_kv_frontier_campaign(0x33A0, 1, 2)),
        (12, 0, 12, 24)
    );
    assert_eq!(
        epochs(tinca_kv_frontier_campaign(0x44A0, 2, 4)),
        (12, 10, 2, 28)
    );
}

// ---------------------------------------------------------------------------
// Directed: a power cut between a meta-less commit and the next split
// ---------------------------------------------------------------------------

/// A plan whose first split (transaction 10) directly follows a commit that
/// left page 0 alone.
const CUT_SEED: u64 = 7;

/// What the directed sweep reads off a crash app once it has run.
struct Seen {
    /// Persistence events so far, per trippable device.
    events: Vec<u64>,
    meta: Meta,
    commit_seq: u64,
    /// Commits that took the pool's two-phase spanning path (Tinca only).
    spanning_commits: u64,
    committed_count: usize,
    rolled_forward: bool,
}

/// The page the every-commit meta write used to paper over: commit `i - 1`
/// leaves page 0 alone, commit `i` splits (new frontier, maybe a new root)
/// and so carries it. Builds personality `S`'s crash app over the first
/// `txns` transactions of one seeded plan, for every prefix, to find `i`.
/// Cuts the power at up to `samples` instants spread over transaction `i`
/// on every device, plus its last few events; the app's own oracle checks
/// that the remounted tree is whole and holds exactly the transactions
/// before `i`, or those and `i`. `spanning_commits` reads how many commits
/// took the pool's two-phase spanning path. Returns how many cuts rolled
/// `i` back and forward, and whether `i` was a spanning commit.
fn cut_between_meta_less_and_split<S: Personality>(
    spanning_commits: impl Fn(&S) -> u64,
    samples: u64,
) -> (u32, u32, bool) {
    let app = |txns: usize| KvApp::<S>::new(CUT_SEED, txns).unwrap();
    let seen = |a: &KvApp<S>| {
        let db = a.db().unwrap();
        Seen {
            events: a.devices().iter().map(|d| d.events()).collect(),
            meta: db.meta().clone(),
            commit_seq: db.commit_seq(),
            spanning_commits: spanning_commits(db.store()),
            committed_count: a.committed_count(),
            rolled_forward: a.rolled_forward(),
        }
    };
    // Probe: the state after each prefix of the plan, no trip armed.
    let after = |txns: usize| {
        let mut a = app(txns);
        assert_eq!(a.drive(), Ok(()));
        seen(&a)
    };
    let mut ends = vec![after(0), after(1)];
    let i = loop {
        let i = ends.len() - 1;
        assert!(i < TXNS, "no split right after a meta-less commit");
        ends.push(after(i + 1));
        let (prev, this, next) = (&ends[i - 1], &ends[i], &ends[i + 1]);
        if this.commit_seq > prev.commit_seq && this.meta == prev.meta && next.meta != this.meta {
            break i;
        }
    };

    let cut = Cut::of(FailureMode::PowerPull, CUT_SEED ^ 0xD1CE);
    let (mut back, mut forward) = (0, 0);
    for dev in 0..ends[0].events.len() {
        let armed_at = ends[0].events[dev];
        let (lo, hi) = (
            ends[i].events[dev] - armed_at,
            ends[i + 1].events[dev] - armed_at,
        );
        let stride = ((hi - lo) / samples).max(1);
        let trips = (lo + 1..=hi)
            .step_by(stride as usize)
            .chain(hi.saturating_sub(3).max(lo + 1)..=hi);
        for k in trips {
            let mut a = app(i + 1);
            assert_eq!(
                run_one(&mut a, Trip { dev, at: k }, cut),
                AppOutcome::CrashedVerified,
                "device {dev} trip {k}"
            );
            let s = seen(&a);
            assert_eq!(s.committed_count, i, "device {dev} trip {k} fired early");
            if s.rolled_forward {
                forward += 1;
            } else {
                back += 1;
            }
        }
    }
    let spanning = ends[i + 1].spanning_commits > ends[i].spanning_commits;
    (back, forward, spanning)
}

#[test]
fn pinned_tinca_kv_cut_between_meta_less_commit_and_split() {
    // The split batch spans both shards (page 0 on shard 0, an odd page on
    // shard 1): before the intent resolves it rolls back, after, forward.
    let (back, forward, spanning) = cut_between_meta_less_and_split(
        |store: &TincaStore| store.pool().stats().spanning_commits,
        12,
    );
    assert!(spanning, "the split batch stayed on one shard");
    assert!(back > 0 && forward > 0, "{back} back, {forward} forward");
    assert_eq!((back, forward), (25, 10));
}

#[test]
fn pinned_wal_kv_cut_between_meta_less_commit_and_split() {
    let (back, forward, _) = cut_between_meta_less_and_split(|_: &WalStore| 0, 12);
    assert!(back > 0 && forward > 0, "{back} back, {forward} forward");
    assert_eq!((back, forward), (12, 5));
}

/// The 200-seed sweep CI runs with `--ignored`: 100 seeds per
/// personality, both failure modes interleaved.
#[test]
#[ignore = "long: run via cargo test -p kvdb --release --test crash -- --ignored"]
fn kv_fuzz_200_seeds() {
    let mut violations: Vec<String> = Vec::new();
    let mut crashes = 0u64;
    for (base, mode) in [
        (0xA000, FailureMode::PowerPull),
        (0xB000, FailureMode::ProcessKill),
    ] {
        let w = wal_kv_fuzz_campaign(base, 50, TXNS, WAL_TRIP_MAX, mode);
        crashes += w.crashes;
        violations.extend(w.violations);
        let t = tinca_kv_fuzz_campaign(base ^ 0xF0F0, 50, TXNS, TINCA_TRIP_MAX, mode);
        crashes += t.crashes;
        violations.extend(t.violations);
    }
    println!(
        "{crashes} of 200 seeds crashed, {} violations",
        violations.len()
    );
    assert!(violations.is_empty(), "violations: {violations:#?}");
    assert!(crashes >= 40, "only {crashes} of 200 seeds crashed");
}
