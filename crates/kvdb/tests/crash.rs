//! Crash-consistency campaigns for both kvdb durability personalities:
//! random trip sweeps under both failure modes, bounded exhaustive
//! persist-frontier enumeration, and a directed sweep that cuts the power
//! between a meta-less commit and the split that next carries page 0. The
//! ignored 200-seed sweep runs in CI's dedicated kvdb crash step
//! (`--ignored`).
//!
//! The exact tallies of `kvdb::CAMPAIGNS` are pinned, beside crashsim's, in
//! the workspace's `tests/pinned_campaigns.rs`; the `pinned_` tests here
//! pin the directed sweep's splits. If a number moves, a trip, a cut or a
//! persistence event moved.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use crashsim::engine::{frontier, run_one, sweep, Crashable, Cut, Trip};
use crashsim::{AppOutcome, CampaignReport, FailureMode};
use kvdb::{
    KvApp, KvPlan, Meta, Personality, TincaStore, WalStore, TINCA_TRIP_MAX, TXNS, WAL_TRIP_MAX,
};

fn wal(base: u64, runs: u64, mode: FailureMode) -> CampaignReport {
    sweep(
        &KvPlan::<WalStore>::new(TXNS, WAL_TRIP_MAX, mode),
        base..base + runs,
    )
}

fn tinca(base: u64, runs: u64, mode: FailureMode) -> CampaignReport {
    sweep(
        &KvPlan::<TincaStore>::new(TXNS, TINCA_TRIP_MAX, mode),
        base..base + runs,
    )
}

#[test]
fn wal_kv_fuzz_power_pull_smoke() {
    let r = wal(0x11A0, 12, FailureMode::PowerPull);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn wal_kv_fuzz_process_kill_smoke() {
    let r = wal(0x11B0, 6, FailureMode::ProcessKill);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn tinca_kv_fuzz_power_pull_smoke() {
    let r = tinca(0x22A0, 12, FailureMode::PowerPull);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn tinca_kv_fuzz_process_kill_smoke() {
    let r = tinca(0x22B0, 6, FailureMode::ProcessKill);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.crashes > 0, "no seed crashed: widen the trip range");
}

#[test]
fn wal_kv_frontier_smoke() {
    let plan = KvPlan::<WalStore>::new(2, 0, FailureMode::PowerPull);
    let r = frontier(&plan, 0x33A0..0x33A1, 4);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.epochs_total > 0, "probe found no workload epochs");
    assert!(r.runs >= 2 * r.epochs_total);
}

#[test]
fn tinca_kv_frontier_smoke() {
    let plan = KvPlan::<TincaStore>::new(2, 0, FailureMode::PowerPull);
    let r = frontier(&plan, 0x44A0..0x44A1, 4);
    assert!(r.clean(), "violations: {:#?}", r.violations);
    assert!(r.epochs_total > 0, "probe found no workload epochs");
    // Both shards must contribute epochs: even pages (the meta page
    // among them, when a split moves it) commit on shard 0, odd ones on
    // shard 1.
    assert!(r.runs >= 2 * r.epochs_total);
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
            let crashed_clean = AppOutcome {
                crashed: true,
                verdict: Ok(()),
            };
            assert_eq!(
                run_one(&mut a, Trip { dev, at: k }, cut),
                crashed_clean,
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
    let mut violations = Vec::new();
    let mut crashes = 0u64;
    for (base, mode) in [
        (0xA000, FailureMode::PowerPull),
        (0xB000, FailureMode::ProcessKill),
    ] {
        for r in [wal(base, 50, mode), tinca(base ^ 0xF0F0, 50, mode)] {
            crashes += r.crashes;
            violations.extend(r.violations);
        }
    }
    println!(
        "{crashes} of 200 seeds crashed, {} violations",
        violations.len()
    );
    assert!(violations.is_empty(), "violations: {violations:#?}");
    assert!(crashes >= 40, "only {crashes} of 200 seeds crashed");
}
