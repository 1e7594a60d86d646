//! Directed crash tests for both kvdb durability personalities: one cuts
//! the power between a meta-less commit and the split that next carries
//! page 0, the other at every event of the first commit that fires the
//! destage daemon.
//!
//! The personalities' sweeps and frontiers are `kvdb::CAMPAIGNS` entries,
//! whose exact tallies are pinned, beside crashsim's, in the workspace's
//! `tests/pinned_campaigns.rs`; the `pinned_` tests here pin the directed
//! sweeps' splits. If a number moves, a trip, a cut or a persistence event
//! moved.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::ops::Range;

use crashsim::engine::{run_one, Crashable, Cut, Trip};
use crashsim::{AppOutcome, FailureMode, Finding};
use kvdb::{
    KvApp, KvError, Meta, PageStore, Personality, StoreStats, TincaStore, TincaStoreConfig,
    WalStore, PAGE_SIZE, TXNS,
};
use nvmsim::{Nvm, TraceEvent};

// ---------------------------------------------------------------------------
// Directed: a power cut between a meta-less commit and the next split
// ---------------------------------------------------------------------------

/// A plan whose first split (transaction 10) directly follows a commit that
/// left page 0 alone.
const CUT_SEED: u64 = 7;

/// Builds personality `S`'s crash app over the first `i + 1` transactions
/// of `seed`'s plan once per trip in `trips` (each counted from where
/// [`run_one`] arms it, after the format) and cuts the power there. Every cut
/// must fire inside transaction `i` — the oracle holds the records of the
/// `i` before it durable, as it does after the first `i` run uncut — and
/// pass the app's own checks: store internals, the persist-order audit of
/// every device, and the all-or-nothing oracle. Returns, per trip, whether
/// `i` rolled forward.
fn cut_through_commit<S: Personality>(seed: u64, i: usize, trips: &[Trip]) -> Vec<bool> {
    let cut = Cut::of(FailureMode::PowerPull, seed ^ 0xD1CE);
    let crashed_clean = AppOutcome {
        crashed: true,
        verdict: Ok(()),
    };
    let mut uncut = KvApp::<S>::new(seed, i).unwrap();
    assert_eq!(uncut.drive(), Ok(()));
    trips
        .iter()
        .map(|&trip| {
            let mut a = KvApp::<S>::new(seed, i + 1).unwrap();
            assert_eq!(run_one(&mut a, trip, cut), crashed_clean, "{trip:?}");
            let acknowledged = a.oracle().durable();
            assert!(
                acknowledged == uncut.oracle().durable(),
                "{trip:?} fired early"
            );
            let rolled = a.verify().unwrap_or_else(|e| panic!("{trip:?}: {e}"));
            assert_eq!(rolled.len(), 1, "{trip:?}: one transaction in flight");
            rolled[0]
        })
        .collect()
}

/// How many cuts rolled the cut transaction back, and how many forward.
fn tally(rolled: &[bool]) -> (u32, u32) {
    let forward = rolled.iter().filter(|&&f| f).count() as u32;
    (rolled.len() as u32 - forward, forward)
}

/// What the directed sweep reads off a crash app once it has run.
struct Seen {
    /// Persistence events so far, per trippable device.
    events: Vec<u64>,
    meta: Meta,
    commit_seq: u64,
    /// Commits that took the pool's two-phase spanning path (Tinca only).
    spanning_commits: u64,
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

    let mut trips = Vec::new();
    for dev in 0..ends[0].events.len() {
        let armed_at = ends[0].events[dev];
        let (lo, hi) = (
            ends[i].events[dev] - armed_at,
            ends[i + 1].events[dev] - armed_at,
        );
        let stride = ((hi - lo) / samples).max(1);
        trips.extend(
            (lo + 1..=hi)
                .step_by(stride as usize)
                .chain(hi.saturating_sub(3).max(lo + 1)..=hi)
                .map(|k| Trip { dev, at: k }),
        );
    }
    let (back, forward) = tally(&cut_through_commit::<S>(CUT_SEED, i, &trips));
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
    assert_eq!((back, forward), (23, 9));
}

#[test]
fn pinned_wal_kv_cut_between_meta_less_commit_and_split() {
    let (back, forward, _) = cut_between_meta_less_and_split(|_: &WalStore| 0, 12);
    assert!(back > 0 && forward > 0, "{back} back, {forward} forward");
    assert_eq!((back, forward), (12, 5));
}

// ---------------------------------------------------------------------------
// Directed: a power cut at every event of the first commit that destages
// ---------------------------------------------------------------------------

/// The crash personality's [`TincaStore`] on 76 KB of NVM a shard instead
/// of 256 KB, so the plan's tree outgrows it within a few hundred
/// transactions and the destage daemon fires. 76 KB is the smallest shard
/// (16 data blocks) whose delta-staging reserve, a sixteenth of them, is
/// not empty. Only [`Personality::fresh`] differs; everything else is the
/// inner store's.
struct SmallTinca(TincaStore);

impl PageStore for SmallTinca {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        self.0.read_page(id, buf)
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        self.0.commit_pages(dirty)
    }

    fn page_capacity(&self) -> u32 {
        self.0.page_capacity()
    }

    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

impl Personality for SmallTinca {
    const NAME: &'static str = "kv-tinca-small";

    fn fresh() -> Result<SmallTinca, Finding> {
        let store = TincaStore::format(TincaStoreConfig {
            shards: 2,
            nvm_bytes_per_shard: 76 << 10,
            disk_blocks: 1 << 16,
            ring_bytes: 4096,
            traced: true,
        });
        telemetry::swap_clock(store.clock());
        Ok(SmallTinca(store))
    }

    fn devices(&self) -> &[Nvm] {
        self.0.devices()
    }

    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>> {
        self.0.metadata_ranges()
    }

    fn crash_recover(self, cut: Cut<'_>) -> Result<SmallTinca, Finding> {
        self.0.crash_recover(cut).map(SmallTinca)
    }

    fn check(&mut self) -> Result<(), Finding> {
        self.0.check()
    }
}

/// The plan whose first destage batch [`SmallTinca`] cuts through: of the
/// first 60 seeds, the cheapest whose batch's commit writes no dirty
/// victim back itself (the batch fires at transaction 479).
const DESTAGE_SEED: u64 = 1;

/// Plan prefix long enough for [`SmallTinca`]'s first destage batch.
const DESTAGE_TXNS: usize = 1024;

/// Destage, coalesced flushes and delta staging under the two-phase
/// spanning commit, cut at every persistence event. A binary search over
/// plan prefixes finds the first commit `i` during which a destage batch
/// fires; the power is then cut at each of `i`'s events on the firing
/// shard, from its first stage through the batch's clean-mark entry
/// writes (the last entry-table stores `i` makes there) to its end.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "176 cuts of 480 audited transactions each: 16 s optimised; run via cargo test -p kvdb --release --test crash pinned"
)]
fn pinned_tinca_kv_cut_through_the_first_destage_batch() {
    let after = |txns: usize| {
        let mut a = KvApp::<SmallTinca>::new(DESTAGE_SEED, txns).unwrap();
        assert_eq!(a.drive(), Ok(()));
        a
    };
    let pool = |a: &KvApp<SmallTinca>| a.db().unwrap().store().0.pool().stats();
    let (mut lo, mut hi) = (0, DESTAGE_TXNS);
    assert!(
        pool(&after(hi)).destage_batches > 0,
        "no destage batch: grow the plan"
    );
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if pool(&after(mid)).destage_batches > 0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let i = lo;
    let (before, fired) = (after(i), after(i + 1));
    let store = &fired.db().unwrap().store().0;
    let s = (0..2)
        .find(|&s| store.pool().shard_stats(s).destage_batches > 0)
        .unwrap();
    let shard = store.pool().shard_stats(s);
    assert_eq!(shard.destage_batches, 1);
    assert_eq!(
        shard.writebacks, shard.destage_blocks,
        "commit {i} wrote a dirty victim back itself"
    );
    let marks = shard.destage_blocks as usize;
    let (then, now) = (pool(&before), pool(&fired));
    assert!(
        now.spanning_commits > then.spanning_commits,
        "commit {i} stayed on one shard"
    );
    assert!(now.coalesced_flushes > then.coalesced_flushes);
    assert!(now.delta_stages > 0);

    // Number the firing shard's persistence events as the device counts
    // them, and find commit `i`'s entry-table stores there: the batch's
    // clean marks are the last `marks` of them.
    let armed_at = after(0).devices()[s].events();
    let (first, last) = (
        before.devices()[s].events() - armed_at,
        fired.devices()[s].events() - armed_at,
    );
    let layout = store.pool().shard_layout(s);
    let entries = layout.entries_off..layout.data_off;
    let mut event = 0;
    let mut entry_stores = Vec::new();
    for op in fired.devices()[s].trace_snapshot() {
        match op.event {
            TraceEvent::AtomicStore { addr, .. } => {
                event += 1;
                if event > armed_at + first && entries.contains(&addr) {
                    entry_stores.push(event - armed_at);
                }
            }
            TraceEvent::Clflush { .. } | TraceEvent::Sfence { .. } => event += 1,
            _ => {}
        }
    }
    assert_eq!(
        event,
        armed_at + last,
        "the trace counts events as the device does"
    );
    let first_mark = entry_stores[entry_stores.len() - marks];

    let trips: Vec<Trip> = (first + 1..=last).map(|at| Trip { dev: s, at }).collect();
    let rolled = cut_through_commit::<SmallTinca>(DESTAGE_SEED, i, &trips);
    // The batch runs after the commit point: every cut from its first
    // clean mark on finds the transaction whole.
    let after_mark = trips.iter().zip(&rolled).filter(|(t, _)| t.at > first_mark);
    assert!(
        after_mark.clone().count() > 0,
        "no cut after the first clean mark"
    );
    assert!(
        after_mark.clone().all(|(_, &f)| f),
        "a cut after a clean mark rolled back"
    );
    let (back, forward) = tally(&rolled);
    assert_eq!((i, s, marks, after_mark.count()), (479, 0, 5, 17));
    assert_eq!((back, forward), (150, 26));
}
