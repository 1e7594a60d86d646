//! Deterministic spanning-commit crash coverage.
//!
//! The fuzz sweep ([`crashsim::PoolPlan`]) and the frontier enumerator
//! ([`crashsim::SpanningPlan`]) sample and enumerate crash states; these tests instead **pin** the instants that
//! define the two-phase protocol's correctness argument:
//!
//! * a crash *between fragments* — after shard 0's fragment is prepared
//!   but before shard 1's lands — must roll the whole transaction back
//!   (the intent record still reads `PREPARED`);
//! * a crash *after the resolve store is fenced* must roll every prepared
//!   fragment forward (the record reads `RESOLVED`);
//! * a mid-sequence fragment failure (shard 1's fragment too large) must
//!   abort the intent and leave **nothing** visible, before and after a
//!   power cut.
//!
//! A full trip sweep over every persistence event of both devices then
//! proves the all-or-nothing property holds at *every* crash instant of a
//! spanning commit, not just the pinned ones; and a nested sweep crashes
//! *inside* the recovery of sampled instants, in both commit modes, to
//! show the roll decision repeats.
//!
//! Delta staging (`TincaConfig::delta_stage`) is one more input to the
//! same sweeps: with it on, the payloads are sparse (`Setup::image`) and
//! the cut commit rewrites reserved shadow blocks in place — several runs
//! of lines in both halves of each — on one shard and across two, so cuts
//! land mid-way through a shadow's rewrite and inside the second
//! fragment's. With it off the payloads are dense, `[v; BLOCK_SIZE]`.

use blockdev::BLOCK_SIZE;
use crashsim::engine::{small_pool, tripped, Cut, Images, Rig, SHARD_BYTES};
use crashsim::quiet_crash_panics;
use nvmsim::{CrashPolicy, Nvm};
use tinca::{CommitMode, TincaPool};

/// What a sweep runs on.
#[derive(Clone, Copy, Debug)]
struct Setup {
    shards: usize,
    mode: CommitMode,
    delta_stage: bool,
}

const MUTEX: Setup = Setup {
    shards: 2,
    mode: CommitMode::Mutex,
    delta_stage: false,
};

impl Setup {
    /// A formatted pool of this setup, with the campaigns' shard size.
    fn rig(self) -> (Rig, TincaPool) {
        Rig::new(
            small_pool(self.shards, self.mode, self.delta_stage),
            SHARD_BYTES,
        )
    }

    /// Version `v` of block `b`: dense without delta staging, with it the
    /// engine's sparse image, so a delta-staged rewrite has lines to skip
    /// and runs to store in both halves.
    fn image(self, b: u64, v: u8) -> [u8; BLOCK_SIZE] {
        let images = if self.delta_stage {
            Images::Sparse
        } else {
            Images::Dense
        };
        images.of(b, Some(v.into()))
    }
}

fn fill(v: u8) -> [u8; BLOCK_SIZE] {
    Images::Dense.of(0, Some(v.into()))
}

/// Commits one two-shard spanning transaction (block 0 → shard 0,
/// block 1 → shard 1); returns whether a trip armed on `devices` fired.
fn try_spanning_commit(pool: &TincaPool, devices: &[Nvm], setup: Setup) -> bool {
    tripped(devices, || {
        let mut t = pool.init_txn();
        t.write(0, &setup.image(0, 0xAA));
        t.write(1, &setup.image(1, 0xBB));
        pool.commit(t).expect("spanning commit");
    })
    .is_none()
}

fn read_block(pool: &TincaPool, b: u64) -> [u8; BLOCK_SIZE] {
    let mut buf = [0u8; BLOCK_SIZE];
    pool.read(b, &mut buf).expect("read after recovery");
    buf
}

/// Arms a trip at persistence event `k` of device `dev`, runs `setup`'s
/// spanning commit on `pool` until it crashes, drops the pool and
/// power-cycles every device (volatile state lost).
fn cut_commit(rig: &Rig, pool: TincaPool, setup: Setup, (dev, k): (usize, u64)) {
    rig.devices[dev].set_trip(Some(k));
    let crashed = try_spanning_commit(&pool, &rig.devices, setup);
    drop(pool);
    let mode = setup.mode;
    assert!(crashed, "{mode:?}: trip {k} on device {dev} did not fire");
    Cut::LoseVolatile.apply(&rig.devices);
}

/// [`cut_commit`] on a fresh pool, recovered.
fn crash_at(dev: usize, k: u64) -> TincaPool {
    let (rig, pool) = MUTEX.rig();
    cut_commit(&rig, pool, MUTEX, (dev, k));
    rig.recover().expect("recovery")
}

/// Crash between fragments: the first persistence event on device 1
/// lands inside shard 1's fragment prepare, *after* shard 0's fragment
/// is fully prepared and the intent record is durably `PREPARED`.
/// Recovery must roll shard 0's prepared fragment back.
#[test]
fn crash_between_fragments_rolls_the_prepared_fragment_back() {
    quiet_crash_panics();
    let pool = crash_at(1, 1);
    assert_eq!(read_block(&pool, 0), fill(0), "shard 0 fragment leaked");
    assert_eq!(read_block(&pool, 1), fill(0), "shard 1 fragment leaked");
    let stats = pool.stats();
    assert!(
        stats.spanning_rolled_back >= 1,
        "recovery revoked no prepared fragment: {stats:?}"
    );
    assert_eq!(stats.spanning_rolled_forward, 0, "{stats:?}");
}

/// Full trip sweep: crash a spanning commit at **every** persistence
/// event of both devices in turn. Each recovered state must be
/// all-or-nothing, and the sweep must witness both protocol outcomes —
/// at least one state rolled back (intent still `PREPARED`) and at
/// least one rolled forward (resolve store already fenced).
#[test]
fn every_crash_instant_is_all_or_nothing() {
    quiet_crash_panics();
    // Probe: per-device persistence events consumed by one spanning commit.
    let spans: Vec<u64> = {
        let (rig, pool) = MUTEX.rig();
        let (crashed, spans) = events_during(&rig.devices, || {
            try_spanning_commit(&pool, &rig.devices, MUTEX)
        });
        assert!(!crashed, "probe crashed with no trip");
        spans
    };
    assert!(
        spans.iter().all(|&e| e > 0),
        "probe saw no events: {spans:?}"
    );

    let (mut saw_rolled_back, mut saw_rolled_forward) = (false, false);
    for (dev, &events) in spans.iter().enumerate() {
        for k in 1..=events {
            let pool = crash_at(dev, k);
            let (b0, b1) = (read_block(&pool, 0), read_block(&pool, 1));
            let stats = pool.stats();
            if b0 == fill(0xAA) && b1 == fill(0xBB) {
                saw_rolled_forward |= stats.spanning_rolled_forward > 0;
            } else if b0 == fill(0) && b1 == fill(0) {
                saw_rolled_back |= stats.spanning_rolled_back > 0;
            } else {
                panic!(
                    "device {dev} trip {k}: torn spanning txn \
                     (block0={:#x}, block1={:#x})",
                    b0[0], b1[0]
                );
            }
        }
    }
    assert!(saw_rolled_back, "no crash instant exercised roll-back");
    assert!(
        saw_rolled_forward,
        "no crash instant exercised roll-forward"
    );
}

/// A mid-sequence fragment failure (shard 1's fragment exceeds its
/// shard's capacity after shard 0's fragment already prepared) must
/// abort the intent: the commit returns `Err`, nothing is visible, and
/// nothing resurfaces after a power cut — the pool stays usable.
#[test]
fn mid_sequence_fragment_failure_leaves_nothing_visible() {
    let (rig, pool) = MUTEX.rig();

    // One block on shard 0, far more blocks on shard 1 than its cache
    // can hold: fragment 0 prepares, fragment 1 is refused.
    let mut t = pool.init_txn();
    t.write(0, &fill(0x5A));
    for i in 0..200u64 {
        t.write(1 + 2 * i, &fill(0x5B));
    }
    assert!(
        pool.commit(t).is_err(),
        "oversized spanning commit succeeded"
    );
    assert!(pool.stats().spanning_aborts >= 1, "abort not counted");

    // Nothing visible before the power cut…
    assert_eq!(read_block(&pool, 0), fill(0));
    assert_eq!(read_block(&pool, 1), fill(0));
    drop(pool);

    // …or after it.
    Cut::LoseVolatile.apply(&rig.devices);
    let pool = rig.recover().expect("recovery");
    assert_eq!(read_block(&pool, 0), fill(0));
    assert_eq!(read_block(&pool, 1), fill(0));

    // The aborted intent must not wedge later spanning commits.
    let mut t = pool.init_txn();
    t.write(0, &fill(0x11));
    t.write(1, &fill(0x22));
    pool.commit(t).expect("post-abort spanning commit");
    assert_eq!(read_block(&pool, 0), fill(0x11));
    assert_eq!(read_block(&pool, 1), fill(0x22));
}

/// Every ring slot of shard `s` that still carries a nonzero intent tag,
/// as `(seq, tag)` pairs. The wraparound guard's structural invariant
/// says this is empty whenever no spanning window is open.
fn tagged_slots(pool: &TincaPool, s: usize) -> Vec<(u64, u8)> {
    let layout = pool.shard_layout(s);
    (0..layout.ring_cap)
        .filter_map(|seq| {
            let raw = pool.shard_nvm(s).read_u64(layout.ring_slot_addr(seq));
            let (_, tag) = tinca::split_slot(raw);
            (tag != 0).then_some((seq, tag))
        })
        .collect()
}

/// The guard's invariant with no window open: no stale tag on either
/// shard, checked `when`.
fn assert_no_stale_tags(pool: &TincaPool, when: &str) {
    for s in 0..2 {
        assert_eq!(
            tagged_slots(pool, s),
            vec![],
            "stale tags on shard {s} {when}"
        );
    }
}

fn commit_spanning_pair(pool: &TincaPool, setup: Setup, v: u8) {
    let mut t = pool.init_txn();
    t.write(0, &setup.image(0, v));
    t.write(1, &setup.image(1, v ^ 0xFF));
    pool.commit(t).expect("spanning commit");
}

/// Wraparound guard (DESIGN §7.2): the intent tag keeps only the low
/// 7 bits of the intent id, so after 128 spanning commits a new intent's
/// tag collides with a stale one's. Retiring commits must scrub their
/// window's tags, so no stale tag ever survives on the device — even
/// after 130+ retirements, and even across a crash that resets the
/// intent-id counter to zero (forcing outright id reuse).
#[test]
fn intent_tag_wraparound_leaves_no_stale_tags() {
    quiet_crash_panics();
    let (rig, pool) = MUTEX.rig();

    // Drive the 7-bit tag space around: ids 0..=129, tags wrap at 128.
    for i in 0..130u32 {
        commit_spanning_pair(&pool, MUTEX, (i % 251) as u8 + 1);
        assert_no_stale_tags(&pool, &format!("after commit {i}"));
    }
    assert!(pool.stats().spanning_commits >= 130);

    // Crash mid-commit *after* the wrap: the in-flight intent's tag
    // (id 130 → tag 0x82) equals intent 2's tag, whose slots went
    // through this very ring long ago. Recovery must judge only the open
    // window and come out clean + all-or-nothing.
    cut_commit(&rig, pool, MUTEX, (1, 1));
    let pool = rig.recover().expect("recovery after wrap");
    let (b0, b1) = (read_block(&pool, 0), read_block(&pool, 1));
    let last = 130u8; // commit 129's fill: `(i % 251) + 1`
    let atomic = (b0 == fill(0xAA) && b1 == fill(0xBB)) // rolled forward
        || (b0 == fill(last) && b1 == fill(last ^ 0xFF)); // rolled back
    assert!(
        atomic,
        "post-wrap crash not all-or-nothing: block0={:#x} block1={:#x}",
        b0[0], b1[0]
    );
    assert_no_stale_tags(&pool, "after recovery");

    // Recovery reset the intent-id counter to 0: the next 130 spanning
    // commits reuse every id the pre-crash run already consumed. The
    // scrubbed ring makes that reuse collision-free.
    for i in 0..130u32 {
        commit_spanning_pair(&pool, MUTEX, (i % 250) as u8 + 1);
    }
    assert_no_stale_tags(&pool, "after id reuse");
    assert_eq!(read_block(&pool, 0), fill(130)); // `(129 % 250) + 1`
}

/// A pool whose shard 1 sits on a disk with its odd blocks permanently
/// bad and holds exactly one free block — every other one is dirty — with
/// coalesced flushes on or off; returns it with the first odd block
/// beyond the ones it dirtied.
fn one_free_block_on_shard_1(coalesce: bool) -> (Rig, TincaPool, u64) {
    let plan = blockdev::FaultPlan::quiet(5).with_bad_modulo(2, 1);
    let mut cfg = small_pool(2, CommitMode::Mutex, false);
    cfg.cache.coalesce_flushes = coalesce;
    let (rig, pool) = Rig::with_faults(cfg, SHARD_BYTES, plan);
    let cap = u64::from(pool.shard_layout(1).data_blocks);
    for i in 0..cap - 1 {
        let mut t = pool.init_txn();
        t.write(2 * i + 1, &fill(0x10));
        pool.commit(t).expect("single-shard fill");
    }
    (rig, pool, 2 * cap + 1)
}

/// A spanning commit whose shard-1 fragment fails mid-protocol on
/// [`one_free_block_on_shard_1`]'s pool: block 0 prepares on shard 0,
/// `fresh` stages into shard 1's last free block (its tagged slot
/// written) and `fresh + 2` finds every eviction victim unwritable.
fn commit_failing_fragment(pool: &TincaPool, fresh: u64) {
    let mut t = pool.init_txn();
    t.write(0, &fill(0x5A));
    t.write(fresh, &fill(0x5B));
    t.write(fresh + 2, &fill(0x5C));
    assert!(
        matches!(pool.commit(t), Err(tinca::TincaError::NoVictim)),
        "the fragment must fail inside the protocol, past admission"
    );
}

/// A *tagged* fragment that fails mid-protocol — after it staged a slot —
/// must retire that slot's tag itself: the pool only calls
/// `abort_fragment` for fragments that prepared. With coalesced flushes
/// the failed fragment's slot is still unflushed when it fails, and its
/// revoke path persists it before `Head`.
#[test]
fn failed_tagged_fragment_scrubs_its_slots() {
    for coalesce in [false, true] {
        let (rig, pool, fresh) = one_free_block_on_shard_1(coalesce);
        commit_failing_fragment(&pool, fresh);
        assert!(pool.shard_stats(1).failed_commits >= 1);
        assert_no_stale_tags(&pool, "after the failed fragment");
        pool.check_consistency()
            .expect("consistent after the abort");
        assert_eq!(read_block(&pool, 0), fill(0));

        // The failed commit was intent 0; 128 spanning commits later the
        // tag collides. Each rewrites cached block 1, so shard 1's one
        // free block suffices and is handed back at every commit point.
        assert_eq!(tinca::intent_tag(0), tinca::intent_tag(128));
        for i in 1..=128u32 {
            commit_spanning_pair(&pool, MUTEX, (i % 251) as u8 + 1);
        }
        assert_eq!(pool.stats().spanning_commits, 128);
        drop(pool);
        Cut::LoseVolatile.apply(&rig.devices);
        let pool = rig.recover().expect("recovery");
        pool.check_consistency().expect("consistent after recovery");
        assert_eq!(read_block(&pool, 0), fill(129));
        assert_eq!(read_block(&pool, 1), fill(129 ^ 0xFF));
        assert_no_stale_tags(&pool, "after recovery");
    }
}

/// The failing commit of [`failed_tagged_fragment_scrubs_its_slots`], cut
/// at **every** persistence event of both devices, with coalesced flushes
/// on and off; each device resolves its unfenced lines adversarially.
/// Every recovery leaves block 0 unwritten, a consistent pool that takes
/// the next spanning commit, and a clean persist-order audit. Tags are
/// not asserted away: a cut between a fragment's slot persist and its
/// `Head` move, or between a `Tail` store and the scrub after it, leaves
/// a tag outside every window, inert by window homogeneity until the slot
/// is reused (DESIGN §7.2).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a cut per persistence event, each after a fresh fill: run via cargo test -p crashsim --release --test spanning_crash"
)]
fn every_cut_of_a_failed_tagged_fragment_recovers_clean() {
    quiet_crash_panics();
    for coalesce in [false, true] {
        let spans = {
            let (rig, pool, fresh) = one_free_block_on_shard_1(coalesce);
            events_during(&rig.devices, || commit_failing_fragment(&pool, fresh)).1
        };
        // Coalesced: fewer fences on both shards; shard 1's revoke path
        // adds one flush and one fence for the slot its failed stage left
        // unflushed. Block 0 is shard 0's first entry, so its fragment
        // also raises shard 0's entry watermark: a store, a flush and a
        // fence.
        assert_eq!(spans, if coalesce { [97, 80] } else { [99, 86] });
        for (dev, &events) in spans.iter().enumerate() {
            for k in 1..=events {
                let what = format!("coalesce {coalesce}, cut dev{dev}@{k}");
                let (rig, pool, fresh) = one_free_block_on_shard_1(coalesce);
                rig.devices[dev].set_trip(Some(k));
                let crashed = tripped(&rig.devices, || commit_failing_fragment(&pool, fresh));
                assert!(crashed.is_none(), "{what}: trip did not fire");
                drop(pool);
                Cut::Random { seed: k, shift: 17 }.apply(&rig.devices);
                let pool = rig.recover().unwrap_or_else(|e| panic!("{what}: {e}"));
                pool.check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(read_block(&pool, 0), fill(0), "{what}");
                commit_spanning_pair(&pool, MUTEX, 0x33);
                assert_eq!(read_block(&pool, 0), fill(0x33), "{what}");
                pool.check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                rig.audit()
                    .verdict()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

/// The durable state a commit of `0xAA`/`0xBB` over blocks 0/1 (spanning
/// on two shards) leaves when the power fails at persistence event `k` of
/// device `dev`: committed single-shard and spanning history (so roll-back
/// has previous versions to restore, and — on the ring — pipelined rounds
/// and their descriptors precede the cut), then the cut itself. With
/// delta staging the history rewrites blocks 0/1 once more, so both hold
/// a shadow and the cut commit rewrites those.
fn cut_spanning_commit(setup: Setup, dev: usize, k: u64) -> Rig {
    let (rig, pool) = setup.rig();
    if setup.delta_stage {
        commit_spanning_pair(&pool, setup, 0x02);
    }
    commit_spanning_pair(&pool, setup, 0x01);
    for (blk, v) in BYSTANDERS {
        let mut t = pool.init_txn();
        t.write(blk, &setup.image(blk, v));
        pool.commit(t).expect("single-shard commit");
    }
    cut_commit(&rig, pool, setup, (dev, k));
    rig
}

/// Blocks 0 and 1 as one of the two legal outcomes: `true` when the cut
/// spanning transaction is fully visible, `false` when fully absent.
fn rolled_forward(pool: &TincaPool, setup: Setup, what: &str) -> bool {
    let (b0, b1) = (read_block(pool, 0), read_block(pool, 1));
    if b0 == setup.image(0, 0xAA) && b1 == setup.image(1, 0xBB) {
        true
    } else if b0 == setup.image(0, 0x01) && b1 == setup.image(1, 0x01 ^ 0xFF) {
        false
    } else {
        panic!(
            "{what}: torn spanning txn (block0={:#x}, block1={:#x})",
            b0[0], b1[0]
        );
    }
}

/// The `(block, fill)` single-shard commits [`cut_spanning_commit`] makes
/// durable before the cut; every recovery must preserve them.
const BYSTANDERS: [(u64, u8); 3] = [(2, 0x11), (3, 0x22), (4, 0x33)];

/// Per-device persistence events consumed by `f`.
fn events_during<R>(devices: &[Nvm], f: impl FnOnce() -> R) -> (R, Vec<u64>) {
    let starts: Vec<u64> = devices.iter().map(|d| d.events()).collect();
    let r = f();
    let spent = devices
        .iter()
        .zip(&starts)
        .map(|(d, s)| d.events() - s)
        .collect();
    (r, spent)
}

/// One nested cut: the spanning commit dies at event `k` of device `dev`,
/// the recovery dies at its event `j` on device `rdev` (unfenced lines
/// resolved adversarially). The next recovery must roll `expect_forward`'s
/// way on every shard and leave nothing for a third one to roll; the whole
/// history must be persistcheck-clean on every shard and as one merged
/// trace.
fn cut_recovery(
    setup: Setup,
    (dev, k): (usize, u64),
    (rdev, j): (usize, u64),
    expect_forward: bool,
) {
    let what = format!("{setup:?} cut dev{dev}@{k}, recovery cut dev{rdev}@{j}");
    let rig = cut_spanning_commit(setup, dev, k);
    rig.devices[rdev].set_trip(Some(j));
    assert!(
        tripped(&rig.devices, || rig.recover()).is_none(),
        "{what}: recovery trip did not fire"
    );
    for d in &rig.devices {
        d.crash(CrashPolicy::Random(k * 131 + j));
    }
    let pool = rig.recover().expect("second recovery");
    assert_eq!(
        rolled_forward(&pool, setup, &what),
        expect_forward,
        "{what}: direction flipped"
    );
    for (blk, v) in BYSTANDERS {
        assert_eq!(
            read_block(&pool, blk),
            setup.image(blk, v),
            "{what}: block {blk}"
        );
    }
    pool.check_consistency()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    drop(pool);

    Cut::LoseVolatile.apply(&rig.devices);
    let pool = rig.recover().expect("third recovery");
    let st = pool.stats();
    assert_eq!(
        (
            st.revoked_blocks,
            st.spanning_rolled_forward,
            st.spanning_rolled_back
        ),
        (0, 0, 0),
        "{what}: third recovery still rolled"
    );
    assert_eq!(
        rolled_forward(&pool, setup, &what),
        expect_forward,
        "{what}"
    );

    // Format, commits, three power cuts, three recoveries — in persist
    // order, on every shard and merged.
    rig.audit()
        .verdict()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

const DELTA: Setup = Setup {
    delta_stage: true,
    ..MUTEX
};

/// Per-device persistence events of the commit [`cut_spanning_commit`]
/// cuts, counted on an uninterrupted run after the same history.
fn commit_events(setup: Setup) -> Vec<u64> {
    let rig = cut_spanning_commit(setup, 0, 1);
    let pool = rig.recover().expect("recovery");
    if setup.delta_stage {
        // Recovery dropped the hints with the rest of DRAM; park them again.
        commit_spanning_pair(&pool, setup, 0x02);
        commit_spanning_pair(&pool, setup, 0x01);
    }
    let before = pool.stats();
    let (crashed, spans) = events_during(&rig.devices, || {
        try_spanning_commit(&pool, &rig.devices, setup)
    });
    assert!(!crashed, "probe crashed with no trip");
    if setup.delta_stage {
        let after = pool.stats();
        assert_eq!(
            after.delta_stages,
            before.delta_stages + 2,
            "both blocks of the cut commit must rewrite a shadow"
        );
        // Block 0 stores three runs of three lines (2.., 34.., 57..),
        // block 1 four (13.., 19.., 45.., 53..): both halves of both.
        assert_eq!(
            after.delta_lines_skipped - before.delta_lines_skipped,
            2 * 64 - 21
        );
    }
    spans
}

/// The full trip sweep with delta staging on: a power cut at **every**
/// persistence event of a commit that rewrites two shadows — on one
/// shard (an ordinary commit) and across two (the two-phase path, so
/// cuts also land inside the second fragment's rewrite). Every recovered
/// state is all-or-nothing, byte for byte, keeps the bystanders, passes
/// `check_consistency` (a reserved block is a free block to recovery)
/// and the merged persistcheck audit.
#[test]
fn every_crash_instant_of_a_delta_staged_commit_is_all_or_nothing() {
    quiet_crash_panics();
    for shards in [1, 2] {
        let setup = Setup { shards, ..DELTA };
        let (mut saw_back, mut saw_forward) = (false, false);
        for (dev, &events) in commit_events(setup).iter().enumerate() {
            for k in 1..=events {
                let what = format!("{setup:?} cut dev{dev}@{k}");
                let rig = cut_spanning_commit(setup, dev, k);
                let pool = rig.recover().expect("recovery");
                let forward = rolled_forward(&pool, setup, &what);
                saw_forward |= forward;
                saw_back |= !forward;
                for (blk, v) in BYSTANDERS {
                    assert_eq!(
                        read_block(&pool, blk),
                        setup.image(blk, v),
                        "{what}: block {blk}"
                    );
                }
                pool.check_consistency()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                rig.audit()
                    .verdict()
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
        assert!(saw_back, "{shards} shard(s): no instant rolled back");
        assert!(saw_forward, "{shards} shard(s): no instant rolled forward");
    }
}

/// Crash *inside* `TincaPool::recover` on the spanning-intent path. For a
/// sample of first-crash instants spread over publish / prepare / resolve
/// / retire, a second power cut lands at every persistence event of the
/// recovery on either device ([`cut_recovery`]). Both commit modes run
/// the same fragment code, so one body covers both — and the delta-staged
/// fragments, whose revocation must free a half-rewritten shadow.
#[test]
fn crash_inside_recovery_repeats_the_roll_decision() {
    quiet_crash_panics();
    let ring = Setup {
        mode: CommitMode::LockFreeRing,
        ..MUTEX
    };
    let mut recovery_events = Vec::new();
    for setup in [MUTEX, ring, DELTA] {
        let mode = (setup.mode, setup.delta_stage);
        let spans = commit_events(setup);
        let mut swept = 0;
        let (mut saw_back, mut saw_forward) = (false, false);
        for (dev, &events) in spans.iter().enumerate() {
            // Five instants spread over the commit, plus its last two
            // events (the retire phase).
            let mut instants: Vec<u64> = (0..5).map(|i| 1 + i * (events - 1) / 5).collect();
            instants.extend([events - 1, events]);
            instants.dedup();
            for k in instants {
                // The uninterrupted recovery fixes the expected direction
                // and counts the recovery's own events per device.
                let rig = cut_spanning_commit(setup, dev, k);
                let (pool, rec_events) =
                    events_during(&rig.devices, || rig.recover().expect("recovery"));
                let expect_forward = rolled_forward(&pool, setup, "uninterrupted recovery");
                saw_forward |= expect_forward;
                saw_back |= !expect_forward;
                swept += rec_events.iter().sum::<u64>();
                for (rdev, &n) in rec_events.iter().enumerate() {
                    for j in 1..=n {
                        cut_recovery(setup, (dev, k), (rdev, j), expect_forward);
                    }
                }
            }
        }
        assert!(saw_back, "{mode:?}: no sampled instant rolled back");
        assert!(saw_forward, "{mode:?}: no sampled instant rolled forward");
        recovery_events.push(swept);
    }
    // Recovery's persistence events, summed over every sampled instant
    // and device, per setup: the cuts this test sweeps. They are the
    // protocol's stores, flushes and fences; a change to how recovery
    // *loads* must leave them exactly as they are.
    assert_eq!(recovery_events, [165, 219, 183]);
}
