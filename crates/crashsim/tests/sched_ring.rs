//! The multi-writer ring under seeded step schedules, without a crash.
//!
//! Two to four writers, each over its own block lane, commit through a
//! one- or two-shard `LockFreeRing` pool in a seeded interleaving of
//! single pool steps. The interleavings put a writer's reservation ahead
//! of its registration while others publish and sequence behind it (a hole
//! at the retire frontier), overlap several windows on one shard, and
//! refuse reservations for ring capacity: in one seed of five a writer
//! now and then commits a bulk transaction of more than half the ring's
//! slots, so two bulk windows cannot be reserved at once. Windows must
//! retire in ring order, each shard's in the order it reserved them: a
//! sequencer that passed a hole would retire a later window first. After
//! every run the pool must pass its at-rest check, every retired window
//! must read back, and each shard's event trace and the merged trace must
//! be persist-order clean.
//! A deadlock fails the run inside the scheduler.

use std::collections::VecDeque;

use crashsim::engine::{small_pool, Images, Oracle, Rig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, TincaPool};
use workloads::sched::{Op, Policy, Sched, Script};

/// Slots in the campaigns' 4 KB ring.
const RING_SLOTS: u64 = 512;
/// Blocks in each writer's lane on each shard.
const LANE: u64 = 300;
/// A bulk transaction's smallest size: two never fit the ring together.
const BULK: u64 = RING_SLOTS / 2 + 4;
/// NVM per shard: room for two bulk transactions' new versions.
const SHARD_BYTES: usize = 4 << 20;

/// Writers over disjoint lanes; counts the schedule states it saw.
struct Lanes<'a> {
    rngs: Vec<StdRng>,
    left: Vec<usize>,
    shards: u64,
    writers: u64,
    images: Images,
    oracle: &'a mut Oracle<u64, u64>,
    /// Whether writers commit bulk transactions.
    bulk: bool,
    /// Each writer's transaction in progress, as `(block, version)`s.
    current: Vec<Vec<(u64, u64)>>,
    /// Slots reserved and not yet retired, per shard.
    held: Vec<u64>,
    /// Writers holding a window, per shard, in reservation order.
    open: Vec<VecDeque<usize>>,
    version: u64,
    /// Reservations the ring's capacity refuses.
    busy: u64,
    /// Reservations made while another window on the shard was open.
    overlaps: u64,
}

impl Lanes<'_> {
    fn shard(&self, w: usize) -> usize {
        (self.current[w][0].0 % self.shards) as usize
    }
}

impl Script for Lanes<'_> {
    fn next(&mut self, w: usize, pool: &TincaPool) -> Option<Op> {
        self.left[w] = self.left[w].checked_sub(1)?;
        let rng = &mut self.rngs[w];
        let s = rng.gen_range(0..self.shards);
        let n = if self.bulk && rng.gen_range(0..6) == 0 {
            rng.gen_range(BULK..BULK + 16)
        } else {
            rng.gen_range(1..=3)
        };
        let first = rng.gen_range(0..LANE - n + 1);
        self.current[w] = (first..first + n)
            .map(|k| {
                self.version += 1;
                let b = (k * self.writers + w as u64) * self.shards + s;
                (b, self.version % 255 + 1)
            })
            .collect();
        // The reservation is tried in this same step.
        if self.held[s as usize] + n > RING_SLOTS {
            self.busy += 1;
        }
        Some(Op::Commit(self.images.txn(pool, &self.current[w])))
    }

    fn begin(&mut self, w: usize) {
        let s = self.shard(w);
        self.held[s] += self.current[w].len() as u64;
        self.overlaps += u64::from(!self.open[s].is_empty());
        self.open[s].push_back(w);
        self.oracle.begin(self.current[w].iter().copied());
    }

    fn done(&mut self, w: usize) {
        let s = self.shard(w);
        self.held[s] -= self.current[w].len() as u64;
        let first = self.open[s].pop_front();
        assert_eq!(
            first,
            Some(w),
            "shard {s}: a window retired out of ring order"
        );
        self.oracle.retire(self.current[w].iter().copied());
    }
}

/// One seeded run: `writers` writers, `ops` transactions each, on a
/// `shards`-shard ring pool. Returns `(busy, overlaps)`.
fn run(shards: usize, writers: usize, ops: usize, bulk: bool, seed: u64) -> (u64, u64) {
    let (rig, pool) = Rig::new(
        small_pool(shards, CommitMode::LockFreeRing, false),
        SHARD_BYTES,
    );
    let blocks = LANE * writers as u64 * shards as u64;
    let mut oracle = Oracle::default();
    let mut lanes = Lanes {
        rngs: (0..writers)
            .map(|w| StdRng::seed_from_u64(seed ^ ((w as u64 + 1) << 40)))
            .collect(),
        left: vec![ops; writers],
        shards: shards as u64,
        writers: writers as u64,
        images: rig.images,
        oracle: &mut oracle,
        bulk,
        current: vec![Vec::new(); writers],
        held: vec![0; shards],
        open: vec![VecDeque::new(); shards],
        version: 0,
        busy: 0,
        overlaps: 0,
    };
    let sched = Sched {
        policy: Policy::Seeded(seed),
    };
    sched.run(&pool, writers, &mut lanes);
    let (busy, overlaps) = (lanes.busy, lanes.overlaps);
    if let Err(e) = rig.check(&pool, &oracle, blocks) {
        panic!("seed {seed}, {shards} shards, {writers} writers: {e}");
    }
    (busy, overlaps)
}

/// Seeds `seeds`, cycling through 2–4 writers on 1 and 2 shards, bulk
/// transactions in every fifth seed.
fn sweep(seeds: std::ops::Range<u64>) {
    let (mut busy, mut overlaps) = (0, 0);
    for seed in seeds {
        let writers = 2 + (seed % 3) as usize;
        let shards = 1 + (seed / 3 % 2) as usize;
        let (b, o) = run(shards, writers, 6, seed % 5 == 0, seed);
        busy += b;
        overlaps += o;
    }
    assert!(busy > 0, "no reservation was refused for capacity");
    assert!(overlaps > 0, "no two windows were open on one shard");
}

#[test]
fn seeded_writers_commit_consistently() {
    sweep(0x5C4E_D007..0x5C4E_D00C);
}

/// The acceptance sweep: 240 seeds, 40 per (writers, shards) pair.
#[test]
#[ignore = "release stress; run with --ignored"]
fn seeded_writers_commit_consistently_stress() {
    sweep(0x5C4E_D000..0x5C4E_D000 + 240);
}
