//! Crash coverage for the entry watermark's raises (DESIGN §4.1, §9.2).
//!
//! Recovery loads only the entry slots below a shard's persisted
//! watermark, so a raise must be durable before the first store to any
//! slot it covers. Each test here fills a 2-shard pool until every shard
//! has crossed three watermark steps (0 → 64 → 128 → the 157-entry cap) on
//! one commit path — the mutex path with read-miss fills between commits,
//! the coalesced path, `LockFreeRing`, and spanning commits — then cuts
//! the power at **every** persistence event of each operation that raised
//! a watermark, on the raising shard. Each cut recovers through
//! [`crashsim::engine::run_one`]: the recovered pool must pass its
//! internals check (which rejects a valid entry at or above the persisted
//! watermark), the persist-order audit and the oracle — every
//! acknowledged block kept, the one in flight all or nothing — and, in a
//! release build, the recovery fixpoint check.
//!
//! Each sweep pins its number of cuts, and of raises a fill made, so a
//! raise that moves to another operation, or spends more persistence
//! events, shows here. The sweeps take 10 to 15 s each optimised on two
//! cores and run in release only:
//! `cargo test -p crashsim --release --test watermark_crash`.

use crashsim::engine::{run_one, small_pool, Crashable, Cut, Images, Oracle, Rig, Trip};
use crashsim::{quiet_crash_panics, Check, Finding};
use nvmsim::Nvm;
use tinca::{CommitMode, TincaPool};

const SHARDS: usize = 2;
/// 640 KB shards with the campaigns' 4 KB ring hold 157 entries, so the
/// third raise is capped at the table's end.
const SHARD_BYTES: usize = 640 << 10;
const ENTRIES: u64 = 157;
/// Entries one watermark raise covers.
const STEP: u64 = 64;
/// The entry watermark's word on header line 0.
const WATERMARK_OFF: usize = 40;
/// Fresh blocks per shard: entry slots `0..FRESH`, whose allocations at
/// 0, 64 and 128 raise the watermark three times.
const FRESH: u64 = 2 * STEP + 2;
/// Read-miss fills come from blocks past the oracle's range.
const READ_BASE: u64 = 1 << 15;

/// The commit path a sweep fills the pool through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// One-block mutex commits and read misses on the same shard, whose
    /// fills take entries too; the first and third raises of each shard
    /// fall on a fill, the second on a commit.
    Mutex,
    /// Two-block commits on one shard with coalesced flushes.
    Coalesced,
    /// One-block commits through the lock-free ring's meta step.
    Ring,
    /// Two-block commits, one block on each shard: every commit spans.
    Spanning,
}

/// One step of a script.
#[derive(Clone, Debug)]
enum Op {
    /// Writes version `v` of each `(b, v)`.
    Commit(Vec<(u64, u64)>),
    /// Reads a block that was never written, filling a clean entry.
    Read(u64),
}

impl Path {
    fn rig(self) -> (Rig, TincaPool) {
        let mode = match self {
            Path::Ring => CommitMode::LockFreeRing,
            _ => CommitMode::Mutex,
        };
        let mut cfg = small_pool(SHARDS, mode, false);
        cfg.cache.coalesce_flushes = self == Path::Coalesced;
        Rig::new(cfg, SHARD_BYTES)
    }

    /// The script: every shard takes entry slots `0..FRESH`, in the same
    /// order on every run. Block `b` lives on shard `b % SHARDS`.
    fn script(self) -> Vec<Op> {
        let shards = SHARDS as u64;
        let version = |b: u64| b % 251 + 1;
        let mut ops = Vec::new();
        match self {
            Path::Mutex => {
                // One written and one filled slot per shard and step; slot
                // 2i goes to the step's first op, the fill when 2i is a
                // multiple of 128.
                for i in 0..FRESH / 2 {
                    for s in 0..shards {
                        let b = i * shards + s;
                        let mut step = [Op::Commit(vec![(b, version(b))]), Op::Read(READ_BASE + b)];
                        if (2 * i) % (2 * STEP) == 0 {
                            step.reverse();
                        }
                        ops.extend(step);
                    }
                }
            }
            Path::Ring => {
                for b in 0..FRESH * shards {
                    ops.push(Op::Commit(vec![(b, version(b))]));
                }
            }
            Path::Coalesced => {
                for b in (0..FRESH * shards).step_by(2 * SHARDS) {
                    for s in 0..shards {
                        let pair = [b + s, b + s + shards];
                        ops.push(Op::Commit(pair.map(|b| (b, version(b))).to_vec()));
                    }
                }
            }
            Path::Spanning => {
                for b in (0..FRESH * shards).step_by(SHARDS) {
                    let all = (b..b + shards).map(|b| (b, version(b)));
                    ops.push(Op::Commit(all.collect()));
                }
            }
        }
        ops
    }
}

/// A 2-shard pool playing a [`Path`]'s script, with its oracle.
struct App {
    rig: Rig,
    pool: TincaPool,
    ops: Vec<Op>,
    oracle: Oracle<u64, u64>,
    recovered: Option<TincaPool>,
}

impl App {
    fn new(path: Path) -> App {
        let (rig, pool) = path.rig();
        App {
            rig,
            pool,
            ops: path.script(),
            oracle: Oracle::default(),
            recovered: None,
        }
    }

    fn play(&mut self, op: &Op) -> Result<(), Finding> {
        match op {
            Op::Commit(writes) => {
                self.oracle.begin(writes.iter().copied());
                let txn = Images::Dense.txn(&self.pool, writes);
                self.pool
                    .commit(txn)
                    .map_err(|e| Check::Workload.found(e))?;
                self.oracle.retire(writes.iter().copied());
            }
            Op::Read(b) => {
                let mut buf = [1u8; blockdev::BLOCK_SIZE];
                self.pool
                    .read(*b, &mut buf)
                    .map_err(|e| Check::Workload.found(e))?;
                if buf.iter().any(|&x| x != 0) {
                    return Err(Check::Workload.found(format_args!("block {b} read nonzero")));
                }
            }
        }
        Ok(())
    }
}

impl Crashable for App {
    fn devices(&self) -> &[Nvm] {
        &self.rig.devices
    }

    fn drive(&mut self) -> Result<(), Finding> {
        for op in std::mem::take(&mut self.ops) {
            self.play(&op)?;
        }
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        cut.apply(&self.rig.devices);
        let pool = self.rig.recover().map_err(|e| Check::Recovery.found(e))?;
        self.recovered = Some(pool);
        Ok(())
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        let pool = self.recovered.as_ref().expect("recovered pool");
        self.rig.check(pool, &self.oracle, FRESH * SHARDS as u64)
    }
}

/// A shard device's persisted entry watermark.
fn watermark(dev: &Nvm) -> u64 {
    let mut word = [0u8; 8];
    dev.read_persistent(WATERMARK_OFF, &mut word);
    u64::from_le_bytes(word)
}

/// Plays `path`'s script uncut and returns every trip inside an operation
/// that raised a watermark — each of its persistence events on the shard
/// it raised — with the watermarks each shard went through and the number
/// of raises a read-miss fill made.
fn raise_trips(path: Path) -> (Vec<Trip>, Vec<Vec<u64>>, usize) {
    let mut app = App::new(path);
    let starts: Vec<u64> = app.devices().iter().map(|d| d.events()).collect();
    let mut steps = vec![vec![0u64]; SHARDS];
    let mut trips = Vec::new();
    let mut fill_raises = 0;
    for op in std::mem::take(&mut app.ops) {
        let before: Vec<u64> = app.devices().iter().map(|d| d.events()).collect();
        app.play(&op).expect("uncut script");
        for (s, dev) in app.devices().iter().enumerate() {
            let wm = watermark(dev);
            if wm != *steps[s].last().unwrap() {
                steps[s].push(wm);
                fill_raises += usize::from(matches!(op, Op::Read(_)));
                trips.extend((before[s] + 1..=dev.events()).map(|e| Trip {
                    dev: s,
                    at: e - starts[s],
                }));
            }
        }
    }
    (trips, steps, fill_raises)
}

/// Cuts `path`'s script at every persistence event of each raising
/// operation; returns the number of cuts and of raises a fill made.
fn sweep_raises(path: Path) -> (usize, usize) {
    quiet_crash_panics();
    let (trips, steps, fill_raises) = raise_trips(path);
    for (s, steps) in steps.iter().enumerate() {
        assert_eq!(
            steps,
            &[0, STEP, 2 * STEP, ENTRIES],
            "{path:?}: shard {s} crossed three watermark steps"
        );
    }
    for &trip in &trips {
        let mut app = App::new(path);
        let cut = Cut::Random {
            seed: trip.at,
            shift: 17,
        };
        let outcome = run_one(&mut app, trip, cut);
        assert!(outcome.crashed, "{path:?}: {trip} did not fire");
        if let Err(e) = outcome.verdict {
            panic!("{path:?}: {trip}: {e}");
        }
    }
    (trips.len(), fill_raises)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 10 to 15 s optimised")]
fn every_cut_of_a_mutex_raise_or_fill_raise_recovers() {
    assert_eq!(sweep_raises(Path::Mutex), (450, 4));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 10 to 15 s optimised")]
fn every_cut_of_a_coalesced_raise_recovers() {
    assert_eq!(sweep_raises(Path::Coalesced), (888, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 10 to 15 s optimised")]
fn every_cut_of_a_ring_raise_recovers() {
    assert_eq!(sweep_raises(Path::Ring), (558, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 10 to 15 s optimised")]
fn every_cut_of_a_spanning_raise_recovers() {
    assert_eq!(sweep_raises(Path::Spanning), (546, 0));
}
