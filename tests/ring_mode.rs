//! Tier-1 coverage of the multi-writer ring (`CommitMode::LockFreeRing`):
//! a fixed-seed 2-shard script mixing multi-window sequencer rounds with
//! spanning commits, one power cut, recovery, and a read-back against the
//! durable oracle. Everything else that drives the ring lives in the
//! `tinca` and `crashsim` packages, which `cargo test -q` does not run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinca_repro::blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use tinca_repro::nvmsim::{shard_devices, CrashPolicy, CrashTripped, NvmConfig, NvmTech, SimClock};
use tinca_repro::tinca::{CommitMode, MwAdmission, PoolConfig, TincaConfig, TincaPool, Txn};

const SEED: u64 = 0x7126_0014;
const SHARDS: u64 = 2;
/// Blocks per shard the script writes (block `b` lives on shard `b % 2`).
const BLOCKS_PER_SHARD: u64 = 48;
const ROUNDS: usize = 16;

/// One transaction as the oracle sees it: `(block, fill byte)` pairs.
type Spec = Vec<(u64, u8)>;

fn txn_of(spec: &Spec) -> Txn {
    let mut t = Txn::new();
    for &(b, v) in spec {
        t.write(b, &[v; BLOCK_SIZE]);
    }
    t
}

/// Fisher–Yates (the vendored `rand` stand-in has no `SliceRandom`).
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

struct Script {
    rng: StdRng,
    next_fill: u8,
}

impl Script {
    /// `n` distinct blocks of `shard`, each with a fill byte no earlier
    /// write used for it (so old and new versions never read alike).
    fn blocks(&mut self, shard: u64, n: usize) -> Spec {
        let mut picks: Vec<u64> = (0..BLOCKS_PER_SHARD).collect();
        shuffle(&mut picks, &mut self.rng);
        picks[..n]
            .iter()
            .map(|&i| {
                self.next_fill = self.next_fill % 250 + 1;
                (shard + SHARDS * i, self.next_fill)
            })
            .collect()
    }

    /// A sequencer round on `shard` — two to four disjoint two-block
    /// windows — and a spanning transaction disjoint from it.
    fn round_and_spanning(&mut self, shard: u64) -> (Vec<Spec>, Spec) {
        let windows = self.rng.gen_range(2..=4);
        let mut all = self.blocks(shard, 2 * windows + 1);
        let mut spanning = all.split_off(2 * windows);
        spanning.extend(self.blocks(1 - shard, 2));
        (all.chunks(2).map(<[_]>::to_vec).collect(), spanning)
    }
}

/// Drives one multi-window round through the steppable pipeline: every
/// window reserved and staged, published out of order, retired by
/// sequencer rounds on the shard.
fn run_round(pool: &TincaPool, shard: usize, specs: &[Spec], rng: &mut StdRng) {
    let mut tickets: Vec<_> = specs
        .iter()
        .map(|spec| match pool.mw_try_begin(txn_of(spec)).unwrap() {
            MwAdmission::Admitted(mut t) => {
                pool.mw_stage(&mut t);
                t
            }
            MwAdmission::Busy(_) => panic!("disjoint windows on an idle shard must admit"),
        })
        .collect();
    shuffle(&mut tickets, rng);
    for t in tickets {
        pool.mw_publish(t);
        pool.mw_sequence(shard);
    }
}

fn read_fill(pool: &TincaPool, b: u64) -> u8 {
    let mut buf = [0u8; BLOCK_SIZE];
    pool.read(b, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == buf[0]), "block {b} is torn");
    buf[0]
}

#[test]
fn ring_mode_script_survives_a_power_cut() {
    let devices = shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), SHARDS as usize);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, SimClock::new());
    let cfg = PoolConfig {
        shards: SHARDS as usize,
        commit_mode: CommitMode::LockFreeRing,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
    };
    let pool = TincaPool::format(devices.clone(), disk.clone(), cfg.clone());
    let mut script = Script {
        rng: StdRng::seed_from_u64(SEED),
        next_fill: 0,
    };
    let mut durable: HashMap<u64, u8> = HashMap::new();

    for _ in 0..ROUNDS {
        let shard = script.rng.gen_range(0..SHARDS);
        let (round, spanning) = script.round_and_spanning(shard);
        run_round(&pool, shard as usize, &round, &mut script.rng);
        durable.extend(round.into_iter().flatten());
        if script.rng.gen_bool(0.5) {
            pool.commit(txn_of(&spanning)).unwrap();
            durable.extend(spanning);
        }
    }
    let st = pool.stats();
    assert!(st.group_commits > 0, "no round retired two windows: {st:?}");
    assert!(st.spanning_commits > 0, "no spanning commit ran: {st:?}");

    // The power cut: somewhere inside a round on shard 0 followed by a
    // spanning commit. Every transaction of the tail is in flight.
    let (tail_round, tail_spanning) = script.round_and_spanning(0);
    devices[0].set_trip(Some(script.rng.gen_range(40..400)));
    let cut = catch_unwind(AssertUnwindSafe(|| {
        run_round(&pool, 0, &tail_round, &mut script.rng);
        pool.commit(txn_of(&tail_spanning)).unwrap();
    }));
    let payload = cut.expect_err("the armed trip must fire inside the tail");
    assert!(payload.downcast_ref::<CrashTripped>().is_some());
    drop(pool);
    for (s, d) in devices.iter().enumerate() {
        d.crash(CrashPolicy::Random(SEED + s as u64));
    }

    let pool = TincaPool::recover(devices.clone(), disk.clone(), cfg.clone()).unwrap();
    pool.check_consistency().unwrap();
    // Each in-flight transaction is all-or-nothing; whichever way it
    // went, the oracle adopts it for the second read-back.
    let mut in_flight = tail_round;
    in_flight.push(tail_spanning);
    for spec in in_flight {
        let landed: Vec<bool> = spec
            .iter()
            .map(|&(b, v)| read_fill(&pool, b) == v)
            .collect();
        assert!(
            landed.iter().all(|&l| l == landed[0]),
            "in-flight txn {spec:?} is not atomic: {landed:?}"
        );
        if landed[0] {
            durable.extend(spec);
        }
    }
    for (&b, &v) in &durable {
        assert_eq!(read_fill(&pool, b), v, "durable block {b}");
    }
    drop(pool);

    // A second recovery finds nothing left to roll.
    for d in &devices {
        d.crash(CrashPolicy::LoseVolatile);
    }
    let pool = TincaPool::recover(devices, disk, cfg).unwrap();
    let st = pool.stats();
    assert_eq!(
        (
            st.revoked_blocks,
            st.spanning_rolled_forward,
            st.spanning_rolled_back,
            st.mw_windows_resumed,
            st.mw_windows_rolled_back,
        ),
        (0, 0, 0, 0, 0),
        "second recovery still rolled: {st:?}"
    );
    for (&b, &v) in &durable {
        assert_eq!(
            read_fill(&pool, b),
            v,
            "durable block {b} after the no-op recovery"
        );
    }
    pool.check_consistency().unwrap();
}
