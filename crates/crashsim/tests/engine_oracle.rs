//! The engine's checks, tested on their own: the cheap check has to catch
//! what the expensive one would. One table of ways a store can disagree
//! with its [`Oracle`] runs against each of the three stores it judges —
//! a two-shard pool's blocks, the FS stack's files and kvdb's records:
//! each builds an honest history, checks it clean, breaks the store one
//! way the oracle never saw, and the check must fail.

use std::fmt::Debug;

use blockdev::BLOCK_SIZE;
use crashsim::engine::{audit, Images, Oracle, Rig};
use crashsim::{Check, CrashHarness, Finding};
use fssim::stack::{StackConfig, System};
use kvdb::{Db, TincaStore, TincaStoreConfig};
use nvmsim::CACHE_LINE;
use persistcheck::{Report, Rule};
use tinca::{PoolConfig, TincaConfig, TincaPool};

/// A store under its oracle's judge.
trait Store: Sized {
    type K: Ord + Clone + Debug + Default;
    type V: Clone + PartialEq + Default;
    /// What the finding says of a key the oracle never saw.
    const UNSEEN_KEY: &'static str;
    /// A fresh store.
    fn empty() -> Self;
    /// Key `i`.
    fn key(i: u8) -> Self::K;
    /// Value `i`: no two alike.
    fn value(i: u8) -> Self::V;
    /// Commits `value` at `key`; `torn`, only part of it over what `key`
    /// held.
    fn write(&mut self, key: &Self::K, value: &Self::V, torn: bool);
    /// The store's checks, the oracle's last: its verdict.
    fn check(&mut self, oracle: &Oracle<Self::K, Self::V>) -> Result<Vec<bool>, Finding>;
}

/// The ways a store can break, each with what its finding says.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// A committed key rewritten.
    UnseenWrite,
    /// A key written that the oracle never saw.
    UnseenKey,
    /// An in-flight transaction of two keys, one of them written.
    HalfApplied,
    /// An in-flight key holding part of its new value.
    Torn,
}

/// Runs every [`Case`] on a fresh `S` whose keys 0 and 1 hold committed
/// values 0 and 1.
fn every_case_fails<S: Store>() {
    for case in [
        Case::UnseenWrite,
        Case::UnseenKey,
        Case::HalfApplied,
        Case::Torn,
    ] {
        let (mut store, mut oracle) = (S::empty(), Oracle::default());
        for i in 0..2 {
            oracle.begin([(S::key(i), S::value(i))]);
            store.write(&S::key(i), &S::value(i), false);
            oracle.commit();
        }
        assert_eq!(store.check(&oracle), Ok(vec![]), "an honest history");
        let (a, b, new) = (S::key(0), S::key(1), S::value(9));
        let says = match case {
            Case::UnseenWrite => {
                store.write(&a, &new, false);
                "not its durable value"
            }
            Case::UnseenKey => {
                store.write(&S::key(2), &new, false);
                S::UNSEEN_KEY
            }
            Case::HalfApplied => {
                oracle.begin([(a.clone(), new.clone()), (b, S::value(8))]);
                store.write(&a, &new, false);
                "not atomic"
            }
            Case::Torn => {
                oracle.begin([(a.clone(), new.clone())]);
                store.write(&a, &new, true);
                "is torn"
            }
        };
        let e = store.check(&oracle).unwrap_err();
        assert_eq!(e.check, Check::Oracle, "{case:?}: {e}");
        assert!(e.detail.contains(says), "{case:?}: {e}");
    }
}

/// Blocks judged.
const BLOCKS: u64 = 16;

/// A two-shard pool with sparse images: versions of a block differ in a
/// few lines only.
struct Blocks(Rig, TincaPool);

impl Store for Blocks {
    type K = u64;
    type V = u64;
    const UNSEEN_KEY: &'static str = "2: not its durable value";

    fn empty() -> Blocks {
        let cfg = PoolConfig {
            shards: 2,
            cache: TincaConfig {
                ring_bytes: 4096,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        };
        let (mut rig, pool) = Rig::new(cfg, 256 << 10);
        rig.images = Images::Sparse;
        Blocks(rig, pool)
    }

    fn key(i: u8) -> u64 {
        i.into()
    }

    fn value(i: u8) -> u64 {
        u64::from(i) + 1
    }

    fn write(&mut self, &b: &u64, &v: &u64, torn: bool) {
        let Blocks(rig, pool) = self;
        let mut payload = rig.images.of(b, Some(v));
        if torn {
            let mut held = [0u8; BLOCK_SIZE];
            pool.read_nocache(b, &mut held).unwrap();
            let line = (0..BLOCK_SIZE / CACHE_LINE)
                .map(|l| l * CACHE_LINE..(l + 1) * CACHE_LINE)
                .find(|line| held[line.clone()] != payload[line.clone()])
                .unwrap();
            held[line.clone()].copy_from_slice(&payload[line]);
            payload = held;
        }
        let mut t = pool.init_txn();
        t.write(b, &payload);
        pool.commit(t).unwrap();
    }

    fn check(&mut self, oracle: &Oracle<u64, u64>) -> Result<Vec<bool>, Finding> {
        self.0.check(&self.1, oracle, BLOCKS)
    }
}

/// The FS stack on Tinca: files of 100 bytes.
impl Store for CrashHarness {
    type K = String;
    type V = Vec<u8>;
    const UNSEEN_KEY: &'static str = "3 files, expected 2";

    fn empty() -> CrashHarness {
        CrashHarness::new(StackConfig::tiny(System::Tinca)).unwrap()
    }

    fn key(i: u8) -> String {
        format!("f{i}")
    }

    fn value(i: u8) -> Vec<u8> {
        vec![i + 1; 100]
    }

    fn write(&mut self, name: &String, contents: &Vec<u8>, torn: bool) {
        let len = if torn {
            contents.len() / 2
        } else {
            contents.len()
        };
        let fs = self.fs();
        let f = fs.open(name).or_else(|_| fs.create(name)).unwrap();
        fs.write(f, 0, &contents[..len]).unwrap();
        fs.fsync().unwrap();
    }

    fn check(&mut self, oracle: &Oracle<String, Vec<u8>>) -> Result<Vec<bool>, Finding> {
        self.verify(oracle)
    }
}

/// kvdb on a two-shard Tinca pool, judged as a recovered database is.
struct Records(Db<TincaStore>);

impl Store for Records {
    type K = Vec<u8>;
    type V = Vec<u8>;
    const UNSEEN_KEY: &'static str = "not its durable value";

    fn empty() -> Records {
        let store = TincaStore::format(TincaStoreConfig {
            shards: 2,
            nvm_bytes_per_shard: 256 << 10,
            disk_blocks: 1 << 16,
            ring_bytes: 4096,
            traced: false,
        });
        Records(Db::open(store).unwrap())
    }

    fn key(i: u8) -> Vec<u8> {
        format!("k{i}").into_bytes()
    }

    fn value(i: u8) -> Vec<u8> {
        vec![i + 1; 32]
    }

    fn write(&mut self, key: &Vec<u8>, value: &Vec<u8>, torn: bool) {
        let len = if torn { value.len() / 2 } else { value.len() };
        self.0.begin().unwrap();
        self.0.put(key, &value[..len]).unwrap();
        self.0.commit().unwrap();
    }

    fn check(&mut self, oracle: &Oracle<Vec<u8>, Vec<u8>>) -> Result<Vec<bool>, Finding> {
        kvdb::judge(&mut self.0, oracle)
    }
}

#[test]
fn the_block_oracle_catches_every_case() {
    every_case_fails::<Blocks>();
}

#[test]
fn the_file_oracle_catches_every_case() {
    every_case_fails::<CrashHarness>();
}

#[test]
fn the_record_oracle_catches_every_case() {
    every_case_fails::<Records>();
}

/// A file write lands in the newest contents, zero-filling any gap, and a
/// write or a delete is durable only once its transaction commits.
#[test]
fn file_writes_extend_and_overwrite_and_wait_for_the_commit() {
    let mut oracle = Oracle::default();
    oracle.stage("f".to_string(), Some(Vec::new()));
    oracle.write_at("f", 4, b"xy");
    oracle.write_at("f", 0, b"AB");
    assert!(oracle.durable().is_empty());
    oracle.commit();
    assert_eq!(oracle.durable()["f"], b"AB\0\0xy");
    oracle.stage("f".to_string(), None);
    assert!(oracle.durable().contains_key("f"));
    oracle.commit();
    assert!(oracle.durable().is_empty());
}

#[test]
fn an_unflushed_metadata_store_under_a_commit_record_fails_the_audit() {
    let Blocks(rig, pool) = Blocks::empty();
    let metadata: Vec<_> = (0..2).map(|s| pool.shard_metadata_ranges(s)).collect();
    rig.audit()
        .verdict()
        .expect("a formatted pool audits clean");
    let end = metadata[1][0].end;
    let device = &rig.devices[1];
    let (unflushed, torn) = (end - 2 * CACHE_LINE, 0);
    device.write(unflushed, &[0xEE; 8]);
    device.note_commit(end - CACHE_LINE, 8);
    // A durable metadata line, then two plain words into it: only the
    // metadata ranges make the second store a torn update.
    device.write(torn, &[0xEE; 8]);
    device.clflush(torn, 8);
    device.sfence();
    device.write(torn, &[0xEE; 16]);
    let audit = audit(&rig.devices, &metadata);
    let e = audit.verdict().unwrap_err();
    assert_eq!(e.check, Check::PersistOrder(Rule::MissingFlush), "{e}");
    assert!(e.detail.starts_with("shard 1:"), "{e}");
    // The merged view flags both stores at their rebased addresses, the
    // torn one only if the metadata ranges were rebased with them.
    let flagged = |r: &Report| -> Vec<(Rule, usize)> {
        r.violations.iter().map(|v| (v.rule, v.addr)).collect()
    };
    let expected = |base: usize| {
        [
            (Rule::MissingFlush, base + unflushed),
            (Rule::TornUpdate, base + torn),
        ]
    };
    assert_eq!(flagged(&audit.shards[1]), expected(0));
    assert_eq!(flagged(&audit.merged), expected(device.capacity()));
}

#[test]
fn sparse_images_change_runs_in_both_halves_and_hold_no_zero_line() {
    let of = |b, v| Images::Sparse.of(b, Some(v));
    assert_eq!(Images::Dense.of(7, Some(9)), [9u8; BLOCK_SIZE]);
    assert_eq!(Images::Sparse.of(7, None), [0u8; BLOCK_SIZE]);
    let (a, b) = (of(7, 9), of(7, 200));
    assert!(a.iter().all(|&x| x != 0));
    let changed: Vec<usize> = (0..BLOCK_SIZE / CACHE_LINE)
        .filter(|l| a[l * CACHE_LINE..][..CACHE_LINE] != b[l * CACHE_LINE..][..CACHE_LINE])
        .collect();
    assert_eq!(changed, [8, 9, 10, 11, 41, 42, 43, 58, 59, 60]);
    assert_ne!(of(7, 9), of(8, 9));
}
