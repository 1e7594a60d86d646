//! The engine's checks, tested on their own: the cheap check has to catch
//! what the expensive one would. Each test builds an honest history on a
//! live two-shard pool, checks it clean, then corrupts the pool one way
//! the oracle never saw — and the check must fail.

use blockdev::BLOCK_SIZE;
use crashsim::engine::{audit, BlockOracle, Images, Rig};
use crashsim::Check;
use nvmsim::CACHE_LINE;
use persistcheck::{Report, Rule};
use tinca::{PoolConfig, TincaConfig, TincaPool};

const BLOCKS: u64 = 16;

/// A live pool whose blocks 0–3 hold committed versions the oracle knows.
fn live(images: Images) -> (Rig, TincaPool, BlockOracle) {
    let cfg = PoolConfig {
        shards: 2,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
        ..PoolConfig::default()
    };
    let (rig, pool) = Rig::new(cfg, 256 << 10);
    let mut oracle = BlockOracle::new(images, BLOCKS);
    for writes in [[(0, 1), (1, 2)], [(2, 3), (3, 4)]] {
        oracle.begin(&writes);
        pool.commit(images.txn(&pool, &writes)).expect("commit");
        oracle.commit();
    }
    rig.check(&pool, &oracle)
        .expect("an honest history checks clean");
    (rig, pool, oracle)
}

fn commit(pool: &TincaPool, b: u64, payload: &[u8]) {
    let mut t = pool.init_txn();
    t.write(b, payload);
    pool.commit(t).expect("commit");
}

#[test]
fn a_commit_the_oracle_never_saw_fails_the_check() {
    let (rig, pool, oracle) = live(Images::Dense);
    commit(&pool, 2, &Images::Dense.of(2, Some(9)));
    let e = rig.check(&pool, &oracle).unwrap_err();
    assert_eq!(e.check, Check::Oracle, "{e}");
    assert!(e.detail.contains("block 2"), "{e}");
}

#[test]
fn a_half_committed_in_flight_txn_fails_the_check() {
    let (rig, pool, mut oracle) = live(Images::Dense);
    oracle.begin(&[(0, 7), (1, 8)]);
    commit(&pool, 0, &Images::Dense.of(0, Some(7)));
    let e = rig.check(&pool, &oracle).unwrap_err();
    assert_eq!(e.check, Check::Oracle, "{e}");
    assert!(e.detail.contains("not atomic"), "{e}");
}

#[test]
fn one_line_from_another_image_fails_the_check() {
    // Sparse images: versions 3 and 4 of block 2 differ in a few lines
    // only; line 6 is constant in version 3 and carries the run in 4.
    let (rig, pool, mut oracle) = live(Images::Sparse);
    let (old, new) = (Images::Sparse.of(2, Some(3)), Images::Sparse.of(2, Some(4)));
    let line = 6 * CACHE_LINE..7 * CACHE_LINE;
    assert_ne!(old[line.clone()], new[line.clone()]);
    let mut torn = old;
    torn[line.clone()].copy_from_slice(&new[line]);
    oracle.begin(&[(2, 4)]);
    commit(&pool, 2, &torn);
    let e = rig.check(&pool, &oracle).unwrap_err();
    assert_eq!(e.check, Check::Oracle, "{e}");
    assert!(e.detail.contains("torn"), "{e}");
}

#[test]
fn an_unflushed_metadata_store_under_a_commit_record_fails_the_audit() {
    let (rig, pool, _) = live(Images::Dense);
    let metadata: Vec<_> = (0..2).map(|s| pool.shard_metadata_ranges(s)).collect();
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
