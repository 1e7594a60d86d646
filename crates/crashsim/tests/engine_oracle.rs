//! The engine's checks, tested on their own: the cheap check has to catch
//! what the expensive one would. Each test builds an honest history on a
//! live two-shard pool, checks it clean, then corrupts the pool one way
//! the oracle never saw — and the check must fail.

use crashsim::engine::{audit, BlockOracle, Images, Rig};
use nvmsim::CACHE_LINE;
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
    oracle.commit_each(&pool, &[vec![(0, 1), (1, 2)], vec![(2, 3), (3, 4)]]);
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
    assert!(e.contains("block 2"), "{e}");
}

#[test]
fn a_half_committed_in_flight_txn_fails_the_check() {
    let (rig, pool, mut oracle) = live(Images::Dense);
    oracle.begin(&[(0, 7), (1, 8)]);
    commit(&pool, 0, &Images::Dense.of(0, Some(7)));
    let e = rig.check(&pool, &oracle).unwrap_err();
    assert!(e.contains("not atomic"), "{e}");
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
    assert!(e.contains("torn"), "{e}");
}

#[test]
fn an_unflushed_metadata_store_under_a_commit_record_fails_the_audit() {
    let (rig, pool, _) = live(Images::Dense);
    let metadata: Vec<_> = (0..2).map(|s| pool.shard_metadata_ranges(s)).collect();
    let end = metadata[1][0].end;
    let device = &rig.devices[1];
    device.write(end - 2 * CACHE_LINE, &[0xEE; 8]);
    device.note_commit(end - CACHE_LINE, 8);
    let e = audit(&rig.devices, &metadata).unwrap_err();
    assert!(e.contains("shard 1 persist-order violation"), "{e}");
}
