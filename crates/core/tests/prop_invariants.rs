// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Property-based tests: the cache must behave exactly like a flat
//! key→value store over (disk block → payload), under arbitrary
//! interleavings of commits, reads, evictions, recoveries and crashes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig, NvmDevice, NvmTech, SimClock};
use proptest::prelude::*;
use tinca::{PoolConfig, TincaConfig, TincaPool};

const NVM_BYTES: usize = 512 << 10; // small: forces eviction pressure
const RING_BYTES: usize = 4096;
const BLOCK_SPACE: u64 = 256; // disk blocks the generator draws from

fn cfg(delta_stage: bool) -> TincaConfig {
    TincaConfig {
        ring_bytes: RING_BYTES,
        delta_stage,
        ..TincaConfig::default()
    }
}

fn pool_cfg(delta_stage: bool) -> PoolConfig {
    PoolConfig {
        cache: cfg(delta_stage),
        ..PoolConfig::default()
    }
}

/// The paper's single cache: a one-shard pool.
fn fresh(delta_stage: bool) -> (nvmsim::Nvm, blockdev::Disk, TincaPool) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(NVM_BYTES, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cache = TincaPool::format(vec![nvm.clone()], disk.clone(), pool_cfg(delta_stage));
    (nvm, disk, cache)
}

fn recover(nvm: &nvmsim::Nvm, disk: &blockdev::Disk, delta_stage: bool) -> TincaPool {
    TincaPool::recover(vec![nvm.clone()], disk.clone(), pool_cfg(delta_stage)).unwrap()
}

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

/// A payload most of whose lines never change: line `v % 64` and the
/// first word carry `v`, the rest depends on the block alone — so a
/// delta-staged rewrite has lines to skip, and `sparse(b, 0)` on a
/// never-written block differs from the disk's zeroes.
fn sparse(b: u64, v: u8) -> [u8; BLOCK_SIZE] {
    let mut p = [b as u8 ^ 0x5A; BLOCK_SIZE];
    let line = usize::from(v) % 64 * 64;
    p[line..line + 64].fill(v);
    p[..8].fill(v);
    p
}

#[derive(Clone, Debug)]
enum Op {
    /// Commit a transaction of (block, fill byte) writes.
    Commit(Vec<(u64, u8)>),
    /// Read a block and check it against the model.
    Read(u64),
    /// Drop the cache, (optionally) crash the device, recover.
    Restart { crash_seed: Option<u64> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => proptest::collection::vec((0..BLOCK_SPACE, any::<u8>()), 1..12).prop_map(Op::Commit),
        3 => (0..BLOCK_SPACE).prop_map(Op::Read),
        1 => proptest::option::of(any::<u64>()).prop_map(|crash_seed| Op::Restart { crash_seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// After any op sequence (including crashes *between* commits and
    /// recoveries), every committed value is readable and the cache
    /// invariants hold.
    #[test]
    fn cache_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        delta_stage in any::<bool>(),
    ) {
        let (nvm, disk, mut cache) = fresh(delta_stage);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Commit(writes) => {
                    let mut txn = cache.init_txn();
                    for (b, v) in &writes {
                        txn.write(*b, &blk(*v));
                    }
                    cache.commit(txn).unwrap();
                    for (b, v) in writes {
                        model.insert(b, v);
                    }
                }
                Op::Read(b) => {
                    let mut buf = [0u8; BLOCK_SIZE];
                    cache.read(b, &mut buf).unwrap();
                    let want = model.get(&b).copied().unwrap_or(0);
                    prop_assert_eq!(buf, blk(want), "read mismatch on block {}", b);
                }
                Op::Restart { crash_seed } => {
                    drop(cache);
                    match crash_seed {
                        Some(s) => nvm.crash(CrashPolicy::Random(s)),
                        None => nvm.crash(CrashPolicy::LoseVolatile),
                    }
                    cache = recover(&nvm, &disk, delta_stage);
                    cache.check_consistency().map_err(|e| {
                        TestCaseError::fail(format!("inconsistent after restart: {e}"))
                    })?;
                }
            }
        }
        cache.check_consistency().map_err(TestCaseError::fail)?;
        // Final sweep: the full model must be readable.
        let mut buf = [0u8; BLOCK_SIZE];
        for (&b, &v) in &model {
            cache.read(b, &mut buf).unwrap();
            prop_assert_eq!(buf, blk(v), "final sweep mismatch on block {}", b);
        }
    }

    /// Delta staging is invisible to the caller: the same op sequence on
    /// two caches, with it on and with it off, leaves both consistent
    /// after every step and every block byte-identical — cached on both
    /// sides or not (the reserve is capacity, so the cached sets may
    /// differ). Payloads are sparse rewrites over a narrow block range,
    /// so most commits find a shadow and skip most lines.
    #[test]
    fn delta_stage_on_and_off_agree(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        const HOT: u64 = 24;
        let mut sides = [fresh(false), fresh(true)];
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut buf = [[0u8; BLOCK_SIZE]; 2];
        for op in ops {
            let mut touched: Vec<u64> = Vec::new();
            match op {
                Op::Commit(writes) => {
                    for (_, _, cache) in &sides {
                        let mut txn = cache.init_txn();
                        for (b, v) in &writes {
                            txn.write(*b % HOT, &sparse(*b % HOT, *v));
                        }
                        cache.commit(txn).unwrap();
                    }
                    for (b, v) in writes {
                        model.insert(b % HOT, v);
                        touched.push(b % HOT);
                    }
                }
                Op::Read(b) => {
                    for ((_, _, cache), buf) in sides.iter().zip(&mut buf) {
                        cache.read(b, buf).unwrap();
                    }
                    touched.push(b);
                }
                Op::Restart { crash_seed } => {
                    for (delta_stage, side) in sides.iter_mut().enumerate() {
                        let policy = match crash_seed {
                            Some(s) => CrashPolicy::Random(s),
                            None => CrashPolicy::LoseVolatile,
                        };
                        side.0.crash(policy);
                        side.2 = recover(&side.0, &side.1, delta_stage == 1);
                    }
                    touched.extend(model.keys());
                }
            }
            for ((_, _, cache), buf) in sides.iter().zip(&mut buf) {
                cache.check_consistency().map_err(TestCaseError::fail)?;
                for &b in &touched {
                    cache.read_nocache(b, buf).unwrap();
                    let want = model.get(&b).map_or([0u8; BLOCK_SIZE], |&v| sparse(b, v));
                    prop_assert_eq!(*buf, want, "block {}", b);
                }
            }
            for &b in &touched {
                if let (Some(off), Some(on)) = (sides[0].2.peek(b), sides[1].2.peek(b)) {
                    prop_assert_eq!(off, on, "cached images of block {} differ", b);
                }
            }
        }
        prop_assert!(sides[0].2.stats().delta_stages == 0);
    }

    /// Crash at a random event inside a random commit: the transaction is
    /// atomic and all previously committed data survives.
    #[test]
    fn random_crash_point_atomicity(
        pre in proptest::collection::vec((0..64u64, 1..=250u8), 1..10),
        txn_writes in proptest::collection::vec(0..64u64, 1..10),
        trip in 1..400u64,
        seed in any::<u64>(),
        delta_stage in any::<bool>(),
    ) {
        quiet_crash_panics();
        let (nvm, disk, cache) = fresh(delta_stage);
        let mut model: HashMap<u64, u8> = HashMap::new();
        // Pre-populate with committed data — twice: with delta staging the
        // rewrite parks a shadow under every block, so the crashing
        // transaction below rewrites shadows.
        for _ in 0..2 {
            let mut seed_txn = cache.init_txn();
            for (b, v) in &pre {
                seed_txn.write(*b, &blk(*v));
                model.insert(*b, *v);
            }
            cache.commit(seed_txn).unwrap();
        }

        // The crashing transaction writes 255 everywhere it touches.
        let mut txn = cache.init_txn();
        let mut touched: Vec<u64> = vec![];
        for b in txn_writes {
            txn.write(b, &blk(255));
            if !touched.contains(&b) {
                touched.push(b);
            }
        }
        nvm.set_trip(Some(trip));
        let outcome = catch_unwind(AssertUnwindSafe(|| cache.commit(txn)));
        nvm.set_trip(None);
        let committed = matches!(outcome, Ok(Ok(())));
        drop(cache);
        nvm.crash(CrashPolicy::Random(seed));

        let rec = recover(&nvm, &disk, delta_stage);
        rec.check_consistency().map_err(TestCaseError::fail)?;

        let mut buf = [0u8; BLOCK_SIZE];
        let versions: Vec<(u64, u8)> = touched
            .iter()
            .map(|&b| {
                rec.read_nocache(b, &mut buf).unwrap();
                prop_assert!(buf.iter().all(|&x| x == buf[0]), "torn payload");
                Ok((b, buf[0]))
            })
            .collect::<Result<_, TestCaseError>>()?;
        let all_new = versions.iter().all(|&(_, v)| v == 255);
        let all_old = versions
            .iter()
            .all(|&(b, v)| v == model.get(&b).copied().unwrap_or(0));
        prop_assert!(all_old || all_new, "torn txn at trip {}: {:?}", trip, versions);
        if committed {
            prop_assert!(all_new, "committed txn lost at trip {}", trip);
        }
        // Blocks untouched by the crashing txn keep their committed values.
        for (&b, &v) in model.iter().filter(|(b, _)| !touched.contains(b)) {
            rec.read_nocache(b, &mut buf).unwrap();
            prop_assert_eq!(buf, blk(v), "unrelated block {} damaged", b);
        }
    }
}

fn quiet_crash_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashTripped>().is_none() {
                default(info);
            }
        }));
    });
}
