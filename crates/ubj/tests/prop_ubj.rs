//! Property tests: the UBJ cache must behave as a flat block map under
//! arbitrary commit/read/checkpoint/crash sequences, with transaction
//! atomicity across crashes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig, NvmDevice, NvmTech, SimClock};
use proptest::prelude::*;
use ubj::UbjCache;

const BLOCK_SPACE: u64 = 160;

fn fresh() -> (UbjCache, nvmsim::Nvm, blockdev::Disk) {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(512 << 10, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
    let cache = UbjCache::format(nvm.clone(), disk.clone());
    (cache, nvm, disk)
}

fn quiet() {
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

#[derive(Clone, Debug)]
enum Op {
    Commit(Vec<(u64, u8)>),
    Read(u64),
    Checkpoint,
    Restart { seed: u64 },
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => proptest::collection::vec((0..BLOCK_SPACE, any::<u8>()), 1..8).prop_map(Op::Commit),
        3 => (0..BLOCK_SPACE).prop_map(Op::Read),
        1 => Just(Op::Checkpoint),
        1 => any::<u64>().prop_map(|seed| Op::Restart { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn ubj_matches_model(seq in proptest::collection::vec(ops(), 1..50)) {
        let (mut cache, nvm, disk) = fresh();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut buf = [0u8; BLOCK_SIZE];
        for op in seq {
            match op {
                Op::Commit(writes) => {
                    let blocks: Vec<_> = writes
                        .iter()
                        .map(|&(b, v)| (b, Box::new([v; BLOCK_SIZE])))
                        .collect();
                    cache.commit_txn(&blocks).unwrap();
                    for (b, v) in writes {
                        model.insert(b, v);
                    }
                }
                Op::Read(b) => {
                    cache.read(b, &mut buf);
                    let want = model.get(&b).copied().unwrap_or(0);
                    prop_assert_eq!(buf, [want; BLOCK_SIZE], "read of {}", b);
                }
                Op::Checkpoint => {
                    cache.checkpoint_oldest();
                }
                Op::Restart { seed } => {
                    drop(cache);
                    nvm.crash(CrashPolicy::Random(seed));
                    cache = UbjCache::recover(nvm.clone(), disk.clone())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    cache.check_consistency().map_err(TestCaseError::fail)?;
                }
            }
        }
        cache.check_consistency().map_err(TestCaseError::fail)?;
        for (&b, &v) in &model {
            cache.read(b, &mut buf);
            prop_assert_eq!(buf, [v; BLOCK_SIZE], "final read of {}", b);
        }
    }

    #[test]
    fn ubj_crash_mid_commit_is_atomic(
        pre in proptest::collection::vec((0..48u64, 1..=200u8), 1..6),
        txn in proptest::collection::vec(0..48u64, 1..6),
        trip in 1..600u64,
        seed in any::<u64>(),
    ) {
        quiet();
        let (mut cache, nvm, disk) = fresh();
        let mut committed: HashMap<u64, u8> = HashMap::new();
        let seed_blocks: Vec<_> = pre
            .iter()
            .map(|&(b, v)| (b, Box::new([v; BLOCK_SIZE])))
            .collect();
        cache.commit_txn(&seed_blocks).unwrap();
        for (b, v) in pre {
            committed.insert(b, v);
        }
        let mut touched: Vec<u64> = Vec::new();
        let blocks: Vec<_> = txn
            .iter()
            .map(|&b| {
                if !touched.contains(&b) {
                    touched.push(b);
                }
                (b, Box::new([255u8; BLOCK_SIZE]))
            })
            .collect();
        nvm.set_trip(Some(trip));
        let done = catch_unwind(AssertUnwindSafe(|| cache.commit_txn(&blocks))).is_ok();
        nvm.set_trip(None);
        drop(cache);
        nvm.crash(CrashPolicy::Random(seed));
        let rec = UbjCache::recover(nvm, disk).map_err(|e| TestCaseError::fail(e.to_string()))?;
        rec.check_consistency().map_err(TestCaseError::fail)?;
        let mut buf = [0u8; BLOCK_SIZE];
        let versions: Vec<(u64, u8)> = touched
            .iter()
            .map(|&b| {
                rec.read_nocache(b, &mut buf);
                (b, buf[0])
            })
            .collect();
        let all_new = versions.iter().all(|&(_, v)| v == 255);
        let all_old = versions
            .iter()
            .all(|&(b, v)| v == committed.get(&b).copied().unwrap_or(0));
        prop_assert!(all_old || all_new, "torn at trip {}: {:?}", trip, versions);
        if done {
            prop_assert!(all_new, "completed commit lost");
        }
        // Unrelated committed blocks intact.
        for (&b, &v) in committed.iter().filter(|(b, _)| !touched.contains(b)) {
            rec.read_nocache(b, &mut buf);
            prop_assert_eq!(buf, [v; BLOCK_SIZE], "unrelated block {} damaged", b);
        }
    }
}
