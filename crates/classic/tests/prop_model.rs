//! Model-based property test: the Classic cache over its disk must behave
//! like a flat block map under arbitrary write/read/clean/restart
//! sequences.

use std::collections::HashMap;

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use classic::{ClassicCache, ClassicConfig};
use nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};
use proptest::prelude::*;

const BLOCK_SPACE: u64 = 512;

#[derive(Clone, Debug)]
enum Op {
    Write {
        blk: u64,
        fill: u8,
    },
    Read(u64),
    Barrier,
    FlushAll,
    /// Clean restart (no volatile loss mid-write): recover from metadata.
    Restart,
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..BLOCK_SPACE, any::<u8>()).prop_map(|(blk, fill)| Op::Write { blk, fill }),
        3 => (0..BLOCK_SPACE).prop_map(Op::Read),
        1 => Just(Op::Barrier),
        1 => Just(Op::FlushAll),
        1 => Just(Op::Restart),
    ]
}

fn cfg() -> ClassicConfig {
    ClassicConfig {
        assoc: 32,
        fallow_age_writes: 16,
        ..ClassicConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn classic_matches_flat_block_map(seq in proptest::collection::vec(ops(), 1..80)) {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let mut cache = ClassicCache::format(nvm.clone(), disk.clone(), cfg());
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut buf = [0u8; BLOCK_SIZE];
        for op in seq {
            match op {
                Op::Write { blk, fill } => {
                    cache.write(blk, &[fill; BLOCK_SIZE]).unwrap();
                    model.insert(blk, fill);
                }
                Op::Read(blk) => {
                    cache.read(blk, &mut buf).unwrap();
                    let want = model.get(&blk).copied().unwrap_or(0);
                    prop_assert_eq!(buf, [want; BLOCK_SIZE], "read of block {}", blk);
                }
                Op::Barrier => cache.flush_barrier().unwrap(),
                Op::FlushAll => {
                    cache.flush_all().unwrap();
                    // After a full flush, the DISK alone matches the model.
                    for (&blk, &want) in &model {
                        use blockdev::BlockDevice;
                        disk.read_block(blk, &mut buf).unwrap();
                        prop_assert_eq!(buf, [want; BLOCK_SIZE], "disk block {}", blk);
                    }
                }
                Op::Restart => {
                    cache.flush_barrier().unwrap(); // barrier, then clean restart
                    drop(cache);
                    nvm.crash(CrashPolicy::PersistAll);
                    cache = ClassicCache::recover(nvm.clone(), disk.clone(), cfg())
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
            cache.check_consistency().map_err(TestCaseError::fail)?;
        }
        // Final sweep through the cache view.
        for (&blk, &want) in &model {
            cache.read(blk, &mut buf).unwrap();
            prop_assert_eq!(buf, [want; BLOCK_SIZE], "final read of {}", blk);
        }
    }
}
