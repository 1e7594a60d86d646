// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Property tests: the mini file system must behave exactly like a flat
//! map of name → byte-vector under arbitrary operation sequences, on both
//! cache stacks, including across remounts.

use std::collections::HashMap;

use blockdev::BLOCK_SIZE;
use fssim::stack::{build, remount, Stack, StackConfig, System};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Delete(u8),
    Fsync,
    Remount,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u8..12).prop_map(Op::Create),
        5 => (0u8..12, 0u16..20_000, 1u16..5_000, any::<u8>())
            .prop_map(|(file, offset, len, fill)| Op::Write { file, offset, len, fill }),
        3 => (0u8..12, 0u16..24_000, 1u16..5_000)
            .prop_map(|(file, offset, len)| Op::Read { file, offset, len }),
        1 => (0u8..12).prop_map(Op::Delete),
        1 => Just(Op::Fsync),
        1 => Just(Op::Remount),
    ]
}

fn name(i: u8) -> String {
    format!("pf{i}")
}

fn run_model(system: System, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let cfg = StackConfig::tiny(system);
    let mut stack: Stack = build(&cfg).unwrap();
    let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Create(i) => {
                let r = stack.fs.create(&name(i));
                prop_assert_eq!(r.is_ok(), !model.contains_key(&i), "create {}", i);
                if r.is_ok() {
                    model.insert(i, Vec::new());
                }
            }
            Op::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let Some(contents) = model.get_mut(&file) else {
                    prop_assert!(stack.fs.open(&name(file)).is_err());
                    continue;
                };
                let ino = stack.fs.open(&name(file)).unwrap();
                let data = vec![fill; len as usize];
                stack.fs.write(ino, offset as u64, &data).unwrap();
                let end = offset as usize + len as usize;
                if contents.len() < end {
                    contents.resize(end, 0);
                }
                contents[offset as usize..end].copy_from_slice(&data);
            }
            Op::Read { file, offset, len } => {
                let Some(contents) = model.get(&file) else {
                    continue;
                };
                let ino = stack.fs.open(&name(file)).unwrap();
                let mut buf = vec![0u8; len as usize];
                let n = stack.fs.read(ino, offset as u64, &mut buf).unwrap();
                let want_n = contents
                    .len()
                    .saturating_sub(offset as usize)
                    .min(len as usize);
                prop_assert_eq!(n, want_n, "read length of file {}", file);
                if n > 0 {
                    prop_assert_eq!(
                        &buf[..n],
                        &contents[offset as usize..offset as usize + n],
                        "read contents of file {}",
                        file
                    );
                }
            }
            Op::Delete(i) => {
                let r = stack.fs.delete(&name(i));
                prop_assert_eq!(r.is_ok(), model.remove(&i).is_some(), "delete {}", i);
            }
            Op::Fsync => stack.fs.fsync().unwrap(),
            Op::Remount => {
                stack.fs.fsync().unwrap();
                let (nvm, disk, clock) =
                    (stack.nvm.clone(), stack.disk.clone(), stack.clock.clone());
                drop(stack.fs);
                stack = remount(&cfg, nvm, disk, clock).unwrap();
            }
        }
    }
    // Final: full model equality, then internal invariants.
    prop_assert_eq!(stack.fs.file_count().unwrap(), model.len());
    for (&i, contents) in &model {
        let ino = stack.fs.open(&name(i)).unwrap();
        prop_assert_eq!(stack.fs.file_size(ino).unwrap() as usize, contents.len());
        let mut buf = vec![0u8; contents.len()];
        stack.fs.read(ino, 0, &mut buf).unwrap();
        prop_assert_eq!(&buf, contents, "final contents of file {}", i);
    }
    stack.fs.check_consistency().map_err(TestCaseError::fail)?;
    stack.fs.backend().check().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fs_matches_model_on_tinca(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        run_model(System::Tinca, ops)?;
    }

    #[test]
    fn fs_matches_model_on_classic_jbd2(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        run_model(System::Classic, ops)?;
    }

    /// Block-aligned bulk writes exercise the full-block fast path.
    #[test]
    fn aligned_bulk_writes(nblocks in 1usize..40, fill in any::<u8>()) {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut stack = build(&cfg).unwrap();
        let f = stack.fs.create("bulk").unwrap();
        let data = vec![fill; nblocks * BLOCK_SIZE];
        stack.fs.write(f, 0, &data).unwrap();
        stack.fs.fsync().unwrap();
        let mut back = vec![0u8; data.len()];
        let n = stack.fs.read(f, 0, &mut back).unwrap();
        prop_assert_eq!(n, data.len());
        prop_assert_eq!(back, data);
    }
}
