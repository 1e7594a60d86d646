//! A demand-loaded mount against the eager mount it replaced: two stacks
//! run the same script in lockstep, one mounted lazily, the other loading
//! every mirror at mount ([`FsSim::rebuild_mirrors`]), and every operation
//! must answer the same on both.

use blockdev::{BlockDevice, BLOCK_SIZE};
use nvmsim::CrashPolicy;
use proptest::prelude::*;

use super::FsSim;
use crate::stack::{build, remount, Stack, StackConfig, System};

#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        offset: u32,
        len: u16,
        fill: u8,
    },
    Truncate {
        file: u8,
        size: u32,
    },
    Read {
        file: u8,
        offset: u32,
        len: u16,
    },
    Rename(u8, u8),
    Delete(u8),
    Fsync,
    /// `file_count` and `free_space_blocks`: each finishes one mirror.
    Count,
    /// Unmount cleanly, or cut the power with `crash(Random)`; remount.
    Remount {
        crash: bool,
    },
}

const FILES: u8 = 8;

/// Offsets mostly in the direct blocks, some in the indirect block.
fn offset() -> impl Strategy<Value = u32> {
    prop_oneof![3 => 0u32..64 << 10, 1 => 0u32..256 << 10]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..FILES).prop_map(Op::Create),
        5 => (0..FILES, offset(), 1u16..6_000, any::<u8>())
            .prop_map(|(file, offset, len, fill)| Op::Write { file, offset, len, fill }),
        1 => (0..FILES, offset()).prop_map(|(file, size)| Op::Truncate { file, size }),
        3 => (0..FILES, offset(), 1u16..6_000)
            .prop_map(|(file, offset, len)| Op::Read { file, offset, len }),
        1 => (0..FILES, 0..FILES).prop_map(|(a, b)| Op::Rename(a, b)),
        1 => (0..FILES).prop_map(Op::Delete),
        1 => Just(Op::Fsync),
        1 => Just(Op::Count),
        2 => any::<bool>().prop_map(|crash| Op::Remount { crash }),
    ]
}

/// Unmounts `stack` cleanly, or drops its DRAM state and cuts the power,
/// then remounts it.
fn reboot(cfg: &StackConfig, stack: Stack, crash: bool, seed: u64) -> Stack {
    let Stack {
        fs,
        nvm,
        disk,
        clock,
        ..
    } = stack;
    if crash {
        drop(fs);
        nvm.crash(CrashPolicy::Random(seed));
    } else {
        fs.unmount().unwrap();
    }
    remount(cfg, nvm, disk, clock).unwrap()
}

fn name(i: u8) -> String {
    format!("f{i}")
}

/// The same stack twice: `lazy` mounts as `FsSim::mount` does, `eager`
/// also loads every mirror at mount.
struct Twin {
    cfg: StackConfig,
    lazy: Stack,
    eager: Stack,
    /// Every remount runs `check_consistency` at once, so the two stacks
    /// make the same device calls and their device stats must agree.
    audit: bool,
}

impl Twin {
    fn new(system: System, fillers: u16, audit: bool) -> Twin {
        let cfg = StackConfig::tiny(system);
        let mut twin = Twin {
            lazy: build(&cfg).unwrap(),
            eager: build(&cfg).unwrap(),
            cfg,
            audit,
        };
        // Fillers push the script's files past the first name and inode
        // blocks, so lookups scan and inode loads land on later blocks.
        for i in 0..fillers {
            for s in [&mut twin.lazy, &mut twin.eager] {
                s.fs.create(&format!("filler{i}")).unwrap();
            }
        }
        twin
    }

    /// Runs `f` on both file systems; the answers must be equal.
    fn answer<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: impl std::fmt::Debug,
        f: impl Fn(&mut FsSim) -> T,
    ) -> Result<T, TestCaseError> {
        let got = f(&mut self.lazy.fs);
        let want = f(&mut self.eager.fs);
        prop_assert_eq!(&got, &want, "lazy vs eager on {:?}", what);
        Ok(got)
    }

    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: impl std::fmt::Debug,
        f: impl Fn(&mut FsSim) -> T,
    ) -> Result<(), TestCaseError> {
        self.answer(what, f).map(drop)
    }

    fn remount(self, crash: bool, seed: u64) -> Result<Twin, TestCaseError> {
        let mut twin = Twin {
            lazy: reboot(&self.cfg, self.lazy, crash, seed),
            eager: reboot(&self.cfg, self.eager, crash, seed),
            ..self
        };
        twin.eager.fs.rebuild_mirrors().unwrap();
        if twin.audit {
            twin.audit_stats()?;
        }
        Ok(twin)
    }

    /// Both audits pass, and both stacks have made the same device calls.
    fn audit_stats(&mut self) -> Result<(), TestCaseError> {
        self.answer("check_consistency", FsSim::check_consistency)?
            .map_err(TestCaseError::fail)?;
        self.same_device_stats()
    }

    fn same_device_stats(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.lazy.nvm.stats(), self.eager.nvm.stats(), "NVM stats");
        prop_assert_eq!(
            self.lazy.disk.stats(),
            self.eager.disk.stats(),
            "disk stats"
        );
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Create(i) => {
                self.both(op, |fs| fs.create(&name(i)))?;
            }
            Op::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let data = vec![fill; len as usize];
                self.both(op, |fs| {
                    let ino = fs.open(&name(file))?;
                    fs.write(ino, offset.into(), &data).map(|()| ino)
                })?;
            }
            Op::Truncate { file, size } => {
                self.both(op, |fs| {
                    let ino = fs.open(&name(file))?;
                    fs.truncate(ino, size.into()).map(|()| ino)
                })?;
            }
            Op::Read { file, offset, len } => {
                self.both(op, |fs| {
                    let ino = fs.open(&name(file))?;
                    let mut buf = vec![0u8; len as usize];
                    let n = fs.read(ino, offset.into(), &mut buf)?;
                    buf.truncate(n);
                    Ok::<_, crate::FsError>((ino, buf))
                })?;
            }
            Op::Rename(a, b) => {
                self.both(op, |fs| fs.rename(&name(a), &name(b)))?;
            }
            Op::Delete(i) => {
                self.both(op, |fs| fs.delete(&name(i)))?;
            }
            Op::Fsync => {
                self.both(op, FsSim::fsync)?;
            }
            Op::Count => {
                self.both(op, |fs| (fs.file_count(), fs.free_space_blocks()))?;
            }
            Op::Remount { .. } => unreachable!("a remount replaces the twin"),
        }
        Ok(())
    }

    /// The closing comparison: both audits pass, the counts agree, and
    /// every file reads the same bytes on both.
    fn finish(&mut self) -> Result<(), TestCaseError> {
        self.answer("check_consistency", FsSim::check_consistency)?
            .map_err(TestCaseError::fail)?;
        self.both(Op::Count, |fs| (fs.file_count(), fs.free_space_blocks()))?;
        for i in 0..FILES {
            self.both(format!("reading {} whole", name(i)), |fs| {
                let ino = fs.open(&name(i))?;
                let mut buf = vec![0u8; fs.file_size(ino)? as usize];
                let n = fs.read(ino, 0, &mut buf)?;
                Ok::<_, crate::FsError>((ino, n, buf))
            })?;
        }
        if self.audit {
            self.same_device_stats()?;
        }
        Ok(())
    }
}

fn run_twins(
    system: System,
    fillers: u16,
    audit: bool,
    seed: u64,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut twin = Twin::new(system, fillers, audit);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Remount { crash } => twin = twin.remount(crash, seed ^ step as u64)?,
            _ => twin.apply(op)?,
        }
    }
    twin.finish()
}

/// One case: a stack, how many filler files precede the script's, whether
/// every remount is audited, the crash seed, the script.
fn case() -> impl Strategy<Value = (usize, u16, bool, u64, Vec<Op>)> {
    (
        0usize..3,
        prop_oneof![0u16..4, 60u16..140],
        any::<bool>(),
        any::<u64>(),
        proptest::collection::vec(op(), 1..40),
    )
}

const SYSTEMS: [System; 3] = [System::Tinca, System::Classic, System::Ubj];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn a_lazy_mount_answers_like_an_eager_one((sys, fillers, audit, seed, ops) in case()) {
        run_twins(SYSTEMS[sys], fillers, audit, seed, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 600, ..ProptestConfig::default() })]

    /// The same property over many more scripts (run in release by CI).
    #[test]
    #[ignore]
    fn a_lazy_mount_answers_like_an_eager_one_at_length((sys, fillers, audit, seed, ops) in case()) {
        run_twins(SYSTEMS[sys], fillers, audit, seed, &ops)?;
    }
}

/// A directed case: after a lazy remount of a file system with files in
/// several name and inode blocks, reading one file loads only its own
/// inode block and the name blocks up to its name.
#[test]
fn a_lookup_reads_only_up_to_its_name() {
    let cfg = StackConfig::tiny(System::Tinca);
    let mut s = build(&cfg).unwrap();
    for i in 0..100 {
        let f = s.fs.create(&format!("g{i}")).unwrap();
        s.fs.write(f, 0, &[i as u8; 10]).unwrap();
    }
    s.fs.fsync().unwrap();
    let (nvm, disk, clock) = (s.nvm.clone(), s.disk.clone(), s.clock.clone());
    s.fs.unmount().unwrap();
    let mut re = remount(&cfg, nvm, disk, clock).unwrap();
    let f = re.fs.open("g70").unwrap();
    assert_eq!(
        re.fs.name_blocks_read, 2,
        "g70 sits in the second name block"
    );
    let mut buf = [0u8; BLOCK_SIZE];
    assert_eq!(re.fs.read(f, 0, &mut buf).unwrap(), 10);
    assert_eq!(buf[..10], [70; 10]);
    let loaded: Vec<usize> = (0..re.fs.inode_block_read.len())
        .filter(|&b| re.fs.inode_block_read[b])
        .collect();
    assert_eq!(loaded, [f as usize / crate::INODES_PER_BLOCK]);
    assert!(!re.fs.bitmap_read && !re.fs.mirrors_complete);
    re.fs.check_consistency().unwrap();
    assert!(re.fs.mirrors_complete);
    assert_eq!(re.fs.file_count().unwrap(), 100);
}
