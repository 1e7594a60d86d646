// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! End-to-end file-system tests across all stack configurations.

use blockdev::{DiskKind, FaultPlan, FaultyDisk, IoError, SimDisk, BLOCK_SIZE};
use fssim::stack::{build, remount, Stack, StackConfig, System};
use fssim::{Backend, BackendError, FsError, FsSim, Geometry, JournalMode};
use nvmsim::SimClock;

fn tiny(system: System) -> Stack {
    build(&StackConfig::tiny(system)).unwrap()
}

const ALL_SYSTEMS: [System; 7] = [
    System::Tinca,
    System::Classic,
    System::ClassicNoJournal,
    System::ClassicNoMeta,
    System::ClassicNoJournalNoMeta,
    System::TincaNoRoleSwitch,
    System::Ubj,
];

#[test]
fn create_write_read_on_every_system() {
    for sys in ALL_SYSTEMS {
        let mut s = tiny(sys);
        let f = s.fs.create("file.dat").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        s.fs.write(f, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        let n = s.fs.read(f, 0, &mut back).unwrap();
        assert_eq!(n, data.len(), "{}", sys.name());
        assert_eq!(back, data, "{}", sys.name());
        assert_eq!(s.fs.file_size(f).unwrap(), data.len() as u64);
        s.fs.check_consistency().unwrap();
    }
}

#[test]
fn unaligned_overwrites() {
    let mut s = tiny(System::Tinca);
    let f = s.fs.create("x").unwrap();
    s.fs.write(f, 0, &[1u8; 9000]).unwrap();
    s.fs.write(f, 100, &[2u8; 50]).unwrap();
    s.fs.write(f, 4090, &[3u8; 20]).unwrap(); // straddles block boundary
    let mut buf = vec![0u8; 9000];
    s.fs.read(f, 0, &mut buf).unwrap();
    assert!(buf[..100].iter().all(|&b| b == 1));
    assert!(buf[100..150].iter().all(|&b| b == 2));
    assert!(buf[150..4090].iter().all(|&b| b == 1));
    assert!(buf[4090..4110].iter().all(|&b| b == 3));
    assert!(buf[4110..].iter().all(|&b| b == 1));
}

#[test]
fn sparse_files_read_zero_holes() {
    let mut s = tiny(System::Tinca);
    let f = s.fs.create("sparse").unwrap();
    // Write one block far into the file; earlier blocks are holes.
    s.fs.write(f, 20 * BLOCK_SIZE as u64, &[7u8; 100]).unwrap();
    let mut buf = [9u8; 200];
    let n = s.fs.read(f, 5 * BLOCK_SIZE as u64, &mut buf).unwrap();
    assert_eq!(n, 200);
    assert!(buf.iter().all(|&b| b == 0), "holes must read as zeroes");
}

#[test]
fn large_file_through_indirect_blocks() {
    // > 12 direct + some of the indirect range, with verification.
    let mut s = build(&StackConfig {
        nvm_bytes: 16 << 20,
        disk_blocks: 1 << 17,
        ..StackConfig::tiny(System::Tinca)
    })
    .unwrap();
    let f = s.fs.create("big").unwrap();
    let chunk = vec![0xABu8; 64 * BLOCK_SIZE]; // 256 KB
    for i in 0..4u64 {
        s.fs.write(f, i * chunk.len() as u64, &chunk).unwrap();
    }
    assert_eq!(s.fs.file_size(f).unwrap(), 4 * chunk.len() as u64); // 1 MB > 48 KB direct
    let mut buf = vec![0u8; BLOCK_SIZE];
    // Verify a block deep in the indirect range.
    s.fs.read(f, 200 * BLOCK_SIZE as u64, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0xAB));
    s.fs.check_consistency().unwrap();
}

#[test]
fn double_indirect_range_works() {
    let mut s = build(&StackConfig {
        nvm_bytes: 32 << 20,
        disk_blocks: 1 << 17,
        ..StackConfig::tiny(System::Tinca)
    })
    .unwrap();
    let f = s.fs.create("huge").unwrap();
    // One write beyond 12 + 512 blocks (the double-indirect threshold).
    let off = (12 + 512 + 100) * BLOCK_SIZE as u64;
    s.fs.write(f, off, &[0x5A; 8192]).unwrap();
    let mut buf = [0u8; 8192];
    s.fs.read(f, off, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x5A));
    s.fs.check_consistency().unwrap();
}

#[test]
fn delete_frees_space_and_name() {
    let mut s = tiny(System::Tinca);
    let free0 = s.fs.free_space_blocks().unwrap();
    let f = s.fs.create("temp").unwrap();
    s.fs.write(f, 0, &vec![1u8; 40 * BLOCK_SIZE]).unwrap();
    assert!(s.fs.free_space_blocks().unwrap() < free0);
    s.fs.delete("temp").unwrap();
    assert_eq!(
        s.fs.free_space_blocks().unwrap(),
        free0,
        "all blocks must return"
    );
    assert!(!s.fs.exists("temp").unwrap());
    assert!(matches!(s.fs.open("temp"), Err(FsError::NotFound(_))));
    // Name and inode are reusable.
    let f2 = s.fs.create("temp").unwrap();
    assert_eq!(s.fs.file_size(f2).unwrap(), 0);
    s.fs.check_consistency().unwrap();
}

#[test]
fn duplicate_create_fails() {
    let mut s = tiny(System::Classic);
    s.fs.create("a").unwrap();
    assert!(matches!(s.fs.create("a"), Err(FsError::Exists(_))));
}

#[test]
fn name_too_long_rejected() {
    let mut s = tiny(System::Tinca);
    let long = "x".repeat(100);
    assert!(matches!(s.fs.create(&long), Err(FsError::NameTooLong(_))));
}

#[test]
fn out_of_inodes_reported() {
    let mut cfg = StackConfig::tiny(System::Tinca);
    cfg.max_files = 4;
    let mut s = build(&cfg).unwrap();
    for i in 0..4 {
        s.fs.create(&format!("f{i}")).unwrap();
    }
    assert!(matches!(s.fs.create("f4"), Err(FsError::TooManyFiles)));
}

#[test]
fn out_of_space_reported() {
    let mut cfg = StackConfig::tiny(System::Tinca);
    cfg.disk_blocks = 1024;
    cfg.journal_blocks = 16;
    cfg.max_files = 16;
    let mut s = build(&cfg).unwrap();
    let f = s.fs.create("filler").unwrap();
    let chunk = vec![1u8; 64 * BLOCK_SIZE];
    let mut off = 0u64;
    let err = loop {
        match s.fs.write(f, off, &chunk) {
            Ok(()) => off += chunk.len() as u64,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, FsError::NoSpace));
}

#[test]
fn many_files_and_remount_preserves_namespace() {
    for sys in [System::Tinca, System::Classic] {
        let cfg = StackConfig::tiny(sys);
        let mut s = build(&cfg).unwrap();
        for i in 0..100u32 {
            let f = s.fs.create(&format!("file-{i:03}")).unwrap();
            s.fs.write(f, 0, format!("contents of {i}").as_bytes())
                .unwrap();
        }
        s.fs.delete("file-050").unwrap();
        s.fs.fsync().unwrap();
        let (nvm, disk, clock) = (s.nvm.clone(), s.disk.clone(), s.clock.clone());
        drop(s.fs);
        let (re, report) = telemetry::record(&clock, telemetry::Config::default(), || {
            remount(&cfg, nvm, disk, clock.clone())
        });
        let mut re = re.unwrap();
        // The mount's simulated time sits in its named steps.
        let mount = report.find(telemetry::phase::FS_MOUNT).unwrap();
        let named: u64 = mount
            .children
            .iter()
            .map(|&c| &report.phases[c])
            .filter(|p| p.name.starts_with("fs.mount.") || p.name == telemetry::phase::JBD2_REPLAY)
            .map(|p| p.total_ns)
            .sum();
        assert!(
            named as f64 >= 0.95 * mount.total_ns as f64,
            "{}: {named} of {} mount ns in named steps",
            sys.name(),
            mount.total_ns
        );
        assert_eq!(re.fs.file_count().unwrap(), 99, "{}", sys.name());
        assert!(!re.fs.exists("file-050").unwrap());
        for i in [0u32, 25, 99] {
            let f = re.fs.open(&format!("file-{i:03}")).unwrap();
            let want = format!("contents of {i}");
            let mut buf = vec![0u8; want.len()];
            re.fs.read(f, 0, &mut buf).unwrap();
            assert_eq!(buf, want.as_bytes(), "{} file {i}", sys.name());
        }
        re.fs.check_consistency().unwrap();
    }
}

#[test]
fn txn_batching_commits_at_limit() {
    let mut cfg = StackConfig::tiny(System::Tinca);
    cfg.txn_block_limit = 8;
    let mut s = build(&cfg).unwrap();
    let f = s.fs.create("batch").unwrap();
    assert_eq!(s.fs.stats().commits, 0);
    // Enough distinct blocks to cross the limit.
    s.fs.write(f, 0, &vec![1u8; 16 * BLOCK_SIZE]).unwrap();
    assert!(
        s.fs.stats().commits >= 1,
        "batch limit must trigger a commit"
    );
    assert!(!s.fs.txn_sizes().is_empty());
}

#[test]
fn classic_journal_double_writes_vs_tinca() {
    // The paper's core claim, measured end-to-end through the FS: for the
    // same workload, Classic (JBD2 + Flashcache) flushes far more NVM
    // cache lines than Tinca (Fig. 3(a): journaling ≈ 2–2.9× traffic).
    let run = |sys: System| -> (u64, u64) {
        let mut s = tiny(sys);
        let f = s.fs.create("w").unwrap();
        let nvm0 = s.nvm.stats();
        let data = vec![7u8; 4 * BLOCK_SIZE];
        for i in 0..32u64 {
            s.fs.write(f, (i % 8) * data.len() as u64, &data).unwrap();
        }
        s.fs.fsync().unwrap();
        let d = s.nvm.stats().delta(&nvm0);
        (d.clflush, d.lines_written)
    };
    let (tinca_flush, _) = run(System::Tinca);
    let (classic_flush, _) = run(System::Classic);
    assert!(
        classic_flush as f64 > 2.0 * tinca_flush as f64,
        "Classic should flush ≳2× more: classic={classic_flush} tinca={tinca_flush}"
    );
}

#[test]
fn fsync_forces_commit() {
    let mut s = tiny(System::Classic);
    let f = s.fs.create("d").unwrap();
    s.fs.write(f, 0, &[1u8; 100]).unwrap();
    assert_eq!(s.fs.stats().commits, 0);
    s.fs.fsync().unwrap();
    assert_eq!(s.fs.stats().commits, 1);
    assert_eq!(s.fs.stats().fsyncs, 1);
    // Journal saw the transaction.
    assert!(s.fs.journal_stats().unwrap().commits == 1);
}

#[test]
fn unmount_then_mount_without_journal_replay() {
    let cfg = StackConfig::tiny(System::Classic);
    let mut s = build(&cfg).unwrap();
    let f = s.fs.create("z").unwrap();
    s.fs.write(f, 0, b"persist me").unwrap();
    let (nvm, disk, clock) = (s.nvm.clone(), s.disk.clone(), s.clock.clone());
    s.fs.unmount().unwrap();
    let mut re = remount(&cfg, nvm, disk, clock).unwrap();
    // Clean unmount checkpointed everything: replay had nothing to do.
    assert_eq!(re.fs.journal_stats().unwrap().replayed_txns, 0);
    let f = re.fs.open("z").unwrap();
    let mut buf = [0u8; 10];
    re.fs.read(f, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"persist me");
}

#[test]
fn truncate_shrinks_and_frees() {
    let mut s = tiny(System::Tinca);
    let free0 = s.fs.free_space_blocks().unwrap();
    let f = s.fs.create("t").unwrap();
    s.fs.write(f, 0, &vec![7u8; 20 * BLOCK_SIZE]).unwrap();
    let free_full = s.fs.free_space_blocks().unwrap();
    s.fs.truncate(f, 5 * BLOCK_SIZE as u64 + 100).unwrap();
    assert_eq!(s.fs.file_size(f).unwrap(), 5 * BLOCK_SIZE as u64 + 100);
    assert!(
        s.fs.free_space_blocks().unwrap() > free_full,
        "blocks past the cut must free"
    );
    // Contents up to the cut survive; the freed range reads as zero after
    // re-extension.
    let mut buf = vec![0u8; 6 * BLOCK_SIZE];
    let n = s.fs.read(f, 0, &mut buf).unwrap();
    assert_eq!(n, 5 * BLOCK_SIZE + 100);
    assert!(buf[..n].iter().all(|&b| b == 7));
    s.fs.truncate(f, 10 * BLOCK_SIZE as u64).unwrap();
    let mut tail = vec![9u8; BLOCK_SIZE];
    s.fs.read(f, 7 * BLOCK_SIZE as u64, &mut tail).unwrap();
    assert!(tail.iter().all(|&b| b == 0), "extension reads zeroes");
    s.fs.delete("t").unwrap();
    assert_eq!(s.fs.free_space_blocks().unwrap(), free0);
    s.fs.check_consistency().unwrap();
}

#[test]
fn truncate_partial_block_zeroes_stale_tail() {
    let mut s = tiny(System::Tinca);
    let f = s.fs.create("t2").unwrap();
    s.fs.write(f, 0, &[5u8; 3000]).unwrap();
    s.fs.truncate(f, 1000).unwrap();
    s.fs.write(f, 0, &[6u8; 500]).unwrap(); // keep the file short
                                            // Grow back over the previously-written range: old bytes must be gone.
    s.fs.truncate(f, 3000).unwrap();
    let mut buf = vec![1u8; 3000];
    s.fs.read(f, 0, &mut buf).unwrap();
    assert!(buf[..500].iter().all(|&b| b == 6));
    assert!(
        buf[500..1000].iter().all(|&b| b == 5),
        "bytes below the cut survive"
    );
    assert!(
        buf[1000..].iter().all(|&b| b == 0),
        "stale tail must read zero, got {:?}",
        &buf[1000..1010]
    );
}

#[test]
fn rename_preserves_contents_and_survives_remount() {
    let cfg = StackConfig::tiny(System::Tinca);
    let mut s = build(&cfg).unwrap();
    let f = s.fs.create("old-name").unwrap();
    s.fs.write(f, 0, b"payload").unwrap();
    s.fs.rename("old-name", "new-name").unwrap();
    assert!(!s.fs.exists("old-name").unwrap());
    assert!(matches!(
        s.fs.rename("old-name", "x"),
        Err(FsError::NotFound(_))
    ));
    s.fs.create("third").unwrap();
    assert!(matches!(
        s.fs.rename("third", "new-name"),
        Err(FsError::Exists(_))
    ));
    s.fs.fsync().unwrap();
    let (nvm, disk, clock) = (s.nvm.clone(), s.disk.clone(), s.clock.clone());
    drop(s.fs);
    let mut re = remount(&cfg, nvm, disk, clock).unwrap();
    let f = re.fs.open("new-name").unwrap();
    let mut buf = [0u8; 7];
    re.fs.read(f, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"payload");
    re.fs.check_consistency().unwrap();
}

/// A disk fault while the journal replays is an I/O error, not a damaged
/// superblock.
#[test]
fn journal_replay_io_error_is_reported_as_io() {
    let geo = Geometry::compute(1 << 12, 64, 16);
    let disk = SimDisk::new(DiskKind::Ssd, geo.total_blocks, SimClock::new());
    let journal = geo.journal_off..geo.journal_off + geo.journal_blocks;
    let faulty = FaultyDisk::new(disk, FaultPlan::quiet(1).with_bad_range(journal));
    faulty.set_enabled(false);
    let mut fs = FsSim::mkfs(Backend::Raw(faulty.clone()), geo, JournalMode::Jbd2).unwrap();
    let f = fs.create("f").unwrap();
    fs.write(f, 0, &[7; 100]).unwrap();
    fs.fsync().unwrap();
    drop(fs);
    faulty.set_enabled(true);
    let err = FsSim::mount(Backend::Raw(faulty), geo).err();
    let bad = IoError::BadBlock {
        blk: geo.journal_off,
    };
    assert_eq!(err, Some(FsError::Backend(BackendError::Io(bad))));
}

/// A mirror load's disk fault reaches the caller that needed the load: the
/// mount itself reads only the superblock and succeeds.
#[test]
fn a_mirror_load_io_error_is_reported_by_the_call_that_loads() {
    let geo = Geometry::compute(1 << 12, 64, 16);
    let regions = [
        (geo.name_off, "name table"),
        (geo.inode_off, "inode table"),
        (geo.bitmap_off, "bitmap"),
    ];
    for (bad, region) in regions {
        let disk = SimDisk::new(DiskKind::Ssd, geo.total_blocks, SimClock::new());
        let faulty = FaultyDisk::new(disk, FaultPlan::quiet(1).with_bad_range(bad..bad + 1));
        faulty.set_enabled(false);
        let mut fs = FsSim::mkfs(Backend::Raw(faulty.clone()), geo, JournalMode::None).unwrap();
        let f = fs.create("f").unwrap();
        fs.write(f, 0, &[7; 100]).unwrap();
        fs.unmount().unwrap();
        faulty.set_enabled(true);
        let mut fs = FsSim::mount(Backend::Raw(faulty), geo).unwrap();
        let io = || FsError::Backend(BackendError::Io(IoError::BadBlock { blk: bad }));
        if bad == geo.name_off {
            assert_eq!(fs.open("f"), Err(io()), "{region}");
            assert_eq!(fs.file_count(), Err(io()), "{region}");
        } else if bad == geo.inode_off {
            assert_eq!(fs.open("f"), Ok(f), "{region}");
            assert_eq!(fs.file_size(f), Err(io()), "{region}");
            assert_eq!(fs.read(f, 0, &mut [0; 10]), Err(io()), "{region}");
        } else {
            assert_eq!(fs.file_size(f), Ok(100), "{region}");
            assert_eq!(fs.free_space_blocks(), Err(io()), "{region}");
            assert_eq!(fs.write(f, 8192, &[1; 10]), Err(io()), "{region}");
        }
        assert_eq!(fs.create("g"), Err(io()), "{region}");
        assert!(fs.check_consistency().is_err(), "{region}");
    }
}
