//! The mount's cost: a remount after a power cut reads the superblock
//! (and replays the journal) and nothing else, so serving the first
//! request after a crash costs a small fraction of a full metadata walk.
//!
//! Setup: the benchmark's fio geometry (`scaled_local`, 32 MB NVM, 16 384
//! provisioned files), one 16 MB file, a power cut.

use tinca_repro::blockdev::BLOCK_SIZE;
use tinca_repro::fssim::stack::{build, remount, Stack, StackConfig, System};
use tinca_repro::nvmsim::CrashPolicy;

const FILE: &str = "fio.dat";
const FILE_BLOCKS: usize = 4096;

/// The benchmark's fio stack.
fn fio_stack(system: System) -> StackConfig {
    StackConfig {
        nvm_bytes: 32 << 20,
        ..StackConfig::scaled_local(system)
    }
}

fn mount_then_audit(system: System) {
    let cfg = fio_stack(system);
    let mut stack = build(&cfg).unwrap();
    let f = stack.fs.create(FILE).unwrap();
    let chunk = vec![0x5Au8; 64 * BLOCK_SIZE];
    for c in 0..FILE_BLOCKS / 64 {
        stack.fs.write(f, (c * chunk.len()) as u64, &chunk).unwrap();
    }
    stack.fs.fsync().unwrap();
    let Stack {
        fs,
        nvm,
        disk,
        clock,
        ..
    } = stack;
    drop(fs);
    nvm.crash(CrashPolicy::Random(0xF5_0A7));

    let t0 = clock.now_ns();
    let (re, report) = telemetry::record(&clock, telemetry::Config::default(), || {
        remount(&cfg, nvm, disk, clock.clone())
    });
    let mut re = re.unwrap();
    for table in [
        telemetry::phase::FS_MOUNT_NAMES,
        telemetry::phase::FS_MOUNT_INODES,
    ] {
        let read: Vec<&str> = report
            .phases
            .iter()
            .filter(|p| p.name == table && p.count > 0)
            .map(|p| p.path.as_str())
            .collect();
        assert!(
            read.is_empty(),
            "{}: the remount ran {read:?}",
            system.name()
        );
    }
    // Journal replay is recovery, not a mirror load; only Classic runs it.
    let replay_ns: u64 = report
        .phases
        .iter()
        .filter(|p| p.name == telemetry::phase::JBD2_REPLAY)
        .map(|p| p.total_ns)
        .sum();
    let f = re.fs.open(FILE).unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    assert_eq!(re.fs.read(f, 0, &mut buf).unwrap(), BLOCK_SIZE);
    assert_eq!(buf, [0x5A; BLOCK_SIZE], "{}", system.name());
    let serve_ns = re.clock.now_ns() - t0;

    let t1 = re.clock.now_ns();
    re.fs.check_consistency().unwrap();
    let audit_ns = re.clock.now_ns() - t1;
    println!(
        "{}: remount + open + read {serve_ns} ns (journal replay {replay_ns} ns), audit {audit_ns} ns",
        system.name()
    );
    assert!(
        (serve_ns - replay_ns) * 100 < audit_ns,
        "{}: remount + open + one read took {} ns beside the journal replay, \
         not under 1 % of the audit's {audit_ns} ns",
        system.name(),
        serve_ns - replay_ns
    );
}

#[test]
fn a_tinca_remount_reads_no_name_or_inode_table() {
    mount_then_audit(System::Tinca);
}

#[test]
fn a_classic_remount_reads_no_name_or_inode_table() {
    mount_then_audit(System::Classic);
}
