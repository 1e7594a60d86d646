//! The paper's §5.1 recoverability experiment, directed: the no-journal
//! baseline must lose consistency under a power cut (so the consistency
//! the journaled systems keep is real, not vacuous), and a quiescent
//! crash, the shadow persist-order analyzer and repeated crash/remount
//! cycles keep the exact state. The FS plans' sweeps and frontiers are
//! `crashsim::CAMPAIGNS` entries (`fs-*`), pinned by the workspace's
//! `tests/pinned_campaigns.rs`.

use crashsim::engine::Cut;
use crashsim::{Check, CrashHarness, FsOracle};
use fssim::stack::{StackConfig, System};

#[test]
fn no_journal_baseline_can_lose_consistency() {
    // Without journaling there is no commit point: some crash must leave a
    // state that is neither pre- nor post-transaction.
    let mut violated = false;
    for seed in 0..200u64 {
        let mut cfg = StackConfig::tiny(System::ClassicNoJournal);
        cfg.txn_block_limit = 100_000;
        let mut h = CrashHarness::new(cfg);
        let mut oracle = FsOracle::new();
        h.run(|fs| {
            let f = fs.create("doc").unwrap();
            fs.write(f, 0, &[1u8; 20_000]).unwrap();
            fs.fsync().unwrap();
        });
        oracle.create("doc");
        oracle.write("doc", 0, &[1u8; 20_000]);
        oracle.committed();
        // Overwrite with version 2, crash mid-commit.
        let crashed = h.run_with_trip(20 + seed * 10, |fs| {
            let f = fs.open("doc").unwrap();
            fs.write(f, 0, &[2u8; 20_000]).unwrap();
            fs.fsync().unwrap();
        });
        oracle.write("doc", 0, &[2u8; 20_000]);
        if !crashed {
            continue;
        }
        h.crash_and_remount(Cut::Random { seed, shift: 0 });
        if let Err(e) = h.verify(&oracle) {
            assert_eq!(e.check, Check::Oracle, "{e}");
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "the no-journal baseline should exhibit torn states under crash"
    );
}

#[test]
fn quiescent_crash_preserves_exact_state() {
    for system in [System::Tinca, System::Classic] {
        let mut h = CrashHarness::new(StackConfig::tiny(system));
        let mut oracle = FsOracle::new();
        h.run(|fs| {
            for i in 0..5 {
                let f = fs.create(&format!("file{i}")).unwrap();
                fs.write(f, 0, format!("data {i}").as_bytes()).unwrap();
            }
            fs.fsync().unwrap();
        });
        for i in 0..5 {
            oracle.create(&format!("file{i}"));
            oracle.write(&format!("file{i}"), 0, format!("data {i}").as_bytes());
        }
        oracle.committed();
        assert!(oracle.quiescent());
        h.crash_and_remount(Cut::LoseVolatile);
        h.verify(&oracle)
            .unwrap_or_else(|e| panic!("{}: {e}", system.name()));
    }
}

#[test]
fn shadow_analyzer_observes_commits_and_stays_clean() {
    // Every harness runs the persist-order analyzer in shadow mode; on an
    // unmodified Tinca stack it must see real commit points and report
    // zero correctness violations — including across a crash/remount,
    // where recovery's ring close is itself a commit point.
    let mut h = CrashHarness::new(StackConfig::tiny(System::Tinca));
    h.run(|fs| {
        let f = fs.create("doc").unwrap();
        fs.write(f, 0, &[7u8; 8192]).unwrap();
        fs.fsync().unwrap();
    });
    let report = h.persist_report();
    assert!(report.commits >= 1, "analyzer must observe commit points");
    assert!(
        report.is_clean(),
        "unmodified protocol must be clean:\n{report}"
    );
    h.crash_and_remount(Cut::LoseVolatile);
    let report = h.persist_report();
    assert!(report.crashes >= 1, "the crash must appear in the trace");
    assert!(report.is_clean(), "recovery must stay clean:\n{report}");
}

#[test]
fn repeated_crash_remount_cycles() {
    // Five consecutive crash/recover cycles with work in between; state
    // must stay exact throughout (Tinca).
    let mut h = CrashHarness::new(StackConfig::tiny(System::Tinca));
    let mut oracle = FsOracle::new();
    h.run(|fs| {
        fs.create("log").unwrap();
        fs.fsync().unwrap();
    });
    oracle.create("log");
    oracle.committed();
    for round in 0..5u64 {
        let fill = round as u8 + 1;
        let crashed = h.run_with_trip(200 + round * 37, move |fs| {
            let f = fs.open("log").unwrap();
            fs.append(f, &[fill; 3000]).unwrap();
            fs.fsync().unwrap();
        });
        let offset = oracle.staged_state()["log"].len() as u64;
        oracle.write("log", offset, &[fill; 3000]);
        if !crashed {
            oracle.committed();
        }
        h.crash_and_remount(Cut::Random {
            seed: round * 7 + 1,
            shift: 0,
        });
        h.verify(&oracle)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        // Re-sync the oracle to whatever survived, then continue.
        let mut fresh = FsOracle::new();
        let fs = h.fs();
        let survived = fs.exists("log").unwrap();
        assert!(survived, "committed file must never vanish");
        let ino = fs.open("log").unwrap();
        let size = fs.file_size(ino).unwrap() as usize;
        let mut buf = vec![0u8; size];
        fs.read(ino, 0, &mut buf).unwrap();
        fresh.create("log");
        fresh.write("log", 0, &buf);
        fresh.committed();
        oracle = fresh;
    }
}
