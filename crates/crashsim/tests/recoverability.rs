//! The paper's §5.1 recoverability experiment, strengthened: both systems
//! must come back consistent from power cuts at arbitrary points; the
//! no-journal baseline must *not* (demonstrating that the consistency the
//! other two provide is real, not vacuous).

use crashsim::engine::{frontier, sweep, Cut};
use crashsim::{CampaignReport, Check, CrashHarness, FailureMode, FsOracle, FsPlan};
use fssim::stack::{StackConfig, System};

/// `runs` power-pull seeds from `seed` of `steps`-step scripts.
fn fuzz(system: System, seed: u64, runs: u64, steps: usize) -> CampaignReport {
    sweep(&FsPlan::new(system, steps), seed..seed + runs)
}

/// As [`fuzz`], on the write-behind destage pipeline.
fn fuzz_destaged(seed: u64, runs: u64, steps: usize) -> CampaignReport {
    let plan = FsPlan {
        destage: true,
        ..FsPlan::new(System::Tinca, steps)
    };
    sweep(&plan, seed..seed + runs)
}

#[test]
fn tinca_survives_fuzzed_crashes() {
    let report = fuzz(System::Tinca, 1000, 30, 60);
    assert!(report.crashes > 0, "campaign should hit mid-run crashes");
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn classic_jbd2_survives_fuzzed_crashes() {
    let report = fuzz(System::Classic, 2000, 30, 60);
    assert!(report.crashes > 0);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn tinca_without_role_switch_still_consistent() {
    // The ablation changes the cost, not the correctness.
    let report = fuzz(System::TincaNoRoleSwitch, 3000, 15, 40);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn ubj_survives_fuzzed_crashes() {
    // The §5.4.4 baseline provides the same consistency guarantee (at a
    // different cost), so it must pass the same campaign.
    let report = fuzz(System::Ubj, 4000, 30, 60);
    assert!(report.crashes > 0);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn tinca_coalesced_flushes_survive_fuzzed_crashes() {
    // Batching the ring slots and the `Head` move behind one fence
    // (`coalesce_flushes`) must not weaken crash consistency.
    let report = fuzz_destaged(4500, 20, 50);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn classic_logmeta_survives_fuzzed_crashes() {
    // The FlashTier/bcache-style metadata log must be as crash-safe as
    // the synchronous metadata blocks.
    let report = fuzz(System::ClassicLogMeta, 5000, 20, 50);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn tinca_destage_pipeline_survives_fuzzed_crashes() {
    // Write-behind destage + flush coalescing on a cache small enough
    // that the watermark daemon runs mid-script: power cuts landing
    // during background writeback must never lose an acknowledged fsync.
    let report = fuzz_destaged(7000, 30, 60);
    assert!(report.crashes > 0, "campaign should hit mid-run crashes");
    assert!(report.clean(), "violations: {:?}", report.violations);
}

#[test]
fn process_kill_scenario_is_clean_for_both() {
    // §5.1's second failure scenario: killing the process loses DRAM but
    // the CPU caches drain, so everything stored reaches NVM.
    for (sys, seed) in [(System::Tinca, 61_000u64), (System::Classic, 62_000)] {
        let plan = FsPlan {
            mode: FailureMode::ProcessKill,
            ..FsPlan::new(sys, 50)
        };
        let report = sweep(&plan, seed..seed + 15);
        assert!(report.clean(), "{}: {:?}", sys.name(), report.violations);
    }
}

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
fn fs_frontier_enumeration_recovers_clean() {
    let report = frontier(&FsPlan::new(System::Tinca, 8), 11..12, 4);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.epochs_total > 0, "probe found no workload epochs");
    assert!(report.runs >= 2 * report.epochs_total);
    // The commit record is a single line: some epochs must have been
    // enumerated exhaustively even with a tiny cap.
    assert!(report.epochs_exhaustive > 0, "{report}");
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
