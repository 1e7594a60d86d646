//! The paper's §5.1 recoverability experiment, directed: the no-journal
//! baseline must lose consistency under a power cut (so the consistency
//! the journaled systems keep is real, not vacuous), a quiescent crash,
//! the shadow persist-order analyzer and repeated crash/remount cycles
//! keep the exact state, and a remount that fails is one run's finding.
//! The FS plans' sweeps and frontiers are `crashsim::CAMPAIGNS` entries
//! (`fs-*`), pinned by the workspace's `tests/pinned_campaigns.rs`.

use crashsim::engine::{run_one, Crashable, Cut, Oracle, Plan, Trip};
use crashsim::{Check, CrashHarness, Finding, FsPlan};
use fssim::stack::{StackConfig, System};
use nvmsim::Nvm;

/// A file oracle that saw `name` committed with `contents`.
fn committed(name: &str, contents: Vec<u8>) -> Oracle<String, Vec<u8>> {
    let mut oracle = Oracle::default();
    oracle.begin([(name.to_string(), contents)]);
    oracle.commit();
    oracle
}

#[test]
fn no_journal_baseline_can_lose_consistency() {
    // Without journaling there is no commit point: some crash must leave a
    // state that is neither pre- nor post-transaction.
    let mut violated = false;
    for seed in 0..200u64 {
        let mut cfg = StackConfig::tiny(System::ClassicNoJournal);
        cfg.txn_block_limit = 100_000;
        let mut h = CrashHarness::new(cfg).unwrap();
        let fs = h.fs();
        let f = fs.create("doc").unwrap();
        fs.write(f, 0, &[1u8; 20_000]).unwrap();
        fs.fsync().unwrap();
        let mut oracle = committed("doc", vec![1u8; 20_000]);
        // Overwrite with version 2, crash mid-commit.
        let crashed = h.run_with_trip(20 + seed * 10, |fs| {
            let f = fs.open("doc").unwrap();
            fs.write(f, 0, &[2u8; 20_000]).unwrap();
            fs.fsync().unwrap();
        });
        oracle.write_at("doc", 0, &[2u8; 20_000]);
        if !crashed {
            continue;
        }
        h.crash_and_remount(Cut::Random { seed, shift: 0 }).unwrap();
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
        let mut h = CrashHarness::new(StackConfig::tiny(system)).unwrap();
        let fs = h.fs();
        for i in 0..5 {
            let f = fs.create(&format!("file{i}")).unwrap();
            fs.write(f, 0, format!("data {i}").as_bytes()).unwrap();
        }
        fs.fsync().unwrap();
        let mut oracle = Oracle::default();
        oracle.begin((0..5).map(|i| (format!("file{i}"), format!("data {i}").into_bytes())));
        oracle.commit();
        h.crash_and_remount(Cut::LoseVolatile).unwrap();
        // Nothing in flight: the one legal state.
        let verdict = h.verify(&oracle);
        assert_eq!(verdict, Ok(vec![]), "{}", system.name());
    }
}

#[test]
fn shadow_analyzer_observes_commits_and_stays_clean() {
    // Every harness runs the persist-order analyzer in shadow mode; on an
    // unmodified Tinca stack it must see real commit points and report
    // zero correctness violations — including across a crash/remount,
    // where recovery's ring close is itself a commit point.
    let mut h = CrashHarness::new(StackConfig::tiny(System::Tinca)).unwrap();
    let fs = h.fs();
    let f = fs.create("doc").unwrap();
    fs.write(f, 0, &[7u8; 8192]).unwrap();
    fs.fsync().unwrap();
    let report = h.audit().merged;
    assert!(report.commits >= 1, "analyzer must observe commit points");
    assert!(
        report.is_clean(),
        "unmodified protocol must be clean:\n{report}"
    );
    h.crash_and_remount(Cut::LoseVolatile).unwrap();
    let report = h.audit().merged;
    assert!(report.crashes >= 1, "the crash must appear in the trace");
    assert!(report.is_clean(), "recovery must stay clean:\n{report}");
}

#[test]
fn repeated_crash_remount_cycles() {
    // Five consecutive crash/recover cycles with work in between; state
    // must stay exact throughout (Tinca).
    let mut h = CrashHarness::new(StackConfig::tiny(System::Tinca)).unwrap();
    let fs = h.fs();
    fs.create("log").unwrap();
    fs.fsync().unwrap();
    let mut oracle = committed("log", Vec::new());
    for round in 0..5u64 {
        let fill = round as u8 + 1;
        let crashed = h.run_with_trip(200 + round * 37, move |fs| {
            let f = fs.open("log").unwrap();
            fs.append(f, &[fill; 3000]).unwrap();
            fs.fsync().unwrap();
        });
        let offset = oracle.durable()["log"].len() as u64;
        oracle.write_at("log", offset, &[fill; 3000]);
        if !crashed {
            oracle.commit();
        }
        h.crash_and_remount(Cut::Random {
            seed: round * 7 + 1,
            shift: 0,
        })
        .unwrap();
        h.verify(&oracle)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        // Re-sync the oracle to whatever survived, then continue.
        let fs = h.fs();
        let survived = fs.exists("log").unwrap();
        assert!(survived, "committed file must never vanish");
        let ino = fs.open("log").unwrap();
        let size = fs.file_size(ino).unwrap() as usize;
        let mut buf = vec![0u8; size];
        fs.read(ino, 0, &mut buf).unwrap();
        oracle = committed("log", buf);
    }
}

/// The FS plan's app, whose recovery first zeroes the cache's NVM header
/// on its way down: the remount that follows cannot find the cache.
struct Clobbered(<FsPlan as Plan>::App);

impl Crashable for Clobbered {
    fn devices(&self) -> &[Nvm] {
        self.0.devices()
    }

    fn drive(&mut self) -> Result<(), Finding> {
        self.0.drive()
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        let nvm = &self.0.devices()[0];
        nvm.write(0, &[0; 64]);
        nvm.clflush(0, 64);
        nvm.sfence();
        self.0.recover(cut)
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        self.0.verify()
    }
}

#[test]
fn a_failed_remount_is_one_runs_recovery_finding() {
    let (app, _, cut) = FsPlan::new(System::Tinca, 60).build(1000).unwrap();
    let outcome = run_one(&mut Clobbered(app), Trip { dev: 0, at: 500 }, cut);
    assert!(outcome.crashed);
    let e = outcome.verdict.unwrap_err();
    assert_eq!(e.check, Check::Recovery, "{e}");
    assert!(e.detail.starts_with("remount: "), "{e}");
}
