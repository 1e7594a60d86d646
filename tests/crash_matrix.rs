//! Workspace-level directed crash tests: one FS transaction, an
//! overwrite or a deletion, cut at a spread of trips; the recovered state
//! must be old or new, never mixed. The FS plans' sweeps are
//! `crashsim::CAMPAIGNS` entries, pinned in `tests/pinned_campaigns.rs`.

use tinca_repro::crashsim::engine::{Cut, Oracle};
use tinca_repro::crashsim::CrashHarness;
use tinca_repro::fssim::stack::{StackConfig, System};

#[test]
fn trip_sweep_over_one_fs_transaction() {
    // Seed a file, then overwrite it in one fsync; crash at a spread of
    // points; the observed state must always be old-or-new, never mixed.
    for trip in (25..1200u64).step_by(120) {
        let mut cfg = StackConfig::tiny(System::Tinca);
        cfg.txn_block_limit = 100_000;
        let mut h = CrashHarness::new(cfg).unwrap();
        let fs = h.fs();
        let f = fs.create("doc").unwrap();
        fs.write(f, 0, &[1u8; 24_000]).unwrap();
        fs.fsync().unwrap();
        let mut oracle = Oracle::default();
        oracle.begin([("doc".to_string(), vec![1u8; 24_000])]);
        oracle.commit();
        let _ = h.run_with_trip(trip, |fs| {
            let f = fs.open("doc").unwrap();
            fs.write(f, 0, &[2u8; 24_000]).unwrap();
            fs.fsync().unwrap();
        });
        oracle.begin([("doc".to_string(), vec![2u8; 24_000])]);
        h.crash_and_remount(Cut::Random {
            seed: trip,
            shift: 0,
        })
        .unwrap();
        h.verify(&oracle)
            .unwrap_or_else(|e| panic!("Tinca torn at trip {trip}: {e}"));
    }
}

#[test]
fn deletion_is_crash_atomic() {
    let mut cfg = StackConfig::tiny(System::Tinca);
    cfg.txn_block_limit = 100_000;
    for trip in [40u64, 200, 800] {
        let mut h = CrashHarness::new(cfg.clone()).unwrap();
        let fs = h.fs();
        let f = fs.create("victim").unwrap();
        fs.write(f, 0, &[5u8; 10_000]).unwrap();
        let g = fs.create("keeper").unwrap();
        fs.write(g, 0, &[6u8; 5_000]).unwrap();
        fs.fsync().unwrap();
        let mut oracle = Oracle::default();
        oracle.begin([
            ("victim".to_string(), vec![5u8; 10_000]),
            ("keeper".to_string(), vec![6u8; 5_000]),
        ]);
        oracle.commit();
        let _ = h.run_with_trip(trip, |fs| {
            fs.delete("victim").unwrap();
            fs.fsync().unwrap();
        });
        oracle.stage("victim".to_string(), None);
        h.crash_and_remount(Cut::Random {
            seed: trip ^ 0xDEAD,
            shift: 0,
        })
        .unwrap();
        h.verify(&oracle)
            .unwrap_or_else(|e| panic!("delete torn at trip {trip}: {e}"));
        // Whatever happened to "victim", "keeper" is intact.
        let fs = h.fs();
        let g = fs.open("keeper").unwrap();
        let mut buf = [0u8; 5_000];
        fs.read(g, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 6));
    }
}
