//! A second power cut before the mirrors are whole: after a crash, the
//! file system mounts with only its superblock read, runs writes and
//! fsyncs (nothing that finishes the name, inode or bitmap loads), and
//! loses power again at a random persistence event. The remount after the
//! second cut must hold exactly the durable or the staged state.

use crashsim::engine::{Cut, Oracle};
use crashsim::CrashHarness;
use fssim::stack::{StackConfig, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Files over two name blocks and five inode blocks.
const FILES: usize = 80;

enum Step {
    Write {
        file: usize,
        offset: u64,
        len: usize,
        fill: u8,
    },
    Fsync,
}

fn name(i: usize) -> String {
    format!("f{i}")
}

/// One run; returns whether the second cut landed inside the script.
fn second_cut(system: System, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = StackConfig::tiny(system);
    cfg.txn_block_limit = 100_000; // commits only at explicit fsync
    let mut h = CrashHarness::new(cfg).unwrap();
    let fs = h.fs();
    for i in 0..FILES {
        let f = fs.create(&name(i)).unwrap();
        fs.write(f, 0, &[i as u8; 100]).unwrap();
    }
    fs.fsync().unwrap();
    let mut oracle = Oracle::default();
    oracle.begin((0..FILES).map(|i| (name(i), vec![i as u8; 100])));
    oracle.commit();
    h.crash_and_remount(Cut::Random { seed, shift: 0 }).unwrap();

    // Writes reach the direct and the indirect blocks (past 48 KB), so
    // they allocate, load the bitmap and stage inode blocks.
    let script: Vec<Step> = (0..16)
        .map(|_| match rng.gen_range(0..5) {
            0 => Step::Fsync,
            _ => Step::Write {
                file: rng.gen_range(0..FILES),
                offset: rng.gen_range(0..64u64) * 1024,
                len: rng.gen_range(1..9000),
                fill: rng.gen_range(1..=255),
            },
        })
        .collect();
    let trip = rng.gen_range(1..2500u64);
    let crashed = h.run_with_trip(trip, |fs| {
        for step in &script {
            match *step {
                Step::Write {
                    file,
                    offset,
                    len,
                    fill,
                } => {
                    let f = fs.open(&name(file)).unwrap();
                    fs.write(f, offset, &vec![fill; len]).unwrap();
                    oracle.write_at(&name(file), offset, &vec![fill; len]);
                }
                Step::Fsync => {
                    fs.fsync().unwrap();
                    oracle.commit();
                }
            }
        }
    });
    h.crash_and_remount(Cut::Random {
        seed: seed ^ 0x005E_C00D,
        shift: 0,
    })
    .unwrap();
    h.verify(&oracle)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", system.name()));
    crashed
}

#[test]
fn a_second_cut_before_the_mirrors_are_whole_keeps_the_oracle() {
    for system in [System::Tinca, System::Classic] {
        let crashes = (0..30u64)
            .filter(|&seed| second_cut(system, 0x1A2_0000 + seed))
            .count();
        assert!(
            (10..30).contains(&crashes),
            "{}: {crashes} of 30 second cuts landed inside the script",
            system.name()
        );
    }
}
