//! Crash plans for the file-system stack: a seeded file workload, a
//! random crash point, an adversarial write-back resolution (or a process
//! kill), then full verification — swept over seeds, or enumerated.

use fssim::stack::{StackConfig, System};
use fssim::FsSim;
use nvmsim::Nvm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Crashable, Cut, Plan, Trip};
use crate::{CrashHarness, Finding, FsOracle};

/// A deterministic scripted workload step.
pub(crate) enum Step {
    Create(String),
    Write {
        name: String,
        offset: u64,
        len: usize,
        fill: u8,
    },
    Delete(String),
    Fsync,
}

pub(crate) fn script(rng: &mut StdRng, steps: usize, max_files: usize) -> Vec<Step> {
    let mut live: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(steps);
    let mut next_id = 0u32;
    for _ in 0..steps {
        let roll = rng.gen_range(0..100);
        if roll < 20 && live.len() < max_files {
            let name = format!("f{next_id}");
            next_id += 1;
            live.push(name.clone());
            out.push(Step::Create(name));
        } else if roll < 70 && !live.is_empty() {
            let name = live[rng.gen_range(0..live.len())].clone();
            out.push(Step::Write {
                name,
                offset: rng.gen_range(0..16) * 1024,
                len: rng.gen_range(1..8192),
                fill: rng.gen_range(1..=255),
            });
        } else if roll < 80 && live.len() > 1 {
            let i = rng.gen_range(0..live.len());
            let name = live.remove(i);
            out.push(Step::Delete(name));
        } else {
            out.push(Step::Fsync);
        }
    }
    out.push(Step::Fsync);
    out
}

pub(crate) fn apply(fs: &mut FsSim, oracle: &mut FsOracle, step: &Step) {
    match step {
        Step::Create(name) => {
            if fs.create(name).is_ok() {
                oracle.create(name);
            }
        }
        Step::Write {
            name,
            offset,
            len,
            fill,
        } => {
            if let Ok(ino) = fs.open(name) {
                let data = vec![*fill; *len];
                if fs.write(ino, *offset, &data).is_ok() {
                    oracle.write(name, *offset, &data);
                }
            }
        }
        Step::Delete(name) => {
            if fs.delete(name).is_ok() {
                oracle.delete(name);
            }
        }
        Step::Fsync => {
            // A commit error is a clean abort (e.g. the destage variant's
            // tiny cache cannot stage the whole batch): the batch stays
            // uncommitted and a later fsync may retry it.
            if fs.fsync().is_ok() {
                oracle.committed();
            }
        }
    }
}

/// How the simulated failure happens (§5.1 runs both scenarios).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureMode {
    /// "Unexpectedly plugging out the power cable": un-fenced write-back
    /// state resolves adversarially.
    PowerPull,
    /// "Suddenly killing Tinca's process": DRAM state is lost but the CPU
    /// caches survive and eventually drain — everything stored reaches
    /// NVM.
    ProcessKill,
}

/// A scripted file workload over one stack: `steps` steps on `system`,
/// failing per `mode`. The stack batches through explicit fsyncs only
/// (`txn_block_limit` is raised above the script's reach), so the
/// [`FsOracle`] knows every commit boundary exactly.
///
/// With `destage`, the stack runs the watermark destage daemon and
/// commit-path flush coalescing on a shrunken NVM (160 KB ≈ 34 data
/// blocks), so the script's working set crosses the low watermark and
/// crashes land during background writeback — the campaign then proves
/// that a crash mid-destage never loses an acknowledged commit.
#[derive(Clone, Copy, Debug)]
pub struct FsPlan {
    pub system: System,
    pub steps: usize,
    pub mode: FailureMode,
    pub destage: bool,
}

impl FsPlan {
    /// Power pulls on `system`, `steps` steps per script, no destage.
    pub const fn new(system: System, steps: usize) -> FsPlan {
        FsPlan {
            system,
            steps,
            mode: FailureMode::PowerPull,
            destage: false,
        }
    }
}

impl Plan for FsPlan {
    type App = FsApp;
    const NAME: &'static str = "fs";

    fn build(&self, seed: u64) -> Result<(FsApp, Trip, Cut<'static>), Finding> {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = script(&mut rng, self.steps, 12);
        let trip = Trip {
            dev: 0,
            at: rng.gen_range(1..20_000u64),
        };
        let mut cfg = StackConfig::tiny(self.system);
        cfg.txn_block_limit = 100_000; // commits only at explicit fsync
        if self.destage {
            cfg.destage = true;
            cfg.nvm_bytes = 160 << 10;
        }
        let harness = CrashHarness::new(cfg);
        // Each app builds a fresh stack with its own simulated clock;
        // point any installed telemetry recorder at it so per-seed spans
        // attribute this run's simulated time (a no-op when telemetry is
        // off).
        telemetry::swap_clock(&harness.stack().clock);
        let app = FsApp {
            harness,
            oracle: FsOracle::new(),
            plan,
        };
        Ok((app, trip, Cut::of(self.mode, seed ^ 0xD1CE)))
    }
}

/// The FS-level crash application: the harness, the oracle and the
/// script.
pub struct FsApp {
    harness: CrashHarness,
    oracle: FsOracle,
    plan: Vec<Step>,
}

impl Crashable for FsApp {
    fn devices(&self) -> &[Nvm] {
        std::slice::from_ref(&self.harness.stack().nvm)
    }

    fn drive(&mut self) -> Result<(), Finding> {
        let (oracle, plan) = (&mut self.oracle, &self.plan);
        self.harness
            .run(|fs| plan.iter().for_each(|step| apply(fs, oracle, step)));
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        self.harness.crash_and_remount(cut);
        Ok(())
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        self.harness.verify(&self.oracle).map(|staged| vec![staged])
    }
}
