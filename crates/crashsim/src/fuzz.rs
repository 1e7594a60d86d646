//! Randomised crash fuzzing: a seeded workload, a random crash point, an
//! adversarial write-back resolution, then full verification — repeated.

use fssim::stack::{StackConfig, System};
use fssim::FsSim;
use nvmsim::Nvm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::{campaign, AppOutcome, CampaignReport};
use crate::engine::{run_one, Crashable, Cut, Trip};
use crate::{CrashHarness, FsOracle};

/// A deterministic scripted workload step. Shared with the crash-frontier
/// enumerator ([`crate::frontier`]), which replays the same scripts.
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

/// The FS-level crash application: a scripted file workload over one
/// stack, with the [`FsOracle`] tracking durable/staged state. The stack
/// batches through explicit fsyncs only (`txn_block_limit` is raised
/// above the script's reach), so the oracle knows every commit boundary
/// exactly.
pub(crate) struct FsApp<'p> {
    harness: CrashHarness,
    oracle: FsOracle,
    plan: &'p [Step],
}

impl<'p> FsApp<'p> {
    /// `plan` on a fresh `system` stack; `destage` as in
    /// [`fuzz_system_opts`].
    pub(crate) fn new(system: System, destage: bool, plan: &'p [Step]) -> FsApp<'p> {
        let mut cfg = StackConfig::tiny(system);
        cfg.txn_block_limit = 100_000; // commits only at explicit fsync
        if destage {
            cfg.destage = true;
            cfg.nvm_bytes = 160 << 10;
        }
        let harness = CrashHarness::new(cfg);
        // Each app builds a fresh stack with its own simulated clock;
        // point any installed telemetry recorder at it so per-seed spans
        // attribute this run's simulated time (a no-op when telemetry is
        // off).
        telemetry::swap_clock(&harness.stack().clock);
        FsApp {
            harness,
            oracle: FsOracle::new(),
            plan,
        }
    }
}

impl Crashable for FsApp<'_> {
    fn devices(&self) -> &[Nvm] {
        std::slice::from_ref(&self.harness.stack().nvm)
    }

    fn drive(&mut self) -> Result<(), String> {
        let (oracle, plan) = (&mut self.oracle, self.plan);
        self.harness
            .run(|fs| plan.iter().for_each(|step| apply(fs, oracle, step)));
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), String> {
        self.harness.crash_and_remount(cut);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        self.harness.verify(&self.oracle).map_err(|e| e.to_string())
    }
}

fn fs_seed(
    system: System,
    seed: u64,
    steps: usize,
    mode: FailureMode,
    destage: bool,
) -> AppOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = script(&mut rng, steps, 12);
    let trip = Trip {
        dev: 0,
        at: rng.gen_range(1..20_000u64),
    };
    run_one(
        &mut FsApp::new(system, destage, &plan),
        trip,
        Cut::of(mode, seed ^ 0xD1CE),
    )
    .tagged(format_args!("seed {seed} trip {} ({mode:?})", trip.at))
}

/// Runs one seeded crash-fuzz iteration against `system` (a power
/// pull).
pub fn fuzz_one(system: System, seed: u64, steps: usize) -> AppOutcome {
    fs_seed(system, seed, steps, FailureMode::PowerPull, false)
}

/// Runs a fuzz campaign of `runs` seeds against `system` (power pulls).
pub fn fuzz_system(system: System, base_seed: u64, runs: u64, steps: usize) -> CampaignReport {
    fuzz_system_mode(system, base_seed, runs, steps, FailureMode::PowerPull)
}

/// [`fuzz_system`] with an explicit failure mode.
pub fn fuzz_system_mode(
    system: System,
    base_seed: u64,
    runs: u64,
    steps: usize,
    mode: FailureMode,
) -> CampaignReport {
    fuzz_system_opts(system, base_seed, runs, steps, mode, false)
}

/// [`fuzz_system_mode`] with the write-behind pipeline toggle.
///
/// With `destage`, the stack runs the watermark destage daemon and
/// commit-path flush coalescing on a shrunken NVM (160 KB ≈ 34 data
/// blocks), so the script's working set crosses the low watermark and
/// crashes land during background writeback — the campaign then proves
/// that a crash mid-destage never loses an acknowledged commit.
pub fn fuzz_system_opts(
    system: System,
    base_seed: u64,
    runs: u64,
    steps: usize,
    mode: FailureMode,
    destage: bool,
) -> CampaignReport {
    campaign(runs, true, |i, _| {
        fs_seed(system, base_seed + i, steps, mode, destage)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let sa = script(&mut a, 50, 8);
        let sb = script(&mut b, 50, 8);
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            match (x, y) {
                (Step::Create(p), Step::Create(q)) => assert_eq!(p, q),
                (Step::Fsync, Step::Fsync) => {}
                (Step::Delete(p), Step::Delete(q)) => assert_eq!(p, q),
                (
                    Step::Write {
                        name: p,
                        offset: o1,
                        len: l1,
                        fill: f1,
                    },
                    Step::Write {
                        name: q,
                        offset: o2,
                        len: l2,
                        fill: f2,
                    },
                ) => {
                    assert_eq!((p, o1, l1, f1), (q, o2, l2, f2));
                }
                _ => panic!("scripts diverged"),
            }
        }
    }
}
