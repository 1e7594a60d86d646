//! The FS stack under the crash engine: run a workload against a stack
//! with a trip armed, crash, remount, and verify against a file oracle.
//! The cut → remount step and the stack's internals check are here once,
//! for [`CrashHarness`] and for kvdb's WAL personality. [`FsPlan`] is the
//! harness's campaign: a seeded file workload, a random crash point, an
//! adversarial write-back resolution (or a process kill), then full
//! verification — swept over seeds, or enumerated.

use std::ops::Range;
use std::slice::from_ref;

use fssim::stack::{self, build, Stack, StackConfig, System};
use fssim::{FsError, FsSim};
use nvmsim::{CrashTripped, Nvm, NvmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{audit, tripped, Audit, Crashable, Cut, Oracle, Plan, Trip};
use crate::{Check, Finding};

/// Suppresses panic-hook output for the *expected* [`CrashTripped`] panics
/// crash injection produces. Install once per process (idempotent).
pub fn quiet_crash_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashTripped>().is_none() {
                default(info);
            }
        }));
    });
}

/// Drives one crash experiment on one stack. Its NVM device records its
/// event trace (no effect on simulated time), and [`Self::verify`] runs
/// the persist-order [`audit`] of everything traced since the last one.
pub struct CrashHarness {
    stack: Option<Stack>,
    nvm: Nvm,
    metadata: Vec<Range<usize>>,
}

impl CrashHarness {
    /// Builds a fresh stack with event tracing enabled; a stack that
    /// cannot be built is a [`Check::Workload`] finding.
    pub fn new(mut cfg: StackConfig) -> Result<Self, Finding> {
        quiet_crash_panics();
        let nvm_cfg = cfg
            .nvm_override
            .take()
            .unwrap_or_else(|| NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech));
        cfg.nvm_override = Some(nvm_cfg.with_tracing());
        let stack = build(&cfg).map_err(|e| Check::Workload.found(format_args!("mkfs: {e}")))?;
        Ok(Self {
            nvm: stack.nvm.clone(),
            metadata: stack.fs.backend().metadata_ranges(),
            stack: Some(stack),
        })
    }

    /// The persist-order [`audit`] of everything traced since the last.
    pub fn audit(&self) -> Audit {
        audit(from_ref(&self.nvm), from_ref(&self.metadata))
    }

    /// The live file system (panics after a crash until remounted).
    pub fn fs(&mut self) -> &mut FsSim {
        &mut self.stack.as_mut().expect("stack live").fs
    }

    /// The traced NVM device, which outlives every remount.
    pub(crate) fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Runs `workload` with a crash trip armed `trip` persistence events
    /// from now. Returns `true` if the trip fired (workload interrupted).
    pub fn run_with_trip<F>(&mut self, trip: u64, workload: F) -> bool
    where
        F: FnOnce(&mut FsSim),
    {
        let fs = &mut self.stack.as_mut().expect("stack live").fs;
        self.nvm.set_trip(Some(trip));
        tripped(from_ref(&self.nvm), || workload(fs)).is_none()
    }

    /// Simulates the power failure and reboots the stack ([`remount`]).
    /// After a failed remount the stack stays down.
    pub fn crash_and_remount(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        let stack = self.stack.take().expect("stack live");
        self.stack = Some(remount(stack, cut)?);
        Ok(())
    }

    /// Checks the recovered state: the event trace is persist-order
    /// clean, the [`internals`] hold, and `oracle` judges the files by
    /// name and contents, with no file it never saw. Returns its verdict.
    pub fn verify(&mut self, oracle: &Oracle<String, Vec<u8>>) -> Result<Vec<bool>, Finding> {
        self.audit().verdict()?;
        let fs = self.fs();
        internals(fs)?;
        // The judge accepts each file after one `holds` that returned
        // true, so `files` counts those the matched state holds.
        let mut files = 0;
        let forward = oracle.judge([], |name, want| {
            let held = file_holds(fs, name, want)?;
            files += usize::from(held && want.is_some());
            Ok(held)
        })?;
        match fs.file_count() {
            Ok(count) if count == files => Ok(forward),
            Ok(count) => Err(Check::Oracle.found(format_args!("{count} files, expected {files}"))),
            Err(e) => Err(Check::Oracle.found(format_args!("name table unreadable: {e}"))),
        }
    }
}

/// Fails the power on `stack`'s NVM per `cut` and reboots it: DRAM state
/// is discarded, the NVM resolves its volatile write-back state, and the
/// cache and the file system run their recovery paths. A remount that
/// fails is a [`Check::Recovery`] finding.
pub fn remount(stack: Stack, cut: Cut<'_>) -> Result<Stack, Finding> {
    drop(stack.fs);
    cut.apply(from_ref(&stack.nvm));
    stack::remount(&stack.config, stack.nvm, stack.disk, stack.clock)
        .map_err(|e| Check::Recovery.found(format_args!("remount: {e}")))
}

/// A mounted stack's internal invariants: its cache's, then its file
/// system's ([`Check::Internals`]).
pub fn internals(fs: &mut FsSim) -> Result<(), Finding> {
    fs.backend()
        .check()
        .map_err(|e| Check::Internals.found(format_args!("cache: {e}")))?;
    fs.check_consistency()
        .map_err(|e| Check::Internals.found(format_args!("fs: {e}")))
}

/// Whether the mounted file system holds `want` under `name`: exactly
/// those contents, or, for `None`, no such file. A file that fails to read
/// is a [`Check::Oracle`] finding.
fn file_holds(fs: &mut FsSim, name: &str, want: Option<&Vec<u8>>) -> Result<bool, Finding> {
    let unreadable = |e: FsError| Check::Oracle.found(format_args!("{name}: unreadable: {e}"));
    let Some(want) = want else {
        return fs.exists(name).map(|found| !found).map_err(unreadable);
    };
    let Ok(ino) = fs.open(name) else {
        return Ok(false);
    };
    if fs.file_size(ino).map_err(unreadable)? != want.len() as u64 {
        return Ok(false);
    }
    let mut buf = vec![0u8; want.len()];
    Ok(fs.read(ino, 0, &mut buf).map_err(unreadable)? == want.len() && buf == *want)
}

/// A deterministic scripted workload step.
enum Step {
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

fn script(rng: &mut StdRng, steps: usize, max_files: usize) -> Vec<Step> {
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

fn apply(fs: &mut FsSim, oracle: &mut Oracle<String, Vec<u8>>, step: &Step) {
    match step {
        Step::Create(name) => {
            if fs.create(name).is_ok() {
                oracle.stage(name.clone(), Some(Vec::new()));
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
                    oracle.write_at(name, *offset, &data);
                }
            }
        }
        Step::Delete(name) => {
            if fs.delete(name).is_ok() {
                oracle.stage(name.clone(), None);
            }
        }
        Step::Fsync => {
            // A commit error is a clean abort (e.g. the destage variant's
            // tiny cache cannot stage the whole batch): the batch stays
            // uncommitted and a later fsync may retry it.
            if fs.fsync().is_ok() {
                oracle.commit();
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
/// (`txn_block_limit` is raised above the script's reach), so the oracle
/// knows every commit boundary exactly: the files changed since the last
/// fsync are one transaction in flight.
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
        let harness = CrashHarness::new(cfg)?;
        // Each app builds a fresh stack with its own simulated clock;
        // point any installed telemetry recorder at it so per-seed spans
        // attribute this run's simulated time (a no-op when telemetry is
        // off).
        telemetry::swap_clock(harness.nvm().clock());
        let app = FsApp {
            harness,
            oracle: Oracle::default(),
            plan,
        };
        Ok((app, trip, Cut::of(self.mode, seed ^ 0xD1CE)))
    }
}

/// The FS-level crash application: the harness, the oracle over file
/// names and the script.
pub struct FsApp {
    harness: CrashHarness,
    oracle: Oracle<String, Vec<u8>>,
    plan: Vec<Step>,
}

impl Crashable for FsApp {
    fn devices(&self) -> &[Nvm] {
        std::slice::from_ref(self.harness.nvm())
    }

    fn drive(&mut self) -> Result<(), Finding> {
        let fs = self.harness.fs();
        self.plan
            .iter()
            .for_each(|step| apply(fs, &mut self.oracle, step));
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        self.harness.crash_and_remount(cut)
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        self.harness.verify(&self.oracle)
    }
}

#[cfg(test)]
mod tests {
    use blockdev::{DiskKind, FaultPlan, FaultyDisk, SimDisk};
    use fssim::{Backend, Geometry, JournalMode};
    use nvmsim::SimClock;

    use super::*;

    /// A recovered file whose data block fails to read is a finding,
    /// never a match.
    #[test]
    fn an_unreadable_file_is_a_finding() {
        let geo = Geometry::compute(1024, 0, 16);
        let disk = SimDisk::new(DiskKind::Ssd, geo.total_blocks, SimClock::new());
        let bad_data = FaultPlan::quiet(1).with_bad_range(geo.data_off..geo.total_blocks);
        let faulty = FaultyDisk::new(disk, bad_data);
        faulty.set_enabled(false);
        let raw = || Backend::Raw(faulty.clone());
        let mut fs = FsSim::mkfs(raw(), geo, JournalMode::None).unwrap();
        let f = fs.create("f").unwrap();
        fs.write(f, 0, &[7; 100]).unwrap();
        fs.fsync().unwrap();
        // A fresh mount has nothing in its page cache: the read goes to
        // the data block, which now fails.
        let mut fs = FsSim::mount(raw(), geo).unwrap();
        faulty.set_enabled(true);
        let e = file_holds(&mut fs, "f", Some(&vec![7u8; 100])).unwrap_err();
        assert_eq!(e.check, Check::Oracle, "{e}");
        assert!(e.detail.contains("f: unreadable"), "{e}");
    }
}
