//! The crash harness: run a workload against a stack with a trip armed,
//! crash, remount, verify against the oracle.

use fssim::stack::{build, remount, Stack, StackConfig};
use fssim::FsSim;
use nvmsim::{CrashTripped, NvmConfig};
use persistcheck::{CheckConfig, Checker, Report};

use crate::engine::{persist_order, tripped, Cut};
use crate::{Check, Finding, FsOracle};

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

/// Drives one crash experiment on one stack. Every harness runs the
/// persist-order analyzer in shadow mode: the NVM device records its
/// event trace (no effect on simulated time), and [`Self::verify`] fails
/// if any commit point was reached with unflushed or unfenced stores.
pub struct CrashHarness {
    cfg: StackConfig,
    stack: Option<Stack>,
    checker: Checker,
}

impl CrashHarness {
    /// Builds a fresh stack with event tracing enabled.
    pub fn new(mut cfg: StackConfig) -> Self {
        quiet_crash_panics();
        let nvm_cfg = cfg
            .nvm_override
            .take()
            .unwrap_or_else(|| NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech));
        cfg.nvm_override = Some(nvm_cfg.with_tracing());
        let stack = build(&cfg).expect("stack build");
        let checker = Checker::new(CheckConfig::with_metadata(
            stack.fs.backend().metadata_ranges(),
        ));
        Self {
            cfg,
            stack: Some(stack),
            checker,
        }
    }

    /// Feeds the events traced since the last drain to the analyzer.
    fn drain_trace(&mut self) {
        if let Some(stack) = self.stack.as_ref() {
            self.checker.push_all(&stack.nvm.take_trace());
        }
    }

    /// The analyzer's cumulative view of this harness's event trace.
    pub fn persist_report(&mut self) -> Report {
        self.drain_trace();
        self.checker.report()
    }

    /// The live file system (panics after a crash until remounted).
    pub fn fs(&mut self) -> &mut FsSim {
        &mut self.stack.as_mut().expect("stack live").fs
    }

    /// The live stack.
    pub(crate) fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("stack live")
    }

    /// Runs `workload` with a crash trip armed `trip` persistence events
    /// from now. Returns `true` if the trip fired (workload interrupted).
    pub fn run_with_trip<F>(&mut self, trip: u64, workload: F) -> bool
    where
        F: FnOnce(&mut FsSim),
    {
        let stack = self.stack.as_mut().expect("stack live");
        stack.nvm.set_trip(Some(trip));
        tripped(std::slice::from_ref(&stack.nvm), || workload(&mut stack.fs)).is_none()
    }

    /// Runs `workload` with no trip (must complete).
    pub fn run<F>(&mut self, workload: F)
    where
        F: FnOnce(&mut FsSim),
    {
        let stack = self.stack.as_mut().expect("stack live");
        workload(&mut stack.fs);
    }

    /// Simulates the power failure and reboots the stack: DRAM state is
    /// discarded, the NVM resolves its volatile write-back state per
    /// `cut`, and cache + file system run their recovery paths.
    pub fn crash_and_remount(&mut self, cut: Cut<'_>) {
        let stack = self.stack.take().expect("stack live");
        let (nvm, disk, clock) = (stack.nvm, stack.disk, stack.clock);
        drop(stack.fs);
        cut.apply(std::slice::from_ref(&nvm));
        let rebooted = remount(&self.cfg, nvm, disk, clock).expect("remount after crash");
        self.stack = Some(rebooted);
    }

    /// Checks the recovered state against the oracle: the event trace is
    /// persist-order clean, internal invariants hold, and the visible file
    /// set + contents equal either the durable or the staged state
    /// (all-or-nothing). Returns whether it matched the staged state, and
    /// not the durable one.
    pub fn verify(&mut self, oracle: &FsOracle) -> Result<bool, Finding> {
        self.drain_trace();
        persist_order("trace", &self.checker.report())?;
        let stack = self.stack.as_mut().expect("stack live");
        let internals = |e| Check::Internals.found(e);
        stack.fs.backend().check().map_err(internals)?;
        stack.fs.check_consistency().map_err(internals)?;

        let Some(durable) = diff_state(&mut stack.fs, oracle.durable_state()) else {
            return Ok(false);
        };
        let Some(staged) = diff_state(&mut stack.fs, oracle.staged_state()) else {
            return Ok(true);
        };
        Err(Check::Oracle.found(format_args!("vs durable: {durable}; vs staged: {staged}")))
    }
}

/// Compares the mounted FS against an expected name→contents map.
/// Returns `None` on an exact match, or a description of the first
/// difference.
fn diff_state(
    fs: &mut FsSim,
    expected: &std::collections::HashMap<String, Vec<u8>>,
) -> Option<String> {
    let count = match fs.file_count() {
        Ok(n) => n,
        Err(e) => return Some(format!("name table unreadable: {e}")),
    };
    if count != expected.len() {
        return Some(format!("file count {count} != expected {}", expected.len()));
    }
    for (name, want) in expected {
        let Ok(ino) = fs.open(name) else {
            return Some(format!("missing file {name}"));
        };
        let size = match fs.file_size(ino) {
            Ok(size) => size,
            Err(e) => return Some(format!("{name}: inode unreadable: {e}")),
        };
        if size != want.len() as u64 {
            return Some(format!("{name}: size {size} != {}", want.len()));
        }
        let mut buf = vec![0u8; want.len()];
        match fs.read(ino, 0, &mut buf) {
            Err(e) => return Some(format!("{name}: unreadable: {e}")),
            Ok(n) if n != want.len() => {
                return Some(format!("{name}: read {n} of {} bytes", want.len()))
            }
            Ok(_) => {}
        }
        if &buf != want {
            let pos = buf.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
            return Some(format!("{name}: contents differ at byte {pos}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use blockdev::{DiskKind, FaultPlan, FaultyDisk, SimDisk};
    use fssim::{Backend, Geometry, JournalMode};
    use nvmsim::SimClock;

    use super::*;

    /// A recovered file whose data block fails to read is a difference,
    /// never a match.
    #[test]
    fn an_unreadable_file_is_a_difference() {
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
        let expected = HashMap::from([("f".to_string(), vec![7u8; 100])]);
        let diff = diff_state(&mut fs, &expected);
        assert!(
            diff.as_deref().is_some_and(|d| d.contains("f: unreadable")),
            "{diff:?}"
        );
    }
}
