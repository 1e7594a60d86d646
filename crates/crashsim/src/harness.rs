//! The crash harness: run a workload against a stack with a trip armed,
//! crash, remount, verify against the oracle.

use fssim::stack::{build, remount, Stack, StackConfig};
use fssim::FsSim;
use nvmsim::{CrashPolicy, CrashTripped, NvmConfig};
use persistcheck::{CheckConfig, Checker, Report};

use crate::engine::tripped;
use crate::FsOracle;

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

/// What the post-recovery verification found.
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// The observed state is neither the durable nor the staged state.
    TornState(String),
    /// Cache- or FS-internal invariants violated.
    Inconsistent(String),
    /// The shadow persist-order analyzer flagged the event trace (a store
    /// reached a commit point unflushed, unfenced, or tearably written).
    PersistOrder(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::TornState(m) => write!(f, "torn state: {m}"),
            VerifyError::Inconsistent(m) => write!(f, "inconsistent internals: {m}"),
            VerifyError::PersistOrder(m) => write!(f, "persist-order violation: {m}"),
        }
    }
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
    pub fn stack(&self) -> &Stack {
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

    /// Total persistence events so far (to size trip sweeps).
    pub fn events(&self) -> u64 {
        self.stack().nvm.events()
    }

    /// Simulates the power failure and reboots the stack: DRAM state is
    /// discarded, the NVM resolves its volatile write-back state per
    /// `policy`, and cache + file system run their recovery paths.
    pub fn crash_and_remount(&mut self, policy: CrashPolicy) {
        let stack = self.stack.take().expect("stack live");
        let (nvm, disk, clock) = (stack.nvm, stack.disk, stack.clock);
        drop(stack.fs);
        nvm.crash(policy);
        let rebooted = remount(&self.cfg, nvm, disk, clock).expect("remount after crash");
        self.stack = Some(rebooted);
    }

    /// Like [`Self::crash_and_remount`], but the power failure resolves to
    /// an *exact* persist frontier: of the lines staged in the open fence
    /// epoch, precisely those in `keep` persist; everything else (other
    /// staged lines, all dirty overlay lines) drops. The crash-frontier
    /// enumerator drives this once per reachable frontier.
    pub fn crash_frontier_and_remount(&mut self, keep: &std::collections::HashSet<usize>) {
        let stack = self.stack.take().expect("stack live");
        let (nvm, disk, clock) = (stack.nvm, stack.disk, stack.clock);
        drop(stack.fs);
        nvm.crash_frontier(keep);
        let rebooted = remount(&self.cfg, nvm, disk, clock).expect("remount after crash");
        self.stack = Some(rebooted);
    }

    /// Checks the recovered state against the oracle: internal invariants
    /// hold, and the visible file set + contents equal either the durable
    /// or the staged state (all-or-nothing).
    pub fn verify(&mut self, oracle: &FsOracle) -> Result<(), VerifyError> {
        self.drain_trace();
        let report = self.checker.report();
        if !report.is_clean() {
            return Err(VerifyError::PersistOrder(report.to_string()));
        }
        let stack = self.stack.as_mut().expect("stack live");
        stack
            .fs
            .backend()
            .check()
            .map_err(VerifyError::Inconsistent)?;
        stack
            .fs
            .check_consistency()
            .map_err(VerifyError::Inconsistent)?;

        let durable_diff = diff_state(&mut stack.fs, oracle.durable_state());
        if durable_diff.is_none() {
            return Ok(());
        }
        let staged_diff = diff_state(&mut stack.fs, oracle.staged_state());
        if staged_diff.is_none() {
            return Ok(());
        }
        Err(VerifyError::TornState(format!(
            "vs durable: {}; vs staged: {}",
            durable_diff.unwrap(),
            staged_diff.unwrap()
        )))
    }

    /// The stack configuration in use.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }
}

/// Compares the mounted FS against an expected name→contents map.
/// Returns `None` on an exact match, or a description of the first
/// difference.
fn diff_state(
    fs: &mut FsSim,
    expected: &std::collections::HashMap<String, Vec<u8>>,
) -> Option<String> {
    if fs.file_count() != expected.len() {
        return Some(format!(
            "file count {} != expected {}",
            fs.file_count(),
            expected.len()
        ));
    }
    for (name, want) in expected {
        let Ok(ino) = fs.open(name) else {
            return Some(format!("missing file {name}"));
        };
        if fs.file_size(ino) != want.len() as u64 {
            return Some(format!(
                "{name}: size {} != {}",
                fs.file_size(ino),
                want.len()
            ));
        }
        let mut buf = vec![0u8; want.len()];
        fs.read(ino, 0, &mut buf).ok()?;
        if &buf != want {
            let pos = buf.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
            return Some(format!("{name}: contents differ at byte {pos}"));
        }
    }
    None
}
