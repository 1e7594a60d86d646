//! The outcome and report every crash campaign shares, and the
//! recoverable-application abstraction.
//!
//! Every crash campaign has the same skeleton: set up a seeded workload
//! with a trip armed, run until the trip fires (or the workload
//! completes), power-cycle and recover, then check the recovered state
//! against an oracle. Each seed ends in one [`AppOutcome`] and
//! [`campaign`] aggregates a sweep of seeds into one [`CampaignReport`].
//! The pool campaigns get the rest of the skeleton from
//! [`crate::engine`]; applications with a recovery of their own (the FS
//! stack, kvdb's two personalities) implement [`RecoverableApp`] and are
//! driven by [`run_recoverable`].

/// One crashable application run: the campaign driver calls
/// [`run_to_trip`](Self::run_to_trip) once, and — only if the trip fired —
/// [`crash_recover`](Self::crash_recover) then [`verify`](Self::verify).
/// Setup (building devices, arming the trip, seeding the script) happens
/// in the app's constructor.
pub trait RecoverableApp {
    /// Runs the workload with the crash trip armed. Returns `true` if the
    /// trip fired (workload interrupted mid-operation), `false` if the
    /// workload ran to completion first.
    fn run_to_trip(&mut self) -> bool;

    /// Simulates the power failure and recovers: resolves each device's
    /// un-fenced write-back state, then runs the recovery path. An error
    /// is a *violation* — recovery must always succeed after an injected
    /// crash.
    fn crash_recover(&mut self) -> Result<(), String>;

    /// Checks the recovered state against the application's oracle
    /// (durability of acknowledged commits, all-or-nothing in-flight
    /// state, internal invariants, persist-order cleanliness).
    fn verify(&mut self) -> Result<(), String>;
}

/// The outcome of one [`run_recoverable`] drive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppOutcome {
    /// Workload completed before the trip fired.
    Completed,
    /// Crash injected; recovery verified clean.
    CrashedVerified,
    /// Recovery or verification failed — a consistency bug.
    Violation(String),
}

impl AppOutcome {
    /// The verdict of a crash that recovery and the oracle judged:
    /// [`CrashedVerified`](Self::CrashedVerified), or a violation tagged
    /// with what identifies the seed.
    pub fn judged(check: Result<(), String>, tag: impl std::fmt::Display) -> AppOutcome {
        match check {
            Ok(()) => AppOutcome::CrashedVerified,
            Err(e) => AppOutcome::Violation(format!("{tag}: {e}")),
        }
    }
}

/// Drives one application through the crash experiment: run to the trip,
/// and if it fired, recover and verify.
pub fn run_recoverable<A: RecoverableApp>(app: &mut A) -> AppOutcome {
    if !app.run_to_trip() {
        return AppOutcome::Completed;
    }
    if let Err(e) = app.crash_recover() {
        return AppOutcome::Violation(e);
    }
    match app.verify() {
        Ok(()) => AppOutcome::CrashedVerified,
        Err(e) => AppOutcome::Violation(e),
    }
}

/// Aggregate over a campaign of seeds — every campaign's report.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    pub runs: u64,
    pub completed: u64,
    pub crashes: u64,
    /// Writes admission control shed (the crash-mid-backlog campaign: it
    /// is only meaningful if there *was* a backlog).
    pub shed: u64,
    /// Runs that ended with at least one quarantined block (fault fuzz).
    pub degraded: u64,
    /// Transient disk faults absorbed by retry, over all runs.
    pub transients_absorbed: u64,
    /// Retry attempts, over all runs.
    pub io_retries: u64,
    /// Permanent I/O errors, over all runs.
    pub permanent_errors: u64,
    pub violations: Vec<String>,
}

impl CampaignReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `runs` seeds through `run_seed` (which typically constructs an app
/// for the seed index and calls [`run_recoverable`]; it may add its own
/// tallies to the report) and aggregates the outcomes. With
/// `count_seeds`, each outcome also bumps the `crash.seeds.*` telemetry
/// counters.
pub fn campaign<F>(runs: u64, count_seeds: bool, mut run_seed: F) -> CampaignReport
where
    F: FnMut(u64, &mut CampaignReport) -> AppOutcome,
{
    let mut report = CampaignReport::default();
    for i in 0..runs {
        report.runs += 1;
        match run_seed(i, &mut report) {
            AppOutcome::Completed => {
                report.completed += 1;
                if count_seeds {
                    telemetry::count("crash.seeds.completed", 1);
                }
            }
            AppOutcome::CrashedVerified => {
                report.crashes += 1;
                if count_seeds {
                    telemetry::count("crash.seeds.crashed", 1);
                }
            }
            AppOutcome::Violation(v) => {
                report.crashes += 1;
                if count_seeds {
                    telemetry::count("crash.seeds.violations", 1);
                }
                report.violations.push(v);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted {
        crashes: bool,
        recover: Result<(), String>,
        verify: Result<(), String>,
    }

    impl RecoverableApp for Scripted {
        fn run_to_trip(&mut self) -> bool {
            self.crashes
        }
        fn crash_recover(&mut self) -> Result<(), String> {
            self.recover.clone()
        }
        fn verify(&mut self) -> Result<(), String> {
            self.verify.clone()
        }
    }

    #[test]
    fn completed_skips_recovery() {
        let mut app = Scripted {
            crashes: false,
            recover: Err("recovery must not run".into()),
            verify: Err("verify must not run".into()),
        };
        assert_eq!(run_recoverable(&mut app), AppOutcome::Completed);
    }

    #[test]
    fn recovery_failure_is_a_violation() {
        let mut app = Scripted {
            crashes: true,
            recover: Err("boom".into()),
            verify: Ok(()),
        };
        assert_eq!(
            run_recoverable(&mut app),
            AppOutcome::Violation("boom".into())
        );
    }

    #[test]
    fn campaign_aggregates() {
        let outcomes = [
            AppOutcome::Completed,
            AppOutcome::CrashedVerified,
            AppOutcome::Violation("v".into()),
        ];
        let mut it = outcomes.iter().cloned();
        let r = campaign(3, false, |_, _| it.next().expect("three outcomes"));
        assert_eq!((r.runs, r.completed, r.crashes), (3, 1, 2));
        assert_eq!(r.violations, vec!["v".to_string()]);
        assert!(!r.clean());
    }
}
