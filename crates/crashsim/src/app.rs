//! The outcome and report every crash campaign shares.
//!
//! Each seed ends in one [`AppOutcome`] — from the engine's
//! [`run_one`](crate::engine::run_one) — and [`campaign`] aggregates a
//! sweep of seeds into one [`CampaignReport`].

/// The outcome of one crash experiment.
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
    /// The outcome with a violation tagged by what identifies the seed.
    pub fn tagged(self, tag: impl std::fmt::Display) -> AppOutcome {
        match self {
            AppOutcome::Violation(e) => AppOutcome::Violation(format!("{tag}: {e}")),
            outcome => outcome,
        }
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

/// Runs `runs` seeds through `run_seed` (which typically builds an app
/// for the seed index and runs it through
/// [`run_one`](crate::engine::run_one); it may add its own tallies to the
/// report) and aggregates the outcomes. With `count_seeds`, each outcome
/// also bumps the `crash.seeds.*` telemetry counters.
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
