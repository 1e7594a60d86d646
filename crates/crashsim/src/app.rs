//! The verdicts and the report every crash campaign shares.
//!
//! Each check that fails says which it is ([`Check`]) and what it saw
//! ([`Finding`]); each run ends in one [`AppOutcome`] — from the engine's
//! [`run_one`](crate::engine::run_one) — and the drivers add it to one
//! [`CampaignReport`], where a failed check becomes a [`Violation`] that
//! names the campaign, the seed and the trip. A [`Campaign`] is one named
//! entry of a crate's campaign table.

use std::fmt;
use std::ops::Range;

use persistcheck::Rule;
use telemetry::Json;

use crate::engine::Trip;

/// The check that raised a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Check {
    /// The workload failed with no crash, or its app could not be built.
    Workload,
    /// A frontier state's replay did not reach its trip.
    Replay,
    /// The application's recovery failed.
    Recovery,
    /// The recovered internals (cache, file system, B-tree) are
    /// inconsistent.
    Internals,
    /// The persist-order analyzer flagged the trace: the first correctness
    /// rule that fired.
    PersistOrder(Rule),
    /// The recovered contents are not the durable state plus each
    /// in-flight transaction, all or nothing.
    Oracle,
    /// A second recovery of the recovered state changed it, or stored
    /// more than its ring close (see [`crate::engine::run_one`]).
    Fixpoint,
}

impl Check {
    /// A finding of this check: `detail` is what it saw.
    pub fn found(self, detail: impl fmt::Display) -> Finding {
        Finding {
            check: self,
            detail: detail.to_string(),
        }
    }
}

/// A check that failed, and what it saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub check: Check,
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.check, self.detail)
    }
}

/// A finding on one run of a campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The plan family that ran ([`Plan::NAME`](crate::engine::Plan::NAME)).
    pub campaign: &'static str,
    pub seed: u64,
    /// Where the power failed; `None` when the app never ran to a trip.
    pub trip: Option<Trip>,
    pub check: Check,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} seed {}", self.campaign, self.seed)?;
        if let Some(trip) = self.trip {
            write!(f, " {trip}")?;
        }
        write!(f, ": {:?}: {}", self.check, self.detail)
    }
}

/// The outcome of one crash experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppOutcome {
    /// The trip fired and cut the run.
    pub crashed: bool,
    /// The first check that failed.
    pub verdict: Result<(), Finding>,
}

/// Aggregate over a campaign: a sweep of seeds, or the crash states of a
/// frontier enumeration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Seeds swept, or frontier states run.
    pub runs: u64,
    /// Runs the trip never cut.
    pub completed: u64,
    /// Runs the trip cut.
    pub crashes: u64,
    /// A frontier enumeration's per-epoch crash-state budget (0 for a
    /// sweep); the fence epochs in its probe traces' workload window;
    /// those enumerated exhaustively (2^k ≤ cap) and those sampled (empty
    /// and full frontiers always included). Epochs before the workload
    /// (format, mount) are skipped uncounted.
    pub cap_per_epoch: usize,
    pub epochs_total: u64,
    pub epochs_exhaustive: u64,
    pub epochs_capped: u64,
    /// Writes admission control shed (the crash-mid-backlog campaign: it
    /// is only meaningful if there *was* a backlog).
    pub shed: u64,
    /// Disk faults: runs that ended with a quarantined block, and over all
    /// runs the transient faults absorbed by retry, the retry attempts and
    /// the permanent I/O errors.
    pub degraded: u64,
    pub transients_absorbed: u64,
    pub io_retries: u64,
    pub permanent_errors: u64,
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a figure's summary records it: a frontier's
    /// `{epochs, states, violations}`, a sweep's `{runs, crashes,
    /// violations}`, with `shed` before `violations` when admission
    /// control shed any write.
    pub fn json(&self) -> Json {
        let violations = ("violations", (self.violations.len() as u64).into());
        if self.cap_per_epoch > 0 {
            return Json::obj(vec![
                ("epochs", self.epochs_total.into()),
                ("states", self.runs.into()),
                violations,
            ]);
        }
        let shed = (self.shed > 0).then(|| ("shed", self.shed.into()));
        let fields = [("runs", self.runs.into()), ("crashes", self.crashes.into())];
        Json::obj(fields.into_iter().chain(shed).chain([violations]).collect())
    }

    /// Adds one run of `campaign` at `seed` that ended in `outcome`.
    pub(crate) fn record(
        &mut self,
        campaign: &'static str,
        seed: u64,
        trip: Option<Trip>,
        outcome: AppOutcome,
    ) {
        self.runs += 1;
        if outcome.crashed {
            self.crashes += 1;
        } else {
            self.completed += 1;
        }
        if let Err(Finding { check, detail }) = outcome.verdict {
            self.violations.push(Violation {
                campaign,
                seed,
                trip,
                check,
                detail,
            });
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let violations = self.violations.len();
        if self.cap_per_epoch > 0 {
            return write!(
                f,
                "{} epochs ({} exhaustive, {} capped at {} states), {} crash states, \
                 {violations} violations",
                self.epochs_total,
                self.epochs_exhaustive,
                self.epochs_capped,
                self.cap_per_epoch,
                self.runs,
            );
        }
        write!(
            f,
            "{} runs, {} completed, {} crashed, {violations} violations",
            self.runs, self.completed, self.crashes
        )?;
        if self.shed > 0 {
            write!(f, ", {} shed", self.shed)?;
        }
        if self.io_retries > 0 {
            write!(
                f,
                ", {} degraded, {} transients absorbed over {} retries, {} permanent errors",
                self.degraded, self.transients_absorbed, self.io_retries, self.permanent_errors
            )?;
        }
        Ok(())
    }
}

/// One entry of a campaign table: a plan instance under a name, run over
/// seeds counted from `base`. Tier-1 pins the exact tally of its first
/// `tier1` seeds, and CI, in a release build, that of its first `ci`; a
/// figure runs the first at `--quick` and the second in full.
#[derive(Clone, Debug)]
pub struct Campaign {
    pub name: &'static str,
    pub run: fn(Range<u64>) -> CampaignReport,
    pub base: u64,
    pub tier1: u64,
    pub ci: u64,
}

impl Campaign {
    /// Runs the entry's first `seeds` seeds.
    pub fn report(&self, seeds: u64) -> CampaignReport {
        (self.run)(self.base..self.base + seeds)
    }
}
