//! # crashsim — crash injection and recovery verification
//!
//! The paper validates Tinca's recoverability by pulling the power cable
//! and killing the process a handful of times (§5.1). This crate
//! mechanises and strengthens that experiment:
//!
//! * a **trip** can be armed at *any* NVM persistence event (every
//!   `clflush`, `sfence`, or atomic store), simulating a power cut at that
//!   exact instant;
//! * the un-fenced write-back state is resolved adversarially (each dirty
//!   word independently persists or drops, honouring 16-byte atomics), or
//!   to one exact persist frontier of the open fence epoch;
//! * an **oracle** tracks the state that must be durable and the state
//!   that may additionally be visible (the in-flight transaction,
//!   all-or-nothing); after recovery the observed state must be exactly
//!   one of the two, internal invariants must hold and the event trace
//!   must pass the persist-order analyzer.
//!
//! ## The crash engine
//!
//! Every campaign runs one experiment, on [`engine`]. An application
//! implements [`engine::Crashable`] — its devices, a drive that runs the
//! plan and tells the oracle what it committed, its own recovery, and a
//! verify — and two drivers run it:
//!
//! * [`engine::run_one`] — arm one trip, drive until it fires, cut the
//!   power, recover, verify: once per seed in a random sweep, once per
//!   chosen instant in a directed one;
//! * [`engine::frontier`] — a probe run harvests every device's fence
//!   epochs, and every persist frontier of each is replayed through
//!   `run_one`.
//!
//! The implementors are the FS stack ([`CrashHarness`] and [`FsOracle`]
//! over a scripted file workload: [`fuzz_system`],
//! [`frontier_fs_campaign`]), kvdb's two personalities (in the `kvdb`
//! crate), and a pool with its plan. The pool campaigns share the rest of
//! the engine:
//!
//! * **rig** ([`engine::Rig`]) — traced shard devices, a plain or faulty
//!   disk, the `PoolConfig` and each shard's metadata ranges; formats,
//!   recovers and checks the pool;
//! * **cut** ([`engine::Cut`]) — every device resolved adversarially, a
//!   process kill, or one exact persist frontier of the tripped device;
//! * **audit** ([`engine::audit`]) — persistcheck over every shard's
//!   trace and the merged pool-wide trace;
//! * **oracle** ([`engine::BlockOracle`]) — the payload images, the
//!   durable map and the in-flight transactions, each all-or-nothing;
//! * **report** — one [`AppOutcome`] per seed, one [`CampaignReport`]
//!   per campaign ([`FrontierReport`] per enumeration).
//!
//! They are the random-trip campaigns [`pool_fuzz_campaign`] (dense or
//! delta-staged), [`mw_pool_fuzz_campaign`] (the lock-free ring),
//! [`fault_fuzz_campaign`] (disk faults, any shard count) and
//! [`backlog_campaign`] (open-loop overload), and the frontier
//! enumerations [`mw_frontier_campaign`], [`pool_frontier_campaign`] (one
//! OS thread per shard) and [`spanning_frontier_campaign`].
//!
//! ```
//! use crashsim::{fuzz_system, CampaignReport};
//! use fssim::stack::System;
//!
//! let report: CampaignReport = fuzz_system(System::Tinca, 7, 3, 30);
//! assert!(report.clean(), "no consistency violations: {:?}", report.violations);
//! ```

mod app;
mod backlog;
pub mod engine;
mod faultfuzz;
mod frontier;
mod fuzz;
mod harness;
mod mwfuzz;
mod oracle;
mod poolfuzz;

pub use app::{campaign, AppOutcome, CampaignReport};
pub use backlog::{backlog_campaign, backlog_one};
pub use faultfuzz::{fault_fuzz_campaign, fault_fuzz_one};
pub use frontier::{
    frontier_fs_campaign, pool_frontier_campaign, spanning_frontier_campaign, FrontierReport,
};
pub use fuzz::{fuzz_one, fuzz_system, fuzz_system_mode, fuzz_system_opts, FailureMode};
pub use harness::{quiet_crash_panics, CrashHarness, VerifyError};
pub use mwfuzz::{mw_frontier_campaign, mw_pool_fuzz_campaign, mw_pool_fuzz_one};
pub use oracle::FsOracle;
pub use poolfuzz::{pool_fuzz_campaign, pool_fuzz_one};
