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
//! workload and tells the oracle what it committed, its own recovery, and
//! a verify — and a campaign is an [`engine::Plan`] value whose fields are
//! its axes: it builds the app for a seed, with the seed's trip and cut.
//! Two drivers run a plan:
//!
//! * [`engine::sweep`] — per seed, arm the trip, drive until it fires, cut
//!   the power, recover, verify;
//! * [`engine::frontier`] — a probe run harvests every device's fence
//!   epochs, and every persist frontier of each is replayed through
//!   [`engine::run_one`].
//!
//! Both return one [`CampaignReport`], and each [`Violation`] in it names
//! the [`Check`] that raised it: the workload, a frontier replay, the
//! recovery, the internals, a persist-order rule, or the oracle.
//!
//! The plans are the FS stack ([`FsPlan`]: [`CrashHarness`] and
//! [`FsOracle`] over a scripted file workload), kvdb's two personalities
//! (`kvdb::KvPlan`), and the pool plans, which share the engine's rig,
//! cut, persist-order audit and block oracle: [`PoolPlan`] (dense or
//! delta-staged), [`RingPlan`] (the lock-free ring), [`FaultsPlan`] (disk
//! faults, any shard count and commit mode), [`BacklogPlan`] (open-loop
//! overload), [`ThreadedPlan`] (one scheduled writer per shard) and
//! [`SpanningPlan`].
//!
//! [`CAMPAIGNS`] names every instance a pin or CI runs, with the seeds
//! tier-1 pins; figures and tests that need another size build the plan
//! value directly:
//!
//! ```
//! use crashsim::engine::sweep;
//! use crashsim::{CampaignReport, FsPlan};
//! use fssim::stack::System;
//!
//! let report: CampaignReport = sweep(&FsPlan::new(System::Tinca, 30), 7..10);
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

pub use app::{AppOutcome, Campaign, CampaignReport, Check, Finding, Violation};
pub use backlog::BacklogPlan;
pub use faultfuzz::FaultsPlan;
pub use frontier::ThreadedPlan;
pub use fuzz::{FailureMode, FsPlan};
pub use harness::{quiet_crash_panics, CrashHarness};
pub use mwfuzz::RingPlan;
pub use oracle::FsOracle;
pub use poolfuzz::{PoolPlan, SpanningPlan};

use engine::{frontier, sweep};
use fssim::stack::System::{Classic, ClassicLogMeta, Tinca, TincaNoRoleSwitch, Ubj};
use tinca::CommitMode::{LockFreeRing, Mutex};
use workloads::sched::Policy::{Rounds, Seeded};
use FailureMode::ProcessKill;

/// Every crashsim campaign instance a pin or CI runs, with the seeds whose
/// exact tally `tests/pinned_campaigns.rs` asserts. A frontier entry
/// enumerates each seed of its range.
#[rustfmt::skip]
pub const CAMPAIGNS: &[Campaign] = &[
    Campaign { name: "fs-tinca",                run: |s| sweep(&FsPlan::new(Tinca, 60), s),                                                   tier1: 1000..1000 + 10 },
    Campaign { name: "fs-classic",              run: |s| sweep(&FsPlan::new(Classic, 60), s),                                                 tier1: 2000..2000 + 10 },
    Campaign { name: "fs-norole",               run: |s| sweep(&FsPlan::new(TincaNoRoleSwitch, 40), s),                                       tier1: 3000..3000 + 10 },
    Campaign { name: "fs-ubj",                  run: |s| sweep(&FsPlan::new(Ubj, 60), s),                                                     tier1: 4000..4000 + 10 },
    Campaign { name: "fs-logmeta",              run: |s| sweep(&FsPlan::new(ClassicLogMeta, 50), s),                                          tier1: 5000..5000 + 10 },
    Campaign { name: "fs-tinca-destage",        run: |s| sweep(&FsPlan { destage: true, ..FsPlan::new(Tinca, 60) }, s),                       tier1: 7000..7000 + 10 },
    Campaign { name: "fs-tinca-coalesced",      run: |s| sweep(&FsPlan { destage: true, ..FsPlan::new(Tinca, 50) }, s),                       tier1: 4500..4500 + 10 },
    Campaign { name: "fs-tinca-kill",           run: |s| sweep(&FsPlan { mode: ProcessKill, ..FsPlan::new(Tinca, 50) }, s),                   tier1: 61_000..61_000 + 10 },
    Campaign { name: "fs-classic-kill",         run: |s| sweep(&FsPlan { mode: ProcessKill, ..FsPlan::new(Classic, 50) }, s),                 tier1: 62_000..62_000 + 10 },
    Campaign { name: "fs-tinca-frontier",       run: |s| frontier(&FsPlan::new(Tinca, 4), s, 4),                                              tier1: 11..12 },
    Campaign { name: "fs-classic-frontier",     run: |s| frontier(&FsPlan::new(Classic, 4), s, 2),                                            tier1: 11..12 },
    Campaign { name: "pool-1",                  run: |s| sweep(&PoolPlan { shards: 1, txns: 40, delta_stage: false }, s),                     tier1: 0x1D..0x1D + 10 },
    Campaign { name: "pool-4",                  run: |s| sweep(&PoolPlan { shards: 4, txns: 40, delta_stage: false }, s),                     tier1: 0x900D..0x900D + 24 },
    Campaign { name: "pool-delta-1",            run: |s| sweep(&PoolPlan { shards: 1, txns: 40, delta_stage: true }, s),                      tier1: 0xDE17A1..0xDE17A1 + 24 },
    Campaign { name: "pool-delta-2",            run: |s| sweep(&PoolPlan { shards: 2, txns: 40, delta_stage: true }, s),                      tier1: 0xDE17A2..0xDE17A2 + 24 },
    Campaign { name: "ring-1",                  run: |s| sweep(&RingPlan { shards: 1, rounds: 20, sched: Rounds }, s),                        tier1: 0x3757_1111..0x3757_1111 + 10 },
    Campaign { name: "ring-2",                  run: |s| sweep(&RingPlan { shards: 2, rounds: 20, sched: Rounds }, s),                        tier1: 0x3757_0000..0x3757_0000 + 24 },
    Campaign { name: "ring-4",                  run: |s| sweep(&RingPlan { shards: 4, rounds: 20, sched: Rounds }, s),                        tier1: 0x3757_4444..0x3757_4444 + 10 },
    Campaign { name: "ring-seeded-2",           run: |s| sweep(&RingPlan { shards: 2, rounds: 20, sched: Seeded(0x5EED) }, s),                tier1: 0x3757_5EED..0x3757_5EED + 24 },
    Campaign { name: "ring-frontier",           run: |s| frontier(&RingPlan { shards: 2, rounds: 3, sched: Rounds }, s, 4),                   tier1: 0x3757_F0F0..0x3757_F0F1 },
    Campaign { name: "faults-1",                run: |s| sweep(&FaultsPlan { shards: 1, txns: 40, mode: Mutex }, s),                          tier1: 0xFA57_0000..0xFA57_0000 + 40 },
    Campaign { name: "faults-2",                run: |s| sweep(&FaultsPlan { shards: 2, txns: 40, mode: Mutex }, s),                          tier1: 0xFA57_2000..0xFA57_2000 + 10 },
    Campaign { name: "faults-ring-2",           run: |s| sweep(&FaultsPlan { shards: 2, txns: 40, mode: LockFreeRing }, s),                   tier1: 0xFA57_3000..0xFA57_3000 + 10 },
    Campaign { name: "backlog-2",               run: |s| sweep(&BacklogPlan { shards: 2 }, s),                                                tier1: 0x2B10..0x2B10 + 10 },
    Campaign { name: "backlog-4",               run: |s| sweep(&BacklogPlan { shards: 4 }, s),                                                tier1: 0xB10C..0xB10C + 10 },
    Campaign { name: "threaded-frontier",       run: |s| frontier(&ThreadedPlan { shards: 2, txns_per_thread: 2, delta_stage: false }, s, 4), tier1: 5..6 },
    Campaign { name: "spanning-frontier",       run: |s| frontier(&SpanningPlan { shards: 2, txns: 2, delta_stage: false, coalesce: false }, s, 4), tier1: 9..10 },
    Campaign { name: "spanning-delta-frontier", run: |s| frontier(&SpanningPlan { shards: 2, txns: 4, delta_stage: true, coalesce: false }, s, 4),  tier1: 9..10 },
    Campaign { name: "spanning-coalesced-frontier", run: |s| frontier(&SpanningPlan { shards: 2, txns: 2, delta_stage: false, coalesce: true }, s, 4), tier1: 9..10 },
];
