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
//! * one **oracle**, [`engine::Oracle`], holds the value every key must
//!   keep and the transactions in flight; after recovery every other key
//!   must hold its durable value and each in-flight transaction must read
//!   all new or all old, internal invariants must hold and the event
//!   trace must pass the persist-order analyzer. Its keys are the pool
//!   plans' blocks, the FS plans' file names (a file's value is its
//!   contents) and kvdb's records.
//!
//! ## The crash engine
//!
//! Every campaign runs one experiment, on [`engine`]: an application is
//! an [`engine::Crashable`], a campaign an [`engine::Plan`] value whose
//! fields are its axes, run per seed by [`engine::sweep`] or per persist
//! frontier by [`engine::frontier`] into one [`CampaignReport`], each
//! [`Violation`] in it naming the [`Check`] that raised it.
//!
//! The plans are the FS stack ([`FsPlan`]: [`CrashHarness`] over a
//! scripted file workload; its cut → [`remount`] and [`internals`] check
//! serve kvdb's WAL personality too), kvdb's two personalities
//! (`kvdb::KvPlan`), and the pool plans, which share the engine's rig,
//! cut and persist-order audit: [`PoolPlan`] (dense or
//! delta-staged), [`RingPlan`] (the lock-free ring), [`FaultsPlan`] (disk
//! faults, any shard count and commit mode), [`BacklogPlan`] (open-loop
//! overload), [`ThreadedPlan`] (one scheduled writer per shard) and
//! [`SpanningPlan`].
//!
//! [`CAMPAIGNS`] names every instance a pin, CI or a figure runs, with its
//! seed sizes: a [`Campaign`] runs its first `tier1` seeds in tier-1's
//! pins and `bench --quick`, its first `ci` seeds (200 for a sweep, 4 for
//! a frontier) in CI's release pins and a full `bench` run. Callers
//! select entries by name; only directed tests build a plan value
//! themselves:
//!
//! ```
//! use crashsim::CAMPAIGNS;
//!
//! let entry = CAMPAIGNS.iter().find(|c| c.name == "fs-tinca").unwrap();
//! let report = entry.report(3);
//! assert!(report.clean(), "no consistency violations: {:?}", report.violations);
//! ```

mod app;
mod backlog;
pub mod engine;
mod faultfuzz;
mod frontier;
mod harness;
mod mwfuzz;
mod poolfuzz;

pub use app::{AppOutcome, Campaign, CampaignReport, Check, Finding, Violation};
pub use backlog::BacklogPlan;
pub use faultfuzz::FaultsPlan;
pub use frontier::ThreadedPlan;
pub use harness::{internals, quiet_crash_panics, remount, CrashHarness, FailureMode, FsPlan};
pub use mwfuzz::RingPlan;
pub use poolfuzz::{PoolPlan, SpanningPlan};

use engine::{frontier, sweep};
use fssim::stack::System::{Classic, ClassicLogMeta, Tinca, TincaNoRoleSwitch, Ubj};
use tinca::CommitMode::{LockFreeRing, Mutex};
use workloads::sched::Policy::{Rounds, Seeded};
use FailureMode::ProcessKill;

/// Every crashsim campaign instance a pin, CI or a figure runs, with the
/// seed sizes whose exact tallies `tests/pinned_campaigns.rs` asserts. A
/// frontier entry enumerates each of its seeds.
#[rustfmt::skip]
pub const CAMPAIGNS: &[Campaign] = &[
    Campaign { name: "fs-tinca",                run: |s| sweep(&FsPlan::new(Tinca, 60), s),                                                   base: 1000, tier1: 10, ci: 200 },
    Campaign { name: "fs-classic",              run: |s| sweep(&FsPlan::new(Classic, 60), s),                                                 base: 2000, tier1: 10, ci: 200 },
    Campaign { name: "fs-norole",               run: |s| sweep(&FsPlan::new(TincaNoRoleSwitch, 40), s),                                       base: 3000, tier1: 10, ci: 200 },
    Campaign { name: "fs-ubj",                  run: |s| sweep(&FsPlan::new(Ubj, 60), s),                                                     base: 4000, tier1: 10, ci: 200 },
    Campaign { name: "fs-logmeta",              run: |s| sweep(&FsPlan::new(ClassicLogMeta, 50), s),                                          base: 5000, tier1: 10, ci: 200 },
    Campaign { name: "fs-tinca-destage",        run: |s| sweep(&FsPlan { destage: true, ..FsPlan::new(Tinca, 60) }, s),                       base: 7000, tier1: 10, ci: 200 },
    Campaign { name: "fs-tinca-coalesced",      run: |s| sweep(&FsPlan { destage: true, ..FsPlan::new(Tinca, 50) }, s),                       base: 4500, tier1: 10, ci: 200 },
    Campaign { name: "fs-tinca-kill",           run: |s| sweep(&FsPlan { mode: ProcessKill, ..FsPlan::new(Tinca, 50) }, s),                   base: 61_000, tier1: 10, ci: 200 },
    Campaign { name: "fs-classic-kill",         run: |s| sweep(&FsPlan { mode: ProcessKill, ..FsPlan::new(Classic, 50) }, s),                 base: 62_000, tier1: 10, ci: 200 },
    Campaign { name: "fs-tinca-frontier",       run: |s| frontier(&FsPlan::new(Tinca, 4), s, 4),                                              base: 11, tier1: 1, ci: 4 },
    Campaign { name: "fs-classic-frontier",     run: |s| frontier(&FsPlan::new(Classic, 4), s, 2),                                            base: 11, tier1: 1, ci: 4 },
    Campaign { name: "pool-1",                  run: |s| sweep(&PoolPlan { shards: 1, txns: 40, delta_stage: false }, s),                     base: 0x1D, tier1: 10, ci: 200 },
    Campaign { name: "pool-4",                  run: |s| sweep(&PoolPlan { shards: 4, txns: 40, delta_stage: false }, s),                     base: 0x900D, tier1: 24, ci: 200 },
    Campaign { name: "pool-delta-1",            run: |s| sweep(&PoolPlan { shards: 1, txns: 40, delta_stage: true }, s),                      base: 0xDE17A1, tier1: 24, ci: 200 },
    Campaign { name: "pool-delta-2",            run: |s| sweep(&PoolPlan { shards: 2, txns: 40, delta_stage: true }, s),                      base: 0xDE17A2, tier1: 24, ci: 200 },
    Campaign { name: "ring-1",                  run: |s| sweep(&RingPlan { shards: 1, rounds: 20, sched: Rounds }, s),                        base: 0x3757_1111, tier1: 10, ci: 200 },
    Campaign { name: "ring-2",                  run: |s| sweep(&RingPlan { shards: 2, rounds: 20, sched: Rounds }, s),                        base: 0x3757_0000, tier1: 24, ci: 200 },
    Campaign { name: "ring-4",                  run: |s| sweep(&RingPlan { shards: 4, rounds: 20, sched: Rounds }, s),                        base: 0x3757_4444, tier1: 10, ci: 200 },
    Campaign { name: "ring-seeded-1",           run: |s| sweep(&RingPlan { shards: 1, rounds: 20, sched: Seeded(0x5EED) }, s),                base: 0x5EED_1111, tier1: 10, ci: 200 },
    Campaign { name: "ring-seeded-2",           run: |s| sweep(&RingPlan { shards: 2, rounds: 20, sched: Seeded(0x5EED) }, s),                base: 0x3757_5EED, tier1: 24, ci: 200 },
    Campaign { name: "ring-seeded-4",           run: |s| sweep(&RingPlan { shards: 4, rounds: 20, sched: Seeded(0x5EED) }, s),                base: 0x5EED_4444, tier1: 10, ci: 200 },
    Campaign { name: "ring-frontier",           run: |s| frontier(&RingPlan { shards: 2, rounds: 3, sched: Rounds }, s, 4),                   base: 0x3757_F0F0, tier1: 1, ci: 4 },
    Campaign { name: "ring-seeded-frontier",    run: |s| frontier(&RingPlan { shards: 2, rounds: 3, sched: Seeded(0x5EED) }, s, 4),           base: 0x3757_F0F0, tier1: 1, ci: 4 },
    Campaign { name: "faults-1",                run: |s| sweep(&FaultsPlan { shards: 1, txns: 40, mode: Mutex }, s),                          base: 0xFA57_0000, tier1: 40, ci: 200 },
    Campaign { name: "faults-2",                run: |s| sweep(&FaultsPlan { shards: 2, txns: 40, mode: Mutex }, s),                          base: 0xFA57_2000, tier1: 10, ci: 200 },
    Campaign { name: "faults-ring-2",           run: |s| sweep(&FaultsPlan { shards: 2, txns: 40, mode: LockFreeRing }, s),                   base: 0xFA57_3000, tier1: 10, ci: 200 },
    Campaign { name: "backlog-2",               run: |s| sweep(&BacklogPlan { shards: 2 }, s),                                                base: 0x2B10, tier1: 10, ci: 200 },
    Campaign { name: "backlog-4",               run: |s| sweep(&BacklogPlan { shards: 4 }, s),                                                base: 0xB10C, tier1: 10, ci: 200 },
    Campaign { name: "threaded-frontier",       run: |s| frontier(&ThreadedPlan { shards: 2, txns_per_thread: 2, delta_stage: false }, s, 4), base: 5, tier1: 1, ci: 4 },
    Campaign { name: "threaded-delta-frontier", run: |s| frontier(&ThreadedPlan { shards: 2, txns_per_thread: 3, delta_stage: true }, s, 4),  base: 7, tier1: 1, ci: 4 },
    Campaign { name: "spanning-frontier",       run: |s| frontier(&SpanningPlan { shards: 2, txns: 2, delta_stage: false, coalesce: false }, s, 4), base: 9, tier1: 1, ci: 4 },
    Campaign { name: "spanning-delta-frontier", run: |s| frontier(&SpanningPlan { shards: 2, txns: 4, delta_stage: true, coalesce: false }, s, 4),  base: 9, tier1: 1, ci: 4 },
    Campaign { name: "spanning-coalesced-frontier", run: |s| frontier(&SpanningPlan { shards: 2, txns: 2, delta_stage: false, coalesce: true }, s, 4), base: 9, tier1: 1, ci: 4 },
];
