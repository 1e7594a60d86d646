//! # workloads — the benchmarks of Table 2
//!
//! Scaled-down but structurally faithful generators for every benchmark the
//! paper evaluates with:
//!
//! | Paper benchmark | Module | Shape preserved |
//! |---|---|---|
//! | Fio random R/W mix (3/7, 5/5, 7/3; 4 KB; 20 GB) | [`fio`] | request size, ratios, dataset:cache ratio |
//! | TPC-C via MySQL+HammerDB (350 warehouses, 5–60 users) | [`tpcc`] | txn mix, NURand skew, per-user streams, fsync-per-txn |
//! | Filebench fileserver / webproxy / varmail | [`filebench`] | R/W ratios (1/2, 5/1, 1/1), 16 KB requests, file-pool churn, varmail's fsync-heavy pattern |
//!
//! TeraGen, the paper's fourth benchmark, streams replicated chunks through
//! the `cluster` crate's `HdfsCluster`.
//!
//! All generators are seeded and deterministic; every figure harness prints
//! the seed it used. The [`report`] module snapshots NVM / disk / FS / cache
//! counters around the measured phase and computes the per-op metrics the
//! paper's figures report (throughput, `clflush` per op, disk writes per
//! op).

//! ```
//! use fssim::stack::{build, StackConfig, System};
//! use workloads::fio::{Fio, FioSpec};
//!
//! let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
//! let mut fio = Fio::new(FioSpec {
//!     read_pct: 50,
//!     file_bytes: 1 << 20,
//!     req_bytes: 4096,
//!     ops: 100,
//!     fsync_every: 32,
//!     seed: 1,
//! });
//! fio.setup(&mut stack);
//! let report = fio.run(&mut stack);
//! assert!(report.ops_per_sec() > 0.0);
//! ```

pub mod filebench;
pub mod fio;
pub mod mtfio;
pub mod openloop;
pub mod rand_util;
pub mod report;
pub mod sched;
pub mod spec;
pub mod tpcc;

pub use report::{measure, Measurement, RunReport};
