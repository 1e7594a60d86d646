//! # tinca-repro — reproduction of "Transactional NVM Cache with High
//! Performance and Crash Consistency" (SC '17)
//!
//! This facade crate re-exports the whole reproduction stack:
//!
//! | Crate | Role |
//! |---|---|
//! | [`nvmsim`] | byte-addressable NVM device simulator (clflush/sfence semantics, crash model, technology presets) |
//! | [`blockdev`] | SSD/HDD block-device simulator |
//! | [`tinca`] | **the paper's contribution**: the transactional NVM disk cache |
//! | [`classic`] | the Flashcache-like baseline cache |
//! | [`fssim`] | mini file system with JBD2 / Tinca / no-journal modes, plus [`fssim::stack`] full-stack builders |
//! | [`workloads`] | Fio / TPC-C / Filebench / open-loop generators |
//! | [`cluster`] | HDFS- (TeraGen) and GlusterFS-like replicated clusters |
//! | [`crashsim`] | crash injection + recovery verification |
//! | [`persistcheck`] | pmemcheck-style persist-ordering analyzer over NVM event traces |
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the `bench`
//! crate (`cargo run --release -p bench -- all`) for the paper's full
//! evaluation.

pub use blockdev;
pub use classic;
pub use cluster;
pub use crashsim;
pub use fssim;
pub use nvmsim;
pub use persistcheck;
pub use tinca;
pub use ubj;
pub use workloads;
