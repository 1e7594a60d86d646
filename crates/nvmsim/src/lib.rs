//! # nvmsim — byte-addressable NVM device simulator
//!
//! This crate models the persistence semantics the Tinca paper (SC'17)
//! depends on:
//!
//! * CPU stores land in a **volatile cache** (the *overlay*), not in NVM.
//! * `clflush` writes a cache line back towards NVM, but the write-back is
//!   only guaranteed ordered/durable after the next `sfence`.
//! * Between two fences, flushed lines may persist in **any order** — a
//!   crash may persist an arbitrary subset of the current fence epoch.
//! * Plain stores have 8-byte failure atomicity; `cmpxchg16b`-style stores
//!   ([`NvmDevice::atomic_write_u128`]) have 16-byte failure atomicity.
//! * Un-flushed dirty lines may *also* spontaneously persist (cache
//!   eviction happens at arbitrary times on real hardware).
//!
//! Every operation is charged against a shared [`SimClock`] using the
//! latency model of the selected [`NvmTech`] (NVDIMM/DRAM, STT-RAM, PCM,
//! ReRAM — Table 1 of the paper), and counted in [`NvmStats`] (the paper
//! reports `clflush`-per-operation as a first-class metric).
//!
//! Crash injection for recovery testing is built in: [`NvmDevice::set_trip`]
//! arms a panic at the N-th persistence event, which `crashsim` catches to
//! simulate a power failure at exactly that point.
//!
//! ```
//! use nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};
//!
//! let dev = NvmDevice::new(NvmConfig::new(4096, NvmTech::Pcm), SimClock::new());
//! dev.write(0, b"hello");
//! dev.persist(0, 5);          // clflush + sfence: durable
//! dev.write(64, b"world");    // never flushed: volatile
//! dev.crash(CrashPolicy::LoseVolatile);
//! let mut buf = [0u8; 5];
//! dev.read(0, &mut buf);
//! assert_eq!(&buf, b"hello");
//! dev.read(64, &mut buf);
//! assert_eq!(&buf, &[0; 5]);
//! ```

mod config;
mod device;
mod line;
mod shard;
mod stats;
mod trace;
mod wear;

// The clock lives in `telemetry` (the observability layer reads it to
// attribute simulated ns); re-exported here so device users are unaffected.
pub use telemetry::SimClock;

pub use config::{FlushInstr, NvmConfig, NvmTech};
pub use device::{divert_charges, ChargeScope, CrashPolicy, CrashTripped, Nvm, NvmDevice};
pub use line::{CACHE_LINE, WORDS_PER_LINE, WORD_SIZE};
pub use shard::{merge_shard_traces, shard_devices};
pub use stats::{NvmStats, WearSummary};
pub use trace::{
    set_trace_thread, trace_thread, trace_txn, txn_scope, TraceEvent, TracedOp, TxnScope,
};
