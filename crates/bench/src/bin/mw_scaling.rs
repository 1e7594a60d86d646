//! Multi-writer scaling figure: the lock-free intra-shard commit
//! pipeline against the mutex baseline, 1–16 writers on
//! 1- and 4-shard pools, with per-shard + merged persist-order audits
//! and the embedded multi-writer crash campaigns.
//!
//! Usage: `cargo run --release -p bench --bin mw_scaling [-- --quick]`
//!
//! Exits non-zero if any trace has a persist-order violation, if either
//! crash campaign reports a violation, or if the single-shard pipeline
//! fails to reach 2x the mutex throughput at 8 writers.

use bench::figs::mw_scaling;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let r = mw_scaling::run(quick);
    if !r.persist_clean {
        eprintln!("persist-order violations on the multi-writer commit path");
        std::process::exit(1);
    }
    if !r.fuzz.clean() || !r.frontier.clean() {
        eprintln!("multi-writer crash campaign violations");
        std::process::exit(1);
    }
    if r.speedup_x_8w < 2.0 {
        eprintln!(
            "multi-writer speedup {:.2}x at 8 writers below the 2x bar",
            r.speedup_x_8w
        );
        std::process::exit(1);
    }
}
