//! Scaling figure — sharded pool throughput and flushes/txn vs threads.
//!
//! The paper drives Tinca with multi-threaded Fio; this figure shows what
//! the sharded front-end buys: an `N = 4` pool against an `N = 1` pool at
//! 1–16 writers, same total NVM budget, same per-writer workload.
//!
//! * **throughput** (ops per simulated second of parallel wall time):
//!   `N = 1` serialises every commit on one shard clock; `N = 4` spreads
//!   them over four independent sub-region clocks, so wall time is the
//!   *max* shard advance and throughput scales with shards.
//! * **flushes/txn**: all `clflush` (commits, read-miss fills, evictions)
//!   per committed transaction. Every transaction is one ring commit
//!   under its shard's cache lock — `CommitMode::Mutex` never merges
//!   transactions — so nothing on this path amortises flushes across
//!   transactions; the series moves with the workload only.
//!
//! The writers are stepped by a seeded scheduler ([`Policy::Seeded`]), so
//! every row is reproducible. Writer `w` works a block lane on shard
//! `w % N`: one writer keeps one shard busy.
//!
//! Every run traces NVM events on the crash engine's [`Rig`]; its
//! persist-order [`audit`](crashsim::engine::audit) must report zero
//! correctness violations on **each shard's** commit stream and on the
//! merged pool-wide trace.

use crashsim::engine::Rig;
use workloads::mtfio::{MtFio, MtFioSpec, MtReport};
use workloads::sched::{Policy, Sched};

use super::{sharded_pool, violations};
use crate::table::Table;
use crate::{banner, checks, fmt, write_csv};

/// One measured point of the figure.
pub struct ScalingPoint {
    pub shards: usize,
    pub threads: usize,
    pub report: MtReport,
    /// Persist-order correctness violations summed over the shards and
    /// the merged trace.
    pub violations: usize,
}

/// Runs one (shards, threads) point: the measured phase plus the
/// persist-order audit of the full event trace.
pub fn run_point(shards: usize, threads: usize, quick: bool) -> ScalingPoint {
    let nvm_bytes = if quick { 4 << 20 } else { 16 << 20 };
    let (rig, pool) = Rig::new(sharded_pool(shards), nvm_bytes / shards);
    let spec = MtFioSpec {
        threads,
        read_pct: 30,
        blocks: if quick { 512 } else { 2048 },
        ops_per_thread: if quick { 250 } else { 1500 },
        txn_blocks: 2,
        seed: 0x5CA1 + shards as u64,
    };
    let sched = Sched {
        policy: Policy::Seeded(spec.seed),
    };
    let fio = MtFio::new(spec);
    fio.setup(&pool, if quick { 64 } else { 256 });
    let report = fio.run(&pool, &sched);
    pool.flush_all().unwrap();

    let violations = violations(&rig.audit(), &format!("{shards} shards, {threads} threads"));
    ScalingPoint {
        shards,
        threads,
        report,
        violations,
    }
}

/// Runs the full figure. Fails if any shard's trace or the merged one
/// had a persist-order violation, or if N=4 falls short of 2x the N=1 throughput at the
/// highest thread count.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "scaling",
        "Sharded pool: throughput & flushes/txn vs threads (N=1 vs N=4)",
        "N=4 at 8 threads >= 2x N=1 throughput; persistcheck clean per shard and merged",
    );
    let thread_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let mut t = Table::new(&[
        "shards",
        "threads",
        "ops/s",
        "flushes/txn",
        "wall ms",
        "busy ms",
        "violations",
    ]);
    let mut clean = true;
    // throughput[shard-series][thread-index]
    let mut tput = [[0f64; 5]; 2];
    for (si, &shards) in [1usize, 4].iter().enumerate() {
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let p = run_point(shards, threads, quick);
            clean &= p.violations == 0;
            tput[si][ti] = p.report.ops_per_sec();
            t.row(vec![
                shards.to_string(),
                threads.to_string(),
                fmt(p.report.ops_per_sec()),
                fmt(p.report.flushes_per_txn()),
                fmt(p.report.wall_ns as f64 / 1e6),
                fmt(p.report.busy_ns as f64 / 1e6),
                p.violations.to_string(),
            ]);
        }
    }
    let last = thread_counts.len() - 1;
    let speedup = tput[1][last] / tput[0][last].max(f64::MIN_POSITIVE);
    t.print();
    println!(
        "N=4 over N=1 at {} threads: {:.2}x (persistcheck {})",
        thread_counts[last],
        speedup,
        if clean { "CLEAN" } else { "FAIL" }
    );
    write_csv("scaling", &t.headers(), t.rows());
    checks(&[
        (clean, "persist-order violations on the sharded commit path"),
        (
            speedup >= 2.0,
            &format!("sharded pool speedup {speedup:.2}x below the 2x bar"),
        ),
    ])
}
