//! Multi-writer scaling figure — lock-free intra-shard commit pipeline
//! vs the mutex baseline (DESIGN §16).
//!
//! Sweeps 1–16 logical writers against `N = 1` and `N = 4` shard pools,
//! running the **identical** lane-disjoint transaction stream (same RNG
//! streams, same blocks, same fills) through both commit paths:
//!
//! * **mutex** — `CommitMode::Mutex`, every transaction through the
//!   blocking `commit()`; with one OS thread driving the round-robin the
//!   shard serialises the full per-transaction cost (the c = 1 service
//!   model of the open-loop tier).
//! * **lockfree** — `CommitMode::LockFreeRing` via the steppable window
//!   API: each round reserves one window per writer, stages payloads on
//!   private clocks (overlapped), publishes in rotated order and lets
//!   one sequencer round retire the whole batch with a single fence.
//!
//! The headline gate is the single-shard speedup at 8 writers: the
//! pipeline must reach **≥ 2x** the mutex baseline's commit throughput,
//! and the uncontended 1-writer ring cost must not drift (both gated via
//! `BENCH_9.json`). Every point runs on traced devices and must pass the
//! persist-order + HB-race audit per shard *and* on the merged
//! pool-wide trace. The run embeds the multi-writer crash smoke: a
//! random-trip fuzz sweep (200 seeds full, covering crash-mid-
//! publication) and a bounded-exhaustive frontier enumeration over
//! concurrent publication orders — both must be violation-free.

use std::fs;

use blockdev::{DiskKind, SimDisk};
use crashsim::FrontierReport;
use nvmsim::{merge_shard_traces, shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker};
use telemetry::Json;
use tinca::{CommitMode, PoolConfig, TincaConfig, TincaPool};
use workloads::mtfio::{MtFio, MtFioSpec, MtReport};

use crate::table::Table;
use crate::{banner, fmt, results_dir, write_csv};

/// One measured (shards, writers, mode) point.
pub struct MwPoint {
    pub shards: usize,
    pub writers: usize,
    pub lockfree: bool,
    pub report: MtReport,
    /// Commit cost under the mode's service model: contended wall time
    /// for the mutex path, parallel wall time for the pipeline.
    pub ns_per_txn: f64,
    /// Persist-order + race violations over per-shard and merged traces.
    pub violations: usize,
}

/// Everything the figure produced (for the bin's acceptance checks).
pub struct MwScalingResult {
    pub table: Table,
    /// Single-shard lock-free over mutex throughput at 8 writers.
    pub speedup_x_8w: f64,
    /// Uncontended (1 writer, 1 shard) ring-path commit cost.
    pub mw_ns_per_txn_1w: f64,
    pub persist_clean: bool,
    pub fuzz: crashsim::CampaignReport,
    pub frontier: FrontierReport,
}

fn build_pool(shards: usize, lockfree: bool, quick: bool) -> (TincaPool, Vec<Nvm>) {
    let per_shard = if quick { 2 << 20 } else { 4 << 20 };
    let devices = shard_devices(
        &NvmConfig::new(shards * per_shard, NvmTech::Pcm).with_tracing(),
        shards,
    );
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let pool = TincaPool::format(
        devices.clone(),
        disk,
        PoolConfig {
            shards,
            commit_mode: if lockfree {
                CommitMode::LockFreeRing
            } else {
                CommitMode::Mutex
            },
            cache: TincaConfig {
                ring_bytes: 16 << 10,
                ..TincaConfig::default()
            },
        },
    );
    (pool, devices)
}

/// Runs one point: the lane workload through the chosen commit path,
/// then the persist-order audit of each shard's trace and the merged
/// pool trace.
fn run_point(shards: usize, writers: usize, lockfree: bool, quick: bool) -> MwPoint {
    let (pool, devices) = build_pool(shards, lockfree, quick);
    let spec = MtFioSpec {
        threads: writers,
        read_pct: 0, // a pure commit-path figure
        blocks: if quick { 512 } else { 2048 },
        ops_per_thread: if quick { 150 } else { 800 },
        txn_blocks: 2,
        seed: 0x3757_0009 + shards as u64,
    };
    let fio = MtFio::new(spec);
    let report = if lockfree {
        fio.run_multi_writer(&pool)
    } else {
        fio.run_lanes_blocking(&pool)
    };
    pool.flush_all().expect("quiesce after measured phase");

    // The mutex path serialises writers behind the shard lock — its
    // honest cost is the contention-aware wall time. The pipeline's
    // overlap is what the shard clocks already model.
    let wall = if lockfree {
        report.wall_ns
    } else {
        report.contended_wall_ns
    };
    let ns_per_txn = wall as f64 / report.write_txns.max(1) as f64;

    let mut violations = 0usize;
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    let ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(ranges[s].clone()));
        checker.push_all(trace);
        let r = checker.report();
        if !r.is_clean() {
            violations += r.violations.len();
            eprintln!(
                "--- shard {s} ({shards} shards, {writers} writers, lockfree={lockfree}) ---\n{r}"
            );
        }
    }
    let shard_capacity = devices[0].capacity();
    let merged_ranges: Vec<_> = ranges
        .iter()
        .enumerate()
        .flat_map(|(s, rs)| {
            let base = s * shard_capacity;
            rs.iter().map(move |r| r.start + base..r.end + base)
        })
        .collect();
    let mut checker = Checker::new(CheckConfig::with_metadata(merged_ranges));
    checker.push_all(&merge_shard_traces(traces, shard_capacity));
    let r = checker.report();
    if !r.is_clean() {
        violations += r.violations.len();
        eprintln!(
            "--- merged trace ({shards} shards, {writers} writers, lockfree={lockfree}) ---\n{r}"
        );
    }

    MwPoint {
        shards,
        writers,
        lockfree,
        report,
        ns_per_txn,
        violations,
    }
}

/// Runs the figure: the writer sweep on both pools and both commit
/// paths, the embedded multi-writer crash campaigns, and `BENCH_9.json`.
pub fn run(quick: bool) -> MwScalingResult {
    banner(
        "mw_scaling",
        "Multi-writer commit: lock-free ring pipeline vs mutex baseline, 1-16 writers",
        ">=2x single-shard throughput at 8 writers; persistcheck clean; mw crash campaigns clean",
    );
    let writer_counts: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let mut t = Table::new(&[
        "shards",
        "writers",
        "mode",
        "ns/txn",
        "ktxn/s",
        "group %",
        "speedup x",
        "violations",
    ]);
    let mut persist_clean = true;
    let mut speedup_x_8w = 0.0f64;
    let mut mw_ns_per_txn_1w = 0.0f64;
    let mut mutex_ns_per_txn_8w = 0.0f64;
    let mut mw_ns_per_txn_8w = 0.0f64;
    for &shards in &[1usize, 4] {
        for &writers in writer_counts {
            let mutex = run_point(shards, writers, false, quick);
            let ring = run_point(shards, writers, true, quick);
            persist_clean &= mutex.violations == 0 && ring.violations == 0;
            let speedup = mutex.ns_per_txn / ring.ns_per_txn.max(f64::MIN_POSITIVE);
            if shards == 1 && writers == 8 {
                speedup_x_8w = speedup;
                mutex_ns_per_txn_8w = mutex.ns_per_txn;
                mw_ns_per_txn_8w = ring.ns_per_txn;
            }
            if shards == 1 && writers == 1 {
                mw_ns_per_txn_1w = ring.ns_per_txn;
            }
            for p in [&mutex, &ring] {
                t.row(vec![
                    shards.to_string(),
                    writers.to_string(),
                    if p.lockfree { "lockfree" } else { "mutex" }.to_string(),
                    fmt(p.ns_per_txn),
                    fmt(1e6 / p.ns_per_txn),
                    fmt(p.report.batched_fraction() * 100.0),
                    if p.lockfree {
                        format!("{speedup:.2}")
                    } else {
                        "-".to_string()
                    },
                    p.violations.to_string(),
                ]);
            }
        }
    }
    t.print();
    println!(
        "single shard at 8 writers: mutex {:.0} ns/txn, lockfree {:.0} ns/txn -> {:.2}x \
         (persistcheck {})",
        mutex_ns_per_txn_8w,
        mw_ns_per_txn_8w,
        speedup_x_8w,
        if persist_clean { "CLEAN" } else { "FAIL" }
    );
    write_csv("mw_scaling", &t.headers(), t.rows());

    // Embedded crash smoke over the concurrent commit path: random-trip
    // fuzz (200 seeds full — the acceptance sweep, crash-mid-publication
    // included) and bounded-exhaustive frontier enumeration over
    // publication orders.
    let fuzz = crashsim::mw_pool_fuzz_campaign(2, 0x3757_B900, if quick { 40 } else { 200 }, 20);
    println!(
        "mw fuzz: {} runs, {} crashes, {} violations",
        fuzz.runs,
        fuzz.crashes,
        fuzz.violations.len()
    );
    for v in &fuzz.violations {
        eprintln!("  violation: {v}");
    }
    let frontier = crashsim::mw_frontier_campaign(2, 0x3757_B901, if quick { 3 } else { 4 }, 6);
    println!("mw frontier: {frontier}");
    for v in &frontier.violations {
        eprintln!("  violation: {v}");
    }

    // BENCH_9.json — machine-readable summary for perfgate: the 8-writer
    // speedup must not shrink and the uncontended ring cost must not
    // drift.
    let gate = Json::obj(vec![
        ("mw_speedup_x_8w", speedup_x_8w.into()),
        ("mw_ns_per_txn_1w", mw_ns_per_txn_1w.into()),
        ("mutex_ns_per_txn_8w", mutex_ns_per_txn_8w.into()),
        ("mw_ns_per_txn_8w", mw_ns_per_txn_8w.into()),
    ]);
    let fuzz_json = Json::obj(vec![
        ("runs", fuzz.runs.into()),
        ("crashes", fuzz.crashes.into()),
        ("violations", (fuzz.violations.len() as u64).into()),
    ]);
    let frontier_json = Json::obj(vec![
        ("epochs", frontier.epochs_total.into()),
        ("states", frontier.states_run.into()),
        ("violations", (frontier.violations.len() as u64).into()),
    ]);
    let figure = Json::obj(vec![
        ("figure", "mw_scaling".into()),
        (
            "headers",
            Json::Arr(t.headers().iter().map(|h| (*h).into()).collect()),
        ),
        (
            "rows",
            Json::Arr(
                t.rows()
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
                    .collect(),
            ),
        ),
    ]);
    let bench = Json::obj(vec![
        ("bench", "mw_scaling".into()),
        ("quick", quick.into()),
        ("persistcheck_clean", persist_clean.into()),
        ("gate", gate),
        ("fuzz_campaign", fuzz_json),
        ("frontier_campaign", frontier_json),
        ("mw_scaling", figure),
    ]);
    let dir = results_dir();
    let root = dir.parent().expect("results dir sits in the repo root");
    let path = root.join("BENCH_9.json");
    fs::write(&path, bench.render()).expect("write BENCH_9.json");
    eprintln!("  [bench] {}", path.display());

    MwScalingResult {
        table: t,
        speedup_x_8w,
        mw_ns_per_txn_1w,
        persist_clean,
        fuzz,
        frontier,
    }
}
