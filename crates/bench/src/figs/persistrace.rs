//! persistrace figure — concurrency-aware persist-order audit of the
//! sharded pool under multi-threaded load.
//!
//! Runs the scaling workload (multi-writer Fio over a sharded
//! [`TincaPool`], its writers interleaved by a seeded scheduler) with NVM
//! event tracing on, then audits the traces with
//! the full `persistcheck` rule set, including the happens-before race
//! rules (`persist-race`, `unordered-commit`,
//! `cross-thread-flush-dependency`). Two views per point:
//!
//! * **per shard** — each device's trace in true device order (the device
//!   mutex serialises its events);
//! * **merged** — all shard traces rebased into one pool-wide address
//!   space via [`nvmsim::merge_shard_traces`], analysed as a single
//!   stream.
//!
//! The pool's commit path is mutex-serialised and annotates its locks as
//! sync events, so the gate is strict: **zero** correctness-rule hits (the
//! classic three *and* the three race rules) in either view. A single
//! missing happens-before edge — say a commit that touches the device
//! outside its shard's cache lock, or a destage racing a commit — fails
//! the figure.
//!
//! Tracing neutrality is checked at every audited point: the same
//! workload and schedule untraced must land on the same simulated clocks,
//! nanosecond for nanosecond.

use std::fs;

use blockdev::{DiskKind, SimDisk};
use nvmsim::{merge_shard_traces, shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker, Report, Rule};
use telemetry::Json;
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::mtfio::{MtFio, MtFioSpec};
use workloads::sched::{Policy, Sched};

use crate::table::Table;
use crate::{banner, checks, results_dir, write_csv};

/// One audited (shards, threads) point.
pub struct RacePoint {
    pub shards: usize,
    pub threads: usize,
    /// Pool-wide merged-trace report.
    pub merged: Report,
    /// Sync annotation events in the merged trace.
    pub sync_events: u64,
    /// Correctness-rule hits summed over both views (gate).
    pub correctness: usize,
    /// Tracing is observation-only: an untraced run ends on the same
    /// shard clocks.
    pub neutral: bool,
}

fn build_pool(shards: usize, nvm_bytes: usize, traced: bool) -> (TincaPool, Vec<Nvm>) {
    let mut nvm_cfg = NvmConfig::new(nvm_bytes, NvmTech::Pcm);
    if traced {
        nvm_cfg = nvm_cfg.with_tracing();
    }
    let devices = shard_devices(&nvm_cfg, shards);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let pool = TincaPool::format(
        devices.clone(),
        disk,
        PoolConfig {
            shards,
            cache: TincaConfig {
                ring_bytes: 16 << 10,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        },
    );
    (pool, devices)
}

fn spec(shards: usize, threads: usize, quick: bool) -> MtFioSpec {
    MtFioSpec {
        threads,
        read_pct: 30,
        blocks: if quick { 512 } else { 2048 },
        ops_per_thread: if quick { 250 } else { 1000 },
        txn_blocks: 2,
        seed: 0xACED + shards as u64,
    }
}

/// Builds a pool, runs the workload on it and returns the pool and its
/// devices.
fn run_workload(shards: usize, threads: usize, quick: bool, traced: bool) -> (TincaPool, Vec<Nvm>) {
    let nvm_bytes = if quick { 4 << 20 } else { 16 << 20 };
    let (pool, devices) = build_pool(shards, nvm_bytes, traced);
    let spec = spec(shards, threads, quick);
    let sched = Sched {
        policy: Policy::Seeded(spec.seed),
    };
    let fio = MtFio::new(spec);
    fio.setup(&pool, if quick { 64 } else { 256 });
    fio.run(&pool, &sched);
    pool.flush_all().expect("fault-free flush");
    (pool, devices)
}

fn clocks(devices: &[Nvm]) -> Vec<u64> {
    devices.iter().map(|d| d.clock().now_ns()).collect()
}

fn correctness_hits(r: &Report) -> usize {
    r.violations
        .iter()
        .filter(|v| v.rule.is_correctness())
        .count()
}

/// Runs one point, audits it per shard and merged, and checks it
/// against the same run untraced.
pub fn audit_point(shards: usize, threads: usize, quick: bool) -> RacePoint {
    let (pool, devices) = run_workload(shards, threads, quick, true);
    let neutral = clocks(&devices) == clocks(&run_workload(shards, threads, quick, false).1);

    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    let shard_capacity = devices[0].capacity();

    let mut correctness = 0usize;
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(pool.shard_metadata_ranges(s)));
        checker.push_all(trace);
        let r = checker.report();
        let hits = correctness_hits(&r);
        if hits > 0 {
            eprintln!("--- shard {s} ({shards} shards, {threads} threads) ---\n{r}");
        }
        correctness += hits;
    }

    // Pool-wide view: rebase every shard trace into the pool address
    // space and analyse the deterministic merged stream. Metadata ranges
    // shift with the same per-shard base as the addresses.
    let merged_trace = merge_shard_traces(traces, shard_capacity);
    let sync_events = merged_trace.iter().filter(|op| op.event.is_sync()).count() as u64;
    let merged_ranges: Vec<_> = (0..shards)
        .flat_map(|s| {
            let base = s * shard_capacity;
            pool.shard_metadata_ranges(s)
                .into_iter()
                .map(move |r| r.start + base..r.end + base)
        })
        .collect();
    let mut checker = Checker::new(CheckConfig::with_metadata(merged_ranges));
    checker.push_all(&merged_trace);
    let merged = checker.report();
    let hits = correctness_hits(&merged);
    if hits > 0 {
        eprintln!("--- merged ({shards} shards, {threads} threads) ---\n{merged}");
    }
    correctness += hits;

    RacePoint {
        shards,
        threads,
        merged,
        sync_events,
        correctness,
        neutral,
    }
}

/// Runs the full figure. Fails if any correctness rule (including the
/// race rules) fired in any view, or if tracing moved a clock.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "persistrace",
        "Concurrency-aware persist audit: HB race rules over the sharded pool",
        "zero correctness hits (incl. persist-race/unordered-commit) on the mutex-serialized path",
    );
    let points: &[(usize, usize)] = if quick {
        &[(1, 1), (2, 4)]
    } else {
        &[(1, 1), (1, 4), (2, 4), (4, 8)]
    };
    let mut t = Table::new(&[
        "shards",
        "threads",
        "events",
        "sync events",
        "persist-race",
        "unordered-commit",
        "cross-thread-flush",
        "correctness",
        "lints",
        "verdict",
    ]);
    let mut clean = true;
    let mut neutral = true;
    let mut json_points = Vec::new();
    for &(shards, threads) in points {
        let p = audit_point(shards, threads, quick);
        clean &= p.correctness == 0;
        neutral &= p.neutral;
        let r = &p.merged;
        t.row(vec![
            shards.to_string(),
            threads.to_string(),
            r.events.to_string(),
            p.sync_events.to_string(),
            r.count(Rule::PersistRace).to_string(),
            r.count(Rule::UnorderedCommit).to_string(),
            r.count(Rule::CrossThreadFlushDependency).to_string(),
            p.correctness.to_string(),
            (r.redundant_flushes + r.empty_fences).to_string(),
            if p.correctness == 0 {
                "CLEAN".into()
            } else {
                "FAIL".into()
            },
        ]);
        json_points.push(Json::obj(vec![
            ("shards", (shards as u64).into()),
            ("threads", (threads as u64).into()),
            ("sync_events", p.sync_events.into()),
            ("merged", r.to_json()),
        ]));
    }
    println!("tracing neutral (traced == untraced simulated clocks, every point): {neutral}");
    t.print();
    write_csv("persistrace", &t.headers(), t.rows());
    let out = Json::obj(vec![
        ("bench", "persistrace".into()),
        ("quick", quick.into()),
        ("points", Json::Arr(json_points)),
    ]);
    // `write_csv` owns `persistrace.json` (the table view); the full
    // per-point persistcheck reports go to a sibling file.
    let path = results_dir().join("persistrace.report.json");
    fs::write(&path, out.render()).expect("write persistrace.json");
    eprintln!("  [json] {}", path.display());
    checks(&[
        (
            clean,
            "correctness violations (incl. race rules) on the pool commit path",
        ),
        (neutral, "tracing changed simulated time"),
    ])
}
