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
//!   space, analysed as a single stream.
//!
//! Both come from the crash engine: the pool is built traced by
//! [`Rig::new`] and audited by [`crashsim::engine::audit`].
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
use crashsim::engine::Rig;
use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
use persistcheck::{Report, Rule};
use telemetry::Json;
use tinca::TincaPool;
use workloads::mtfio::{MtFio, MtFioSpec};
use workloads::sched::{Policy, Sched};

use super::{sharded_pool, violations};
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

fn nvm_bytes(quick: bool) -> usize {
    if quick {
        4 << 20
    } else {
        16 << 20
    }
}

/// Runs the workload of one point on `pool`.
fn run_workload(pool: &TincaPool, shards: usize, threads: usize, quick: bool) {
    let spec = MtFioSpec {
        threads,
        read_pct: 30,
        blocks: if quick { 512 } else { 2048 },
        ops_per_thread: if quick { 250 } else { 1000 },
        txn_blocks: 2,
        seed: 0xACED + shards as u64,
    };
    let sched = Sched {
        policy: Policy::Seeded(spec.seed),
    };
    let fio = MtFio::new(spec);
    fio.setup(pool, if quick { 64 } else { 256 });
    fio.run(pool, &sched);
    pool.flush_all().expect("fault-free flush");
}

/// The point's pool untraced, the one pool a [`Rig`] cannot build.
fn untraced_pool(shards: usize, quick: bool) -> TincaPool {
    let devices = shard_devices(&NvmConfig::new(nvm_bytes(quick), NvmTech::Pcm), shards);
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    TincaPool::format(devices, disk, sharded_pool(shards))
}

/// Runs one point, audits it per shard and merged, and checks it
/// against the same run untraced.
pub fn audit_point(shards: usize, threads: usize, quick: bool) -> RacePoint {
    let (rig, pool) = Rig::new(sharded_pool(shards), nvm_bytes(quick) / shards);
    run_workload(&pool, shards, threads, quick);
    let twin = untraced_pool(shards, quick);
    run_workload(&twin, shards, threads, quick);

    // The merged trace holds every shard's events, sync annotations
    // included.
    let sync_events = rig
        .devices
        .iter()
        .flat_map(|d| d.trace_snapshot())
        .filter(|op| op.event.is_sync())
        .count() as u64;
    let audit = rig.audit();
    let correctness = violations(&audit, &format!("{shards} shards, {threads} threads"));
    // After the audit: `shard_clock` takes the shard's lock, which traces.
    let neutral = (0..shards).all(|s| pool.shard_clock(s).now_ns() == twin.shard_clock(s).now_ns());

    RacePoint {
        shards,
        threads,
        merged: audit.merged,
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
