//! Write-behind destage ablation — the pipeline's contribution, isolated.
//!
//! Runs the Fig. 7 write-heavy Fio workload (R/W 3/7, fsync every 64)
//! on the Tinca stack with the write-behind pipeline (watermark destage
//! daemon + commit-path flush coalescing) off and on, over SSD and HDD,
//! with the telemetry recorder armed. Reports throughput, the `commit`
//! phase total, destage counters, and the flushes coalescing elided.
//!
//! Acceptance gate: on SSD the foreground `commit` phase total must
//! drop by at least [`MIN_COMMIT_DROP`] with the pipeline on — batched,
//! address-sorted background writeback is supposed to take synchronous
//! victim writebacks off the allocation path, not merely relabel them.

use blockdev::DiskKind;
use fssim::stack::{build, System};
use fssim::Backend;
use tinca::StatsSnapshot;
use workloads::fio::{Fio, FioSpec};

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, checks, fmt, write_csv};

/// Minimum relative reduction of the `commit` phase total (SSD).
pub const MIN_COMMIT_DROP: f64 = 0.20;

struct RunResult {
    iops: f64,
    commit_ns: u64,
    snapshot: StatsSnapshot,
}

fn run_one(kind: DiskKind, destage: bool, quick: bool, ops: u64) -> RunResult {
    let mut cfg = local_cfg(System::Tinca, quick);
    cfg.disk_kind = kind;
    cfg.destage = destage;
    let mut stack = build(&cfg).unwrap();
    let clock = stack.clock.clone();
    let mut fio = Fio::new(FioSpec::paper(30, cfg.nvm_bytes, ops, 0x07));
    fio.setup(&mut stack);
    let (r, report) =
        telemetry::record(&clock, telemetry::Config::default(), || fio.run(&mut stack));
    let Backend::Tinca(pool) = stack.fs.backend() else {
        panic!("destage runs on a Tinca stack");
    };
    // `commit` nests under `fs.op` in a full stack; sum every node of
    // that name wherever it appears in the tree.
    let commit_ns = report
        .phases
        .iter()
        .filter(|p| p.name == telemetry::phase::COMMIT)
        .map(|p| p.total_ns)
        .sum();
    RunResult {
        iops: r.ops_per_sec(),
        commit_ns,
        snapshot: StatsSnapshot::collect_pool(pool),
    }
}

/// Runs the ablation; fails unless the SSD commit phase drops by
/// [`MIN_COMMIT_DROP`].
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Destage",
        "Write-behind pipeline ablation: Fio 3/7 write-heavy, destage+coalescing off vs on",
        "batched background writeback takes evictions off the commit path (>=20% on SSD)",
    );
    let ops: u64 = if quick { 6_000 } else { 30_000 };
    let mut t = Table::new(&[
        "Disk",
        "Pipeline",
        "IOPS",
        "commit ms",
        "destage blk",
        "stalls",
        "coalesced",
        "commit drop",
    ]);
    let mut ssd_drop = 0.0;
    for kind in [DiskKind::Ssd, DiskKind::Hdd] {
        let off = run_one(kind, false, quick, ops);
        let on = run_one(kind, true, quick, ops);
        let drop = 1.0 - on.commit_ns as f64 / off.commit_ns.max(1) as f64;
        if kind == DiskKind::Ssd {
            ssd_drop = drop;
        }
        for (label, r, d) in [("off", &off, None), ("on", &on, Some(drop))] {
            let c = &r.snapshot.cache;
            t.row(vec![
                format!("{kind:?}").to_uppercase(),
                label.into(),
                fmt(r.iops),
                fmt(r.commit_ns as f64 / 1e6),
                c.destage_blocks.to_string(),
                c.destage_stalls.to_string(),
                c.coalesced_flushes.to_string(),
                d.map_or(String::new(), |d| format!("{:.1}%", d * 100.0)),
            ]);
        }
    }
    t.print();
    write_csv("destage", &t.headers(), t.rows());
    checks(&[(
        ssd_drop >= MIN_COMMIT_DROP,
        &format!(
            "destage cut the SSD commit phase by only {:.1}% (< {:.0}%)",
            ssd_drop * 100.0,
            MIN_COMMIT_DROP * 100.0
        ),
    )])
}
