//! Commit-path phase breakdown — where every simulated nanosecond of a
//! Tinca commit goes (telemetry subsystem demo + acceptance gate).
//!
//! Runs a seeded mixed workload against the paper's single Tinca cache (a
//! one-shard [`TincaPool`]) with the telemetry recorder armed, prints the
//! phase tree, and writes:
//!
//! * `EXPERIMENTS-results/phases.csv` / `.json` — top-level phase totals;
//! * `EXPERIMENTS-results/phases.jsonl` — the full JSONL event stream;
//! * `EXPERIMENTS-results/phases.trace.json` — chrome://tracing file;
//! * `BENCH_5.json` (repo root) — machine-readable summary: attribution
//!   fraction, phase tree, histograms, the unified [`StatsSnapshot`],
//!   and a flat `gate` object of per-op efficiency counters that the
//!   runner diffs against the file it replaces.
//!
//! The run checks that ≥ 95 % of simulated commit-path time is
//! attributed to named child phases (`commit` self time ≤ 5 %) — the
//! instrumentation-coverage gate for the commit protocol — and that
//! ≥ 95 % of the closing recovery's time sits in its named steps
//! (`recovery.scan` / `.judge` / `.close` / `.rebuild`).

use std::fs;

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::Json;
use tinca::{PoolConfig, StatsSnapshot, TincaConfig, TincaPool};

use crate::table::Table;
use crate::{banner, checks, fmt, results_dir, write_bench, write_csv};

/// Minimum fraction of commit-path simulated time that must land in named
/// child phases.
pub const MIN_ATTRIBUTED: f64 = 0.95;

/// Runs the breakdown; fails if either attribution falls below
/// [`MIN_ATTRIBUTED`].
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Phases",
        "Commit-path phase breakdown (simulated-time telemetry)",
        "every commit-path ns attributed: stage / entry / ring / commit point",
    );
    let ops: u64 = if quick { 2_000 } else { 10_000 };
    let nvm_bytes = if quick { 2 << 20 } else { 4 << 20 };

    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(nvm_bytes, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone());
    let cfg = PoolConfig {
        cache: TincaConfig {
            ring_bytes: 4096,
            // The gate protects the optimised commit path: write-behind
            // destage + flush coalescing, as the local figures run it.
            destage: true,
            coalesce_flushes: true,
            ..TincaConfig::default()
        },
        ..PoolConfig::default()
    };
    let mut cache = TincaPool::format(vec![nvm.clone()], disk.clone(), cfg.clone());
    // 2.5× the cache's block capacity so evictions and writebacks appear
    // in the tree alongside the commit protocol itself.
    let span_blocks = u64::from(cache.shard_layout(0).data_blocks) * 5 / 2;

    let (snapshot, report) = telemetry::record(&clock, telemetry::Config::with_events(), || {
        let mut rng = StdRng::seed_from_u64(0x9E57);
        for _ in 0..ops {
            if rng.gen_bool(0.3) {
                let mut buf = [0u8; BLOCK_SIZE];
                let blk = rng.gen_range(0..span_blocks);
                cache.read(blk, &mut buf).expect("fault-free read");
            } else {
                let mut txn = cache.init_txn();
                for _ in 0..rng.gen_range(1..=4u32) {
                    let blk = rng.gen_range(0..span_blocks);
                    txn.write(blk, &[blk as u8; BLOCK_SIZE]);
                }
                cache.commit(txn).expect("fault-free commit");
            }
        }
        cache.flush_all().expect("fault-free flush");
        // Reopen from NVM so recovery shows up in the phase tree too.
        cache = TincaPool::recover(vec![nvm], disk, cfg).expect("recover");
        StatsSnapshot::collect_pool(&cache)
    });

    println!("{}", report.phase_report());

    let frac = report
        .attributed_fraction("commit")
        .expect("workload ran commits");
    println!(
        "commit-path attribution: {:.2}% of {} simulated ns in named phases",
        frac * 100.0,
        report.find("commit").map_or(0, |p| p.total_ns),
    );

    // Recovery's named steps: the share of its simulated time under the
    // `recovery.*` children, and the step that dominates it.
    let recovery = report
        .find(telemetry::phase::RECOVERY)
        .expect("workload recovered");
    let steps: Vec<_> = recovery
        .children
        .iter()
        .map(|&c| &report.phases[c])
        .filter(|p| p.name.starts_with("recovery."))
        .collect();
    let frac_recovery =
        steps.iter().map(|p| p.total_ns).sum::<u64>() as f64 / recovery.total_ns.max(1) as f64;
    let dominant = steps
        .iter()
        .max_by_key(|p| p.total_ns)
        .map_or("-", |p| p.name.as_str());
    println!(
        "recovery attribution: {:.2}% of {} simulated ns in named steps, {dominant} largest",
        frac_recovery * 100.0,
        recovery.total_ns,
    );

    // Top-level phases as a table/CSV like every other figure.
    let mut t = Table::new(&["Phase", "total ns", "count", "share %"]);
    let total: u64 = report.total_ns.max(1);
    for p in report.phases.iter().filter(|p| p.parent == Some(0)) {
        t.row(vec![
            p.name.clone(),
            p.total_ns.to_string(),
            p.count.to_string(),
            fmt(p.total_ns as f64 / total as f64 * 100.0),
        ]);
    }
    t.print();
    write_csv("phases", &t.headers(), t.rows());

    // Flush-hygiene smells per commit phase: the device marks every
    // clflush of an already-clean line, every sfence that found nothing
    // staged and every store that landed on a line already staged in the
    // open fence epoch (copied, to be flushed again; `nvmsim` names the
    // mark `nvm.store.cow`) — count-only, no simulated time — so wasted
    // persist instructions show up under the exact phase that issued them.
    let mut clean_flushes = 0u64;
    let mut empty_fences = 0u64;
    let mut cow_stores = 0u64;
    let mut smells = Table::new(&["Phase", "smell", "count"]);
    for p in &report.phases {
        let smell = match p.name.as_str() {
            telemetry::phase::NVM_FLUSH_CLEAN => {
                clean_flushes += p.count;
                "clean-line clflush"
            }
            telemetry::phase::NVM_FENCE_EMPTY => {
                empty_fences += p.count;
                "empty sfence"
            }
            "nvm.store.cow" => {
                cow_stores += p.count;
                "store to a staged line"
            }
            _ => continue,
        };
        let parent = p
            .parent
            .map_or("(root)".to_string(), |i| report.phases[i].path.clone());
        smells.row(vec![parent, smell.into(), p.count.to_string()]);
    }
    println!(
        "flush-hygiene smells: {clean_flushes} clean-line clflush, {empty_fences} empty sfence, \
         {cow_stores} store to a staged line"
    );
    if !smells.rows().is_empty() {
        smells.print();
    }
    write_csv("phases_smells", &smells.headers(), smells.rows());

    // Exporters: full event stream + chrome trace.
    let dir = results_dir();
    fs::write(dir.join("phases.jsonl"), report.to_jsonl()).expect("write jsonl");
    fs::write(dir.join("phases.trace.json"), report.to_chrome_trace()).expect("write trace");
    eprintln!("  [jsonl] {}", dir.join("phases.jsonl").display());
    eprintln!("  [trace] {}", dir.join("phases.trace.json").display());

    // BENCH_5.json: the machine-readable bench result at the repo root.
    // The `gate` counters are what the runner diffs — keep their names
    // stable.
    let commit_ns = report.find("commit").map_or(0, |p| p.total_ns);
    let gate = Json::obj(vec![
        (
            "clflush_per_op",
            (snapshot.nvm.clflush as f64 / ops as f64).into(),
        ),
        ("disk_busy_ns", snapshot.disk.busy_ns.into()),
        ("commit_total_ns", commit_ns.into()),
        ("sim_ns", snapshot.sim_ns.into()),
    ]);
    let smell_totals = Json::obj(vec![
        ("clean_line_clflush", clean_flushes.into()),
        ("empty_sfence", empty_fences.into()),
        ("store_to_staged_line", cow_stores.into()),
    ]);
    let bench = Json::obj(vec![
        ("bench", "phases".into()),
        ("quick", quick.into()),
        ("ops", ops.into()),
        ("attributed_fraction_commit", frac.into()),
        ("attributed_fraction_recovery", frac_recovery.into()),
        ("min_attributed", MIN_ATTRIBUTED.into()),
        ("flush_smells", smell_totals),
        ("gate", gate),
        ("stats", snapshot.to_json()),
        ("telemetry", report.to_json()),
    ]);
    write_bench("BENCH_5.json", &bench);

    let lost = |what: &str, frac: f64| {
        format!(
            "only {:.2}% of {what} time attributed (< {:.0}%) — a {what} span went missing",
            frac * 100.0,
            MIN_ATTRIBUTED * 100.0
        )
    };
    checks(&[
        (frac >= MIN_ATTRIBUTED, &lost("commit-path", frac)),
        (
            frac_recovery >= MIN_ATTRIBUTED,
            &lost("recovery", frac_recovery),
        ),
    ])
}
