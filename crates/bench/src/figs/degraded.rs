//! Degraded-mode figure: what disk faults cost, and what they cannot
//! break.
//!
//! Two parts:
//!
//! 1. **Fault-fuzz campaign** — seeded schedules combining a random crash
//!    point with a random fault plan (transient bursts, bad block ranges,
//!    latency spikes). Pass criterion: zero violations — no committed
//!    block lost or torn, transients absorbed by retry, permanent
//!    writeback failures leave the block readable from NVM.
//! 2. **Throughput under degradation** — the same single-shard workload on
//!    a healthy disk, a disk with transient faults (the retry/backoff
//!    path), and a disk with a permanently bad range (the quarantine
//!    path). Shows the cost of absorption and that a degraded cache keeps
//!    serving.

use blockdev::{DiskKind, FaultPlan, FaultyDisk, SimDisk, BLOCK_SIZE};
use crashsim::fault_fuzz_campaign;
use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca::{Health, TincaCache, TincaConfig};

use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// One measured throughput point.
struct DegradedPoint {
    label: &'static str,
    ops_per_sec: f64,
    io_retries: u64,
    absorbed: u64,
    quarantined: usize,
    health: Health,
}

/// A fixed single-threaded commit workload against a cache whose disk is
/// wrapped per `plan` (`None` = bare disk).
fn run_point(label: &'static str, plan: Option<FaultPlan>) -> DegradedPoint {
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock.clone());
    let cache_disk: tinca::DynDisk = match plan {
        Some(p) => FaultyDisk::new(disk, p),
        None => disk,
    };
    let mut cache = TincaCache::format(
        nvm,
        cache_disk,
        TincaConfig {
            ring_bytes: 8 << 10,
            ..TincaConfig::default()
        },
    );
    let blocks = 512u64;
    let ops = 4_000u64;
    let t0 = clock.now_ns();
    for i in 0..ops {
        let mut txn = cache.init_txn();
        let b = (i * 17) % blocks;
        txn.write(b, &[(i % 251) as u8 + 1; BLOCK_SIZE]);
        txn.write((b + 7) % blocks, &[(i % 241) as u8 + 1; BLOCK_SIZE]);
        cache
            .commit(&txn)
            .expect("commits must survive disk faults");
    }
    let elapsed = (clock.now_ns() - t0).max(1);
    let s = cache.stats();
    DegradedPoint {
        label,
        ops_per_sec: ops as f64 / (elapsed as f64 / 1e9),
        io_retries: s.io_retries,
        absorbed: s.transient_errors_absorbed,
        quarantined: cache.quarantined_count(),
        health: cache.health(),
    }
}

/// Runs the figure. Returns `(table, clean)` where `clean` is true iff the
/// fuzz campaign had zero violations and the degraded points behaved
/// (transients fully absorbed, bad range ⇒ `Degraded`).
pub fn run(quick: bool) -> (Table, bool) {
    banner(
        "degraded",
        "Fault injection: crash+fault fuzz campaign and degraded-mode throughput",
        "zero violations; transients absorbed by retry; bad range => Degraded, still serving",
    );

    let runs: u64 = if quick { 200 } else { 1200 };
    let campaign = fault_fuzz_campaign(1, 0xFA57_0000, runs, 40);
    println!(
        "fault-fuzz: {} runs, {} crashed, {} completed, {} degraded, \
         {} transients absorbed over {} retries, {} permanent errors, {} violations",
        campaign.runs,
        campaign.crashes,
        campaign.completed,
        campaign.degraded,
        campaign.transients_absorbed,
        campaign.io_retries,
        campaign.permanent_errors,
        campaign.violations.len(),
    );
    for v in campaign.violations.iter().take(5) {
        println!("  !! {v}");
    }
    let mut clean = campaign.clean();

    let transient_plan = FaultPlan::quiet(0xDE6)
        .with_transient_reads(60)
        .with_transient_writes(60)
        .with_burst_len(3)
        .with_latency_spikes(20, 2_000_000);
    // The workload writes blocks 0..512; 24 of them lose their backing
    // store permanently.
    let bad_plan = FaultPlan::quiet(0xDE7).with_bad_range(100..124);

    let mut t = Table::new(&[
        "disk",
        "ops/s",
        "io retries",
        "transients absorbed",
        "quarantined",
        "health",
    ]);
    for p in [
        run_point("healthy", None),
        run_point("transient-faults", Some(transient_plan)),
        run_point("bad-range", Some(bad_plan)),
    ] {
        match p.label {
            "healthy" => {
                clean &= p.io_retries == 0 && p.quarantined == 0 && p.health == Health::Healthy;
            }
            "transient-faults" => {
                // Every transient burst fits the retry budget: no
                // quarantine, still healthy, retries visible.
                clean &= p.quarantined == 0 && p.health == Health::Healthy;
            }
            _ => {
                clean &= p.quarantined > 0
                    && matches!(p.health, Health::Degraded { .. } | Health::ReadOnly);
            }
        }
        t.row(vec![
            p.label.into(),
            fmt(p.ops_per_sec),
            p.io_retries.to_string(),
            p.absorbed.to_string(),
            p.quarantined.to_string(),
            format!("{:?}", p.health),
        ]);
    }
    t.print();
    println!(
        "degraded-mode check: {}",
        if clean { "CLEAN" } else { "FAIL" }
    );
    write_csv("degraded", &t.headers(), t.rows());
    (t, clean)
}
