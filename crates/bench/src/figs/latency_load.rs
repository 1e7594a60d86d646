//! Latency-under-load figure — the knee curve the closed-loop figures
//! cannot show.
//!
//! Drives Tinca (sharded pool) and Classic+JBD2 (one stack per shard)
//! through the open-loop tier ([`workloads::openloop`]) over a shared
//! ladder of offered arrival rates, and reports delivered throughput and
//! arrival-to-completion p50/p99/p999 at each point. Below saturation
//! the two latency columns sit near service time; past it, queue wait
//! dominates and p999 rises superlinearly — the knee. Because Tinca's
//! durable op (one ring commit) is far cheaper than Classic's (journaled
//! write + fsync), Tinca's knee sits at a strictly higher offered load.
//!
//! Output: the standard CSV/JSON pair under `EXPERIMENTS-results/`, plus
//! `BENCH_6.json` at the repo root with the `{figure,headers,rows}`
//! payload, a flat `gate` object for `perfgate` (knee throughput and
//! sub-knee p99, ±5 %), and the crash-mid-backlog campaign verdict.
//!
//! Every Tinca point runs on traced NVM devices and must pass the
//! per-shard persist-order audit — saturation (a standing backlog,
//! destage under pressure) must not bend the commit protocol.

use std::fs;

use blockdev::{DiskKind, SimDisk};
use crashsim::CampaignReport;
use nvmsim::{shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker};
use telemetry::Json;
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::openloop::{
    probe_capacity, Arrivals, ClassicServer, OpenLoopDriver, OpenLoopReport, OpenLoopSpec,
    TincaServer,
};

use crate::table::Table;
use crate::{banner, fmt, results_dir, write_csv};

/// A delivered:offered ratio at or above this is "keeping up"; the knee
/// is the largest ladder rate that still clears it.
pub const KNEE_DELIVERY: f64 = 0.99;

/// One measured (system, offered-rate) point.
pub struct LoadPoint {
    pub offered_rate: f64,
    pub report: OpenLoopReport,
    /// Persist-order violations (Tinca points only; 0 for Classic).
    pub violations: usize,
}

/// Everything the figure produced (for the bin's acceptance checks).
pub struct LatencyLoadResult {
    pub table: Table,
    pub tinca_knee: f64,
    pub classic_knee: f64,
    pub tinca_p99_subknee: f64,
    pub classic_p99_subknee: f64,
    /// Tinca p999 at the top of the ladder over p999 at the bottom —
    /// the "superlinear past saturation" acceptance signal.
    pub tinca_tail_ratio: f64,
    pub persist_clean: bool,
    pub campaign: CampaignReport,
}

const SHARDS: usize = 4;

fn base_spec(quick: bool, rate: f64) -> OpenLoopSpec {
    OpenLoopSpec {
        users: if quick { 100_000 } else { 1_000_000 },
        arrivals: Arrivals::Poisson {
            rate_ops_per_sec: rate,
        },
        ops: if quick { 1_200 } else { 6_000 },
        read_pct: 30,
        blocks: if quick { 2_048 } else { 8_192 },
        txn_blocks: 2,
        queue_cap: 0, // unbounded: let the backlog grow so the knee shows
        limiter: None,
        seed: 0x10AD,
    }
}

fn build_pool(quick: bool) -> (TincaPool, Vec<Nvm>, SimClock) {
    let per_shard = if quick { 2 << 20 } else { 4 << 20 };
    let devices = shard_devices(
        &NvmConfig::new(SHARDS * per_shard, NvmTech::Pcm).with_tracing(),
        SHARDS,
    );
    let disk_clock = SimClock::new();
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, disk_clock.clone());
    let pool = TincaPool::format(
        devices.clone(),
        disk,
        PoolConfig {
            shards: SHARDS,
            cache: TincaConfig {
                ring_bytes: 16 << 10,
                destage: true,
                coalesce_flushes: true,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        },
    );
    (pool, devices, disk_clock)
}

fn classic_server(quick: bool) -> ClassicServer {
    let mut cfg = fssim::stack::StackConfig::tiny(fssim::stack::System::Classic);
    cfg.nvm_bytes = if quick { 2 << 20 } else { 4 << 20 };
    ClassicServer::new(SHARDS, &cfg)
}

/// Runs one Tinca rate point on a fresh pool, auditing every shard's
/// persist-order trace.
fn tinca_point(quick: bool, rate: f64) -> LoadPoint {
    let (pool, devices, disk_clock) = build_pool(quick);
    let report =
        OpenLoopDriver::new(base_spec(quick, rate), TincaServer::new(&pool, disk_clock)).run();
    pool.flush_all().unwrap();
    let mut violations = 0usize;
    for (s, d) in devices.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(pool.shard_metadata_ranges(s)));
        checker.push_all(&d.take_trace());
        let r = checker.report();
        if !r.is_clean() {
            violations += r.violations.len();
            eprintln!("--- Tinca shard {s} at {rate:.0} ops/s ---\n{r}");
        }
    }
    LoadPoint {
        offered_rate: rate,
        report,
        violations,
    }
}

fn classic_point(quick: bool, rate: f64) -> LoadPoint {
    let server = classic_server(quick);
    let report = OpenLoopDriver::new(base_spec(quick, rate), server).run();
    LoadPoint {
        offered_rate: rate,
        report,
        violations: 0,
    }
}

/// The knee: largest ladder rate whose delivered throughput stays within
/// [`KNEE_DELIVERY`] of the configured offered rate (0 if even the
/// lowest rate collapses).
fn knee(points: &[LoadPoint]) -> f64 {
    points
        .iter()
        .filter(|p| p.report.delivered_ops_per_sec() >= KNEE_DELIVERY * p.offered_rate)
        .map(|p| p.offered_rate)
        .fold(0.0, f64::max)
}

/// Runs the figure: probes both systems' capacities, lays a shared
/// log-spaced rate ladder across them, measures every (system, rate)
/// point, runs the crash-mid-backlog campaign, and writes CSV +
/// `BENCH_6.json`.
pub fn run(quick: bool) -> LatencyLoadResult {
    banner(
        "latency_load",
        "Open-loop latency under offered load: Tinca vs Classic+JBD2 knee curve",
        "Tinca's knee at strictly higher offered load; p999 superlinear past saturation",
    );

    // Capacity probes on scratch servers (mutate clocks/caches, so the
    // measured points below use fresh builds).
    let probe_ops = if quick { 200 } else { 400 };
    let cap_tinca = {
        let (pool, _devices, disk_clock) = build_pool(quick);
        let mut server = TincaServer::new(&pool, disk_clock);
        probe_capacity(&mut server, &base_spec(quick, 1_000.0), probe_ops)
    };
    let cap_classic = {
        let mut server = classic_server(quick);
        probe_capacity(&mut server, &base_spec(quick, 1_000.0), probe_ops)
    };
    println!("probed capacity: Tinca {cap_tinca:.0} ops/s, Classic {cap_classic:.0} ops/s");

    // One absolute ladder covering well under the weaker system's knee
    // through well past the stronger one's.
    let lo = 0.3 * cap_tinca.min(cap_classic);
    let hi = 2.5 * cap_tinca.max(cap_classic);
    let n = if quick { 5 } else { 8 };
    let ladder: Vec<f64> = (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect();

    let mut t = Table::new(&[
        "system",
        "offered kops/s",
        "delivered kops/s",
        "p50 us",
        "p99 us",
        "p999 us",
        "qwait p99 us",
    ]);
    let mut tinca_points = Vec::with_capacity(n);
    let mut classic_points = Vec::with_capacity(n);
    let mut persist_clean = true;
    for &rate in &ladder {
        for system in ["Tinca", "Classic"] {
            let p = if system == "Tinca" {
                let p = tinca_point(quick, rate);
                persist_clean &= p.violations == 0;
                tinca_points.push(p);
                tinca_points.last().unwrap()
            } else {
                classic_points.push(classic_point(quick, rate));
                classic_points.last().unwrap()
            };
            let r = &p.report;
            let us = |v: Option<u64>| fmt(v.unwrap_or(0) as f64 / 1e3);
            t.row(vec![
                system.into(),
                fmt(rate / 1e3),
                fmt(r.delivered_ops_per_sec() / 1e3),
                us(r.p50()),
                us(r.p99()),
                us(r.p999()),
                us(r.queue_wait.p99()),
            ]);
        }
    }
    t.print();
    write_csv("latency_load", &t.headers(), t.rows());

    let tinca_knee = knee(&tinca_points);
    let classic_knee = knee(&classic_points);
    let p999_of = |p: &LoadPoint| p.report.p999().unwrap_or(0) as f64;
    let tinca_tail_ratio = p999_of(tinca_points.last().unwrap())
        / p999_of(tinca_points.first().unwrap()).max(f64::MIN_POSITIVE);
    let tinca_p99_subknee = tinca_points[0].report.p99().unwrap_or(0) as f64;
    let classic_p99_subknee = classic_points[0].report.p99().unwrap_or(0) as f64;
    println!(
        "knee: Tinca {:.0} ops/s vs Classic {:.0} ops/s ({:.2}x); \
         Tinca p999 tail ratio top/bottom of ladder: {:.1}x (persistcheck {})",
        tinca_knee,
        classic_knee,
        tinca_knee / classic_knee.max(f64::MIN_POSITIVE),
        tinca_tail_ratio,
        if persist_clean { "CLEAN" } else { "FAIL" }
    );

    // Crash mid-backlog: overload + bounded queue + power cut; recovery
    // must be exact and shed/queued ops must leave no trace.
    let campaign = crashsim::backlog_campaign(SHARDS, 0x6B10, if quick { 10 } else { 40 });
    println!(
        "crash-mid-backlog: {} runs, {} crashes, {} ops shed, {} violations",
        campaign.runs,
        campaign.crashes,
        campaign.shed,
        campaign.violations.len()
    );
    for v in &campaign.violations {
        eprintln!("  violation: {v}");
    }

    // BENCH_6.json — machine-readable summary at the repo root. The flat
    // `gate` counters are what `perfgate` diffs in CI (string-extraction
    // parsing: keep names stable, keep the object flat).
    let gate = Json::obj(vec![
        ("tinca_knee_ops_per_sec", tinca_knee.into()),
        ("tinca_p99_ns_subknee", tinca_p99_subknee.into()),
        ("classic_knee_ops_per_sec", classic_knee.into()),
        ("classic_p99_ns_subknee", classic_p99_subknee.into()),
    ]);
    let campaign_json = Json::obj(vec![
        ("runs", campaign.runs.into()),
        ("crashes", campaign.crashes.into()),
        ("shed", campaign.shed.into()),
        ("violations", (campaign.violations.len() as u64).into()),
    ]);
    let figure = Json::obj(vec![
        ("figure", "latency_load".into()),
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
        ("bench", "latency_load".into()),
        ("quick", quick.into()),
        ("shards", (SHARDS as u64).into()),
        ("knee_delivery", KNEE_DELIVERY.into()),
        ("probed_capacity_tinca", cap_tinca.into()),
        ("probed_capacity_classic", cap_classic.into()),
        ("tinca_tail_ratio", tinca_tail_ratio.into()),
        ("persistcheck_clean", persist_clean.into()),
        ("gate", gate),
        ("crash_campaign", campaign_json),
        ("latency_load", figure),
    ]);
    let dir = results_dir();
    let root = dir.parent().expect("results dir sits in the repo root");
    let path = root.join("BENCH_6.json");
    fs::write(&path, bench.render()).expect("write BENCH_6.json");
    eprintln!("  [bench] {}", path.display());

    LatencyLoadResult {
        table: t,
        tinca_knee,
        classic_knee,
        tinca_p99_subknee,
        classic_p99_subknee,
        tinca_tail_ratio,
        persist_clean,
        campaign,
    }
}
