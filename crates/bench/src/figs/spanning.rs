//! Spanning-mix figure — the cost of cross-shard atomicity.
//!
//! Drives a 4-shard pool through a fixed transaction budget while the
//! fraction of transactions that **span every shard** (and therefore run
//! the two-phase spanning protocol: intent publish → per-shard fragment
//! prepares → resolve → window retirement) sweeps 0 % → 50 %. The 0 %
//! point is the plain sharded fast path — its cost is gated by
//! `perfgate` so the spanning machinery can never tax single-shard
//! commits — and the spread to the 50 % point prices the protocol.
//!
//! Every point runs on traced devices and must pass the persist-order
//! audit per shard **and** on the merged pool-wide trace (the intent
//! record's publish/resolve/retire stores are commit points like any
//! other). The run also embeds the spanning crash smoke: a frontier
//! enumeration and a short random-trip fuzz sweep, both of which must
//! report zero torn transactions.
//!
//! Output: the standard CSV/JSON pair under `EXPERIMENTS-results/`, plus
//! `BENCH_7.json` at the repo root with a flat `gate` object for
//! `perfgate`.

use std::fs;

use blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use crashsim::{CampaignReport, FrontierReport};
use nvmsim::{merge_shard_traces, shard_devices, Nvm, NvmConfig, NvmTech, SimClock};
use persistcheck::{CheckConfig, Checker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::Json;
use tinca::{PoolConfig, TincaConfig, TincaPool};

use crate::table::Table;
use crate::{banner, fmt, results_dir, write_csv};

const SHARDS: usize = 4;
/// Spanning percentages swept by the figure.
pub const FRACS: [u32; 4] = [0, 10, 25, 50];

/// One measured mix point.
pub struct MixPoint {
    pub frac_pct: u32,
    pub txns: u64,
    pub spanning_txns: u64,
    pub ns_per_txn: f64,
    pub violations: usize,
}

/// Everything the figure produced (for the bin's acceptance checks).
pub struct SpanningResult {
    pub table: Table,
    pub points: Vec<MixPoint>,
    /// Fast-path cost at 0 % spanning — the perfgate anchor.
    pub single_shard_ns_per_txn: f64,
    /// Cost at the 50 % mix.
    pub spanning50_ns_per_txn: f64,
    /// `spanning50 / single_shard`: what the two-phase protocol prices in.
    pub overhead_x: f64,
    pub persist_clean: bool,
    pub frontier: FrontierReport,
    pub fuzz: CampaignReport,
}

fn build_pool(quick: bool) -> (TincaPool, Vec<Nvm>) {
    let per_shard = if quick { 2 << 20 } else { 4 << 20 };
    let devices = shard_devices(
        &NvmConfig::new(SHARDS * per_shard, NvmTech::Pcm).with_tracing(),
        SHARDS,
    );
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
    let pool = TincaPool::format(
        devices.clone(),
        disk,
        PoolConfig {
            shards: SHARDS,
            cache: TincaConfig {
                ring_bytes: 16 << 10,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        },
    );
    (pool, devices)
}

/// Runs one mix point: `txns` four-block transactions, `frac_pct` of
/// which touch all four shards (one block each); the rest land all four
/// blocks on one round-robin home shard. Deterministic per seed, so the
/// gated costs are replay-stable.
fn run_point(quick: bool, frac_pct: u32) -> MixPoint {
    let (pool, devices) = build_pool(quick);
    let txns: u64 = if quick { 400 } else { 2_000 };
    let bases: u64 = if quick { 128 } else { 256 };
    let mut rng = StdRng::seed_from_u64(0x5BA6 ^ u64::from(frac_pct));
    let starts: Vec<u64> = devices.iter().map(|d| d.clock().now_ns()).collect();

    let mut buf = [0u8; BLOCK_SIZE];
    for i in 0..txns {
        let base = rng.gen_range(0..bases);
        let v = rng.gen_range(1..=255u8);
        buf[0] = v;
        let mut t = pool.init_txn();
        if rng.gen_range(0..100) < frac_pct {
            // One block on every shard: block `base*SHARDS + s` homes on `s`.
            for s in 0..SHARDS as u64 {
                t.write(base * SHARDS as u64 + s, &buf);
            }
        } else {
            // Four blocks, all ≡ `i % SHARDS` (mod SHARDS): one fragment.
            let home = i % SHARDS as u64;
            for k in 0..SHARDS as u64 {
                t.write(((base + k) % bases) * SHARDS as u64 + home, &buf);
            }
        }
        pool.commit(t).expect("spanning bench commit");
    }
    // Pool wall-clock is the maximum over per-shard clocks.
    let elapsed = devices
        .iter()
        .zip(&starts)
        .map(|(d, s)| d.clock().now_ns() - s)
        .max()
        .unwrap_or(0);
    let spanning_txns = pool.stats().spanning_commits;

    // Persist-order audit: each shard alone, then the merged pool trace.
    let mut violations = 0usize;
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    let ranges: Vec<_> = (0..SHARDS).map(|s| pool.shard_metadata_ranges(s)).collect();
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(ranges[s].clone()));
        checker.push_all(trace);
        let r = checker.report();
        if !r.is_clean() {
            violations += r.violations.len();
            eprintln!("--- shard {s} at {frac_pct}% spanning ---\n{r}");
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
        eprintln!("--- merged trace at {frac_pct}% spanning ---\n{r}");
    }

    MixPoint {
        frac_pct,
        txns,
        spanning_txns,
        ns_per_txn: elapsed as f64 / txns as f64,
        violations,
    }
}

/// Runs the figure: the spanning-fraction sweep, the embedded crash
/// smoke (frontier enumeration + random-trip fuzz), and writes CSV +
/// `BENCH_7.json`.
pub fn run(quick: bool) -> SpanningResult {
    banner(
        "spanning",
        "Cross-shard transaction mix: two-phase spanning commit cost vs fraction",
        "0% point at fast-path cost (gated); zero torn txns under frontier + fuzz",
    );

    let mut t = Table::new(&[
        "spanning %",
        "txns",
        "spanning txns",
        "ns/txn",
        "ktxn/s",
        "persist violations",
    ]);
    let mut points = Vec::with_capacity(FRACS.len());
    let mut persist_clean = true;
    for &frac in &FRACS {
        let p = run_point(quick, frac);
        persist_clean &= p.violations == 0;
        t.row(vec![
            format!("{frac}"),
            format!("{}", p.txns),
            format!("{}", p.spanning_txns),
            fmt(p.ns_per_txn),
            fmt(1e6 / p.ns_per_txn),
            format!("{}", p.violations),
        ]);
        points.push(p);
    }
    t.print();
    write_csv("spanning", &t.headers(), t.rows());

    let single_shard_ns_per_txn = points[0].ns_per_txn;
    let spanning50_ns_per_txn = points[points.len() - 1].ns_per_txn;
    let overhead_x = spanning50_ns_per_txn / single_shard_ns_per_txn.max(f64::MIN_POSITIVE);
    println!(
        "fast path {:.0} ns/txn, 50% mix {:.0} ns/txn ({:.2}x); persistcheck {}",
        single_shard_ns_per_txn,
        spanning50_ns_per_txn,
        overhead_x,
        if persist_clean { "CLEAN" } else { "FAIL" }
    );

    // Embedded crash smoke: enumerate frontiers of a spanning workload
    // and sweep random trips; both must see zero torn transactions.
    let frontier =
        crashsim::spanning_frontier_campaign(2, 0x57A6, if quick { 1 } else { 2 }, 4, false);
    println!("frontier: {frontier}");
    for v in &frontier.violations {
        eprintln!("  violation: {v}");
    }
    let fuzz = crashsim::pool_fuzz_campaign(SHARDS, 0x57A7, if quick { 20 } else { 60 }, 40, false);
    println!(
        "fuzz: {} runs, {} crashes, {} violations",
        fuzz.runs,
        fuzz.crashes,
        fuzz.violations.len()
    );
    for v in &fuzz.violations {
        eprintln!("  violation: {v}");
    }

    // BENCH_7.json — machine-readable summary at the repo root. The flat
    // `gate` counters are what `perfgate` diffs in CI: the 0% point is
    // the single-shard fast path and must not drift.
    let gate = Json::obj(vec![
        ("single_shard_ns_per_txn", single_shard_ns_per_txn.into()),
        ("spanning50_ns_per_txn", spanning50_ns_per_txn.into()),
        ("spanning_overhead_x", overhead_x.into()),
    ]);
    let frontier_json = Json::obj(vec![
        ("epochs", frontier.epochs_total.into()),
        ("states", frontier.states_run.into()),
        ("violations", (frontier.violations.len() as u64).into()),
    ]);
    let fuzz_json = Json::obj(vec![
        ("runs", fuzz.runs.into()),
        ("crashes", fuzz.crashes.into()),
        ("violations", (fuzz.violations.len() as u64).into()),
    ]);
    let figure = Json::obj(vec![
        ("figure", "spanning".into()),
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
        ("bench", "spanning".into()),
        ("quick", quick.into()),
        ("shards", (SHARDS as u64).into()),
        ("persistcheck_clean", persist_clean.into()),
        ("gate", gate),
        ("frontier_campaign", frontier_json),
        ("fuzz_campaign", fuzz_json),
        ("spanning", figure),
    ]);
    let dir = results_dir();
    let root = dir.parent().expect("results dir sits in the repo root");
    let path = root.join("BENCH_7.json");
    fs::write(&path, bench.render()).expect("write BENCH_7.json");
    eprintln!("  [bench] {}", path.display());

    SpanningResult {
        table: t,
        points,
        single_shard_ns_per_txn,
        spanning50_ns_per_txn,
        overhead_x,
        persist_clean,
        frontier,
        fuzz,
    }
}
