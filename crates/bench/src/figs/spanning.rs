//! Spanning-mix figure — the cost of cross-shard atomicity.
//!
//! Drives a 4-shard pool through a fixed transaction budget while the
//! fraction of transactions that **span every shard** (and therefore run
//! the two-phase spanning protocol: intent publish → per-shard fragment
//! prepares → resolve → window retirement) sweeps 0 % → 50 %. The 0 %
//! point is the plain sharded fast path — its cost is gated by the
//! runner so the spanning machinery can never tax single-shard commits —
//! and the spread to the 50 % point prices the protocol, which must cost
//! something but stay under 8x.
//!
//! Every point runs on the crash engine's traced [`Rig`] and must pass
//! its persist-order audit per shard **and** on the merged pool-wide
//! trace (the intent record's publish/resolve/retire stores are commit
//! points like any other). The run also embeds the spanning crash smoke:
//! a frontier enumeration and a short random-trip fuzz sweep, both of
//! which must report zero torn transactions.
//!
//! Output: the standard CSV/JSON pair under `EXPERIMENTS-results/`, plus
//! `BENCH_7.json` at the repo root with a flat `gate` object.

use blockdev::BLOCK_SIZE;
use crashsim::engine::Rig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::Json;

use super::{campaign, sharded_pool, violations};
use crate::table::Table;
use crate::{banner, checks, fmt, table_json, write_bench, write_csv};

const SHARDS: usize = 4;
/// Spanning percentages swept by the figure.
pub const FRACS: [u32; 4] = [0, 10, 25, 50];

/// One measured mix point.
pub struct MixPoint {
    pub txns: u64,
    pub spanning_txns: u64,
    pub ns_per_txn: f64,
    pub violations: usize,
}

/// Runs one mix point: `txns` four-block transactions, `frac_pct` of
/// which touch all four shards (one block each); the rest land all four
/// blocks on one round-robin home shard. Deterministic per seed, so the
/// gated costs are replay-stable.
fn run_point(quick: bool, frac_pct: u32) -> MixPoint {
    let (rig, pool) = Rig::new(sharded_pool(SHARDS), if quick { 2 << 20 } else { 4 << 20 });
    let txns: u64 = if quick { 400 } else { 2_000 };
    let bases: u64 = if quick { 128 } else { 256 };
    let mut rng = StdRng::seed_from_u64(0x5BA6 ^ u64::from(frac_pct));
    let starts: Vec<u64> = rig.devices.iter().map(|d| d.clock().now_ns()).collect();

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
    let elapsed = rig
        .devices
        .iter()
        .zip(&starts)
        .map(|(d, s)| d.clock().now_ns() - s)
        .max()
        .unwrap_or(0);
    let spanning_txns = pool.stats().spanning_commits;

    // Persist-order audit: each shard alone, then the merged pool trace.
    let violations = violations(&rig.audit(), &format!("{frac_pct}% spanning"));

    MixPoint {
        txns,
        spanning_txns,
        ns_per_txn: elapsed as f64 / txns as f64,
        violations,
    }
}

/// Runs the figure: the spanning-fraction sweep, the embedded crash
/// smoke (frontier enumeration + random-trip fuzz), and writes CSV +
/// `BENCH_7.json`.
pub fn run(quick: bool) -> Vec<String> {
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
    let frontier = campaign("spanning-frontier", quick);
    let fuzz = campaign("pool-4", quick);

    // BENCH_7.json — machine-readable summary at the repo root. The
    // `gate` counters are what the runner diffs: the 0% point is the
    // single-shard fast path and must not drift.
    let gate = Json::obj(vec![
        ("single_shard_ns_per_txn", single_shard_ns_per_txn.into()),
        ("spanning50_ns_per_txn", spanning50_ns_per_txn.into()),
        ("spanning_overhead_x", overhead_x.into()),
    ]);
    let bench = Json::obj(vec![
        ("bench", "spanning".into()),
        ("quick", quick.into()),
        ("shards", (SHARDS as u64).into()),
        ("persistcheck_clean", persist_clean.into()),
        ("gate", gate),
        ("frontier_campaign", frontier.json()),
        ("fuzz_campaign", fuzz.json()),
        ("spanning", table_json("spanning", &t.headers(), t.rows())),
    ]);
    write_bench("BENCH_7.json", &bench);

    checks(&[
        (
            points[0].spanning_txns == 0,
            "the 0% point must run no spanning transaction at all",
        ),
        (
            points.iter().skip(1).all(|p| p.spanning_txns > 0),
            "every non-zero mix must actually run spanning transactions",
        ),
        (
            overhead_x > 1.0,
            "the two-phase protocol cannot be free: 50% mix must cost more than 0%",
        ),
        (
            overhead_x < 8.0,
            "spanning overhead out of hand (fast path regressed or protocol bloated?)",
        ),
        (
            persist_clean,
            "persist-order audit must be clean per shard and on the merged trace",
        ),
        (
            frontier.clean() && frontier.runs > 0,
            "frontier enumeration must run states and find zero torn spanning txns",
        ),
        (
            fuzz.clean() && fuzz.crashes > 0,
            "fuzz sweep must crash mid-commit and find zero torn spanning txns",
        ),
    ])
}
