//! WAL-elimination figure — what the kvdb personality buys by making the
//! NVM cache the transaction mechanism.
//!
//! Drives the **same** seeded TPC-C record stream through both kvdb
//! durability personalities:
//!
//! * **WalMode** — ARIES-lite redo WAL on the classic
//!   Ext4+JBD2+Flashcache stack. Every committed page travels the
//!   "journaling of journal" route the paper's §2.2 diagnoses: app WAL
//!   append → FS data+journal → home-location writeback → checkpoint
//!   into the database file.
//! * **TincaMode** — no WAL anywhere: one Tinca pool transaction per KV
//!   commit, ring commit = durability point, multi-shard batches on the
//!   persistent two-phase spanning path.
//!
//! Reports simulated commit cost (ns/txn), total device bytes written
//! (NVM lines + disk blocks), and write amplification against the
//! page-image payload, with the commit-path phase tree for each mode.
//! Embeds both modes' crash smoke (random-trip fuzz + persist-frontier
//! enumeration, persistcheck audited inside each recovery) so the
//! headline claim — faster *and* fewer bytes *without* losing crash
//! consistency — is checked in one run: both personalities must commit
//! the same stream, the no-WAL one cheaper in time, device bytes and
//! write amplification, and every campaign must crash and recover clean.
//!
//! Output: the standard CSV/JSON pair under `EXPERIMENTS-results/`, plus
//! `BENCH_8.json` at the repo root with a flat `gate` object and the
//! run's host wall-clock (`wall_ms`: both modes and the crash smoke — the
//! other clock, informational).

use std::time::Instant;

use fssim::stack::{StackConfig, System};
use kvdb::{
    apply_txn, Db, KvTpccDriver, PageStore, TincaStore, TincaStoreConfig, WalConfig, WalStore,
};
use telemetry::Json;

use super::campaign;
use crate::table::Table;
use crate::{banner, checks, fmt, table_json, write_bench, write_csv};

/// TPC-C warehouses the figure's key stream draws from.
const WAREHOUSES: u32 = 4;
/// Seed shared by both modes — identical transaction streams.
const SEED: u64 = 0xE11A;

/// One measured durability personality.
pub struct ModePoint {
    pub mode: &'static str,
    pub txns: u64,
    pub commits: u64,
    pub ns_per_txn: f64,
    /// Total bytes that reached persistent media (NVM lines + disk blocks).
    pub device_bytes: u64,
    pub bytes_per_txn: f64,
    /// Device bytes over committed page-image bytes.
    pub amplification: f64,
    /// Device bytes over logical KV payload bytes (keys + values written).
    pub payload_amplification: f64,
    /// Rendered commit-path phase tree.
    pub phase_tree: String,
}

/// Runs `txns` driver transactions against `db`, timing with `clock_now`
/// (a closure so each personality supplies its own notion of elapsed
/// simulated time). Returns the point plus the phase report.
fn run_mode<S: PageStore>(
    mode: &'static str,
    db: &mut Db<S>,
    clock_now: &dyn Fn(&Db<S>) -> u64,
    telemetry_clock: &nvmsim::SimClock,
    txns: u64,
) -> ModePoint {
    let mut driver = KvTpccDriver::new(SEED, WAREHOUSES);
    let start_ns = clock_now(db);
    let start_stats = db.store().stats();
    let mut payload_bytes = 0u64;
    let ((), report) = telemetry::record(telemetry_clock, telemetry::Config::default(), || {
        for _ in 0..txns {
            let txn = driver.next_txn();
            payload_bytes += txn
                .writes
                .iter()
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum::<u64>();
            apply_txn(db, &txn).expect("wal_elim workload commit");
        }
    });
    let elapsed = clock_now(db).saturating_sub(start_ns);
    let stats = db.store().stats().delta(&start_stats);
    let device_bytes = stats.device_bytes();
    ModePoint {
        mode,
        txns,
        commits: stats.commits,
        ns_per_txn: elapsed as f64 / txns as f64,
        device_bytes,
        bytes_per_txn: device_bytes as f64 / txns as f64,
        amplification: stats.amplification(),
        payload_amplification: device_bytes as f64 / payload_bytes.max(1) as f64,
        phase_tree: report.phase_report(),
    }
}

fn run_wal(txns: u64) -> ModePoint {
    let store = WalStore::format(StackConfig::tiny(System::Classic), WalConfig::default())
        .expect("format WAL store");
    let mut db = Db::open(store).expect("open WAL db");
    let clock = db.store().stack().clock.clone();
    run_mode(
        "wal (classic)",
        &mut db,
        &|db| db.store().stack().clock.now_ns(),
        &clock,
        txns,
    )
}

fn run_tinca(txns: u64) -> ModePoint {
    let store = TincaStore::format(TincaStoreConfig::default());
    let mut db = Db::open(store).expect("open Tinca db");
    // Shard 0's clock times the phase tree: the meta page and every even
    // page home there, and it hosts the spanning intent record, so it
    // advances on most commits (the disk clock only moves on destage).
    let clock = db.store().devices()[0].clock().clone();
    // Shards advance their own clocks concurrently: elapsed pool time is
    // the maximum over the per-shard clocks and the shared disk clock.
    let now = |db: &Db<TincaStore>| -> u64 {
        db.store()
            .devices()
            .iter()
            .map(|d| d.clock().now_ns())
            .chain(std::iter::once(db.store().clock().now_ns()))
            .max()
            .unwrap_or(0)
    };
    run_mode("tinca (no WAL)", &mut db, &now, &clock, txns)
}

/// Runs the figure: both personalities over the identical transaction
/// stream, the embedded crash smoke for each, and writes CSV +
/// `BENCH_8.json`.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "wal_elim",
        "KV commit path with and without a WAL (same TPC-C stream, both personalities)",
        "no-WAL mode faster and fewer device bytes, with crash consistency intact",
    );
    let txns: u64 = if quick { 200 } else { 1_200 };
    let started = Instant::now();

    let wal = run_wal(txns);
    let tinca = run_tinca(txns);

    let mut t = Table::new(&[
        "mode",
        "txns",
        "ns/txn",
        "ktxn/s",
        "device MB",
        "bytes/txn",
        "x page payload",
        "x kv payload",
    ]);
    for p in [&wal, &tinca] {
        t.row(vec![
            p.mode.into(),
            format!("{}", p.txns),
            fmt(p.ns_per_txn),
            fmt(1e6 / p.ns_per_txn),
            fmt(p.device_bytes as f64 / (1 << 20) as f64),
            fmt(p.bytes_per_txn),
            fmt(p.amplification),
            fmt(p.payload_amplification),
        ]);
    }
    t.print();
    write_csv("wal_elim", &t.headers(), t.rows());

    // The WAL-elimination speedup and write saving.
    let speedup_x = wal.ns_per_txn / tinca.ns_per_txn.max(f64::MIN_POSITIVE);
    let bytes_ratio_x = wal.bytes_per_txn / tinca.bytes_per_txn.max(f64::MIN_POSITIVE);
    println!(
        "WAL {:.0} ns/txn vs no-WAL {:.0} ns/txn ({speedup_x:.2}x); \
         {:.0} vs {:.0} device bytes/txn ({bytes_ratio_x:.2}x)",
        wal.ns_per_txn, tinca.ns_per_txn, wal.bytes_per_txn, tinca.bytes_per_txn
    );
    for p in [&wal, &tinca] {
        println!("--- {} commit-path phases ---", p.mode);
        println!("{}", p.phase_tree);
    }

    // Embedded crash smoke: both personalities must survive random
    // mid-commit trips and exhaustive persist-frontier enumeration, with
    // the persist-order audit clean inside every recovery.
    let wal_fuzz = campaign("kv-wal-pull", quick);
    let tinca_fuzz = campaign("kv-tinca-pull", quick);
    let wal_frontier = campaign("kv-wal-frontier", quick);
    let tinca_frontier = campaign("kv-tinca-frontier", quick);

    // BENCH_8.json — machine-readable summary at the repo root. The
    // `gate` counters are what the runner diffs: the no-WAL personality's
    // cost and write volume must not drift; the WAL twins are context.
    let gate = Json::obj(vec![
        ("tinca_ns_per_txn", tinca.ns_per_txn.into()),
        ("tinca_bytes_per_txn", tinca.bytes_per_txn.into()),
        ("wal_ns_per_txn", wal.ns_per_txn.into()),
        ("wal_bytes_per_txn", wal.bytes_per_txn.into()),
        ("speedup_x", speedup_x.into()),
        ("bytes_ratio_x", bytes_ratio_x.into()),
    ]);
    let crashes = Json::obj(vec![
        ("wal_fuzz", wal_fuzz.json()),
        ("tinca_fuzz", tinca_fuzz.json()),
        ("wal_frontier", wal_frontier.json()),
        ("tinca_frontier", tinca_frontier.json()),
    ]);
    let persist_clean =
        wal_fuzz.clean() && tinca_fuzz.clean() && wal_frontier.clean() && tinca_frontier.clean();
    let bench = Json::obj(vec![
        ("bench", "wal_elim".into()),
        ("quick", quick.into()),
        ("txns", txns.into()),
        ("warehouses", u64::from(WAREHOUSES).into()),
        ("wall_ms", (started.elapsed().as_secs_f64() * 1e3).into()),
        ("persistcheck_clean", persist_clean.into()),
        ("gate", gate),
        ("crash_campaigns", crashes),
        ("wal_elim", table_json("wal_elim", &t.headers(), t.rows())),
    ]);
    write_bench("BENCH_8.json", &bench);

    // Read-only TPC-C transactions dirty no page, so store commits can be
    // fewer than driver transactions — but the two personalities replay
    // the same seeded stream and must agree exactly.
    checks(&[
        (
            wal.txns == tinca.txns && wal.commits == tinca.commits && wal.commits > 0,
            "both personalities must commit the same transaction stream",
        ),
        (
            speedup_x > 1.0,
            "eliminating the WAL must make commits cheaper, not dearer",
        ),
        (
            bytes_ratio_x > 1.0,
            "the WAL route must write more device bytes than the no-WAL route",
        ),
        (
            wal.payload_amplification > tinca.payload_amplification,
            "write amplification must drop when the journaling-of-journal route goes away",
        ),
        (
            wal_fuzz.clean() && wal_fuzz.crashes > 0,
            "WAL-mode fuzz must crash mid-commit and recover with zero violations",
        ),
        (
            tinca_fuzz.clean() && tinca_fuzz.crashes > 0,
            "no-WAL fuzz must crash mid-commit and recover with zero violations",
        ),
        (
            wal_frontier.clean() && wal_frontier.runs > 0,
            "WAL-mode frontier enumeration must run states with zero violations",
        ),
        (
            tinca_frontier.clean() && tinca_frontier.runs > 0,
            "no-WAL frontier enumeration must run states with zero violations",
        ),
    ])
}
