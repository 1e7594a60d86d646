//! Performance-regression gate over the machine-readable bench
//! summaries (`BENCH_5.json` from `phases`, `BENCH_6.json` from
//! `latency_load`, `BENCH_7.json` from `spanning`, `BENCH_8.json` from
//! `wal_elim`).
//!
//! Compares the `gate` counters of a freshly generated summary against a
//! committed baseline and fails (exit 1) on a regression beyond the
//! tolerance. Gating is **direction-aware** — each counter declares
//! which way "worse" points:
//!
//! * `phases` (BENCH_5): `clflush_per_op` and `disk_busy_ns` are
//!   lower-is-better (flush coalescing and destage batching must keep
//!   paying); `commit_total_ns` / `sim_ns` are informational.
//! * `latency_load` (BENCH_6): `tinca_knee_ops_per_sec` is
//!   higher-is-better (the knee must not move down the load axis) and
//!   `tinca_p99_ns_subknee` is lower-is-better (sub-knee tail latency
//!   must not inflate); the `classic_*` twins are informational — the
//!   baseline system's drift is context, not our regression.
//! * `spanning` (BENCH_7): `single_shard_ns_per_txn` is lower-is-better
//!   — the 0 %-spanning point is the plain fast path, and the spanning
//!   machinery must never tax it — as is `spanning50_ns_per_txn`; the
//!   overhead ratio is informational.
//! * `wal_elim` (BENCH_8): `tinca_ns_per_txn` and
//!   `tinca_bytes_per_txn` are lower-is-better (the no-WAL personality
//!   is the one we own end to end); the `wal_*` twins and the two
//!   ratios are informational — the comparison baseline's drift is
//!   context, not our regression.
//!
//! A summary may also carry a top-level `wall_ms` — the host wall-clock
//! of the run that wrote it (today: `wal_elim`). It is printed as one
//! more informational row when both files have it; host time depends on
//! the machine, so it never gates.
//!
//! The two files must describe the same bench and the same mode
//! (`--quick` vs full); the gate refuses to compare across either.
//!
//! JSON is read by string extraction — the values are numbers written
//! by our own `telemetry::Json`, so no serialization dependency is
//! needed or wanted here. This requires the `gate` object to stay flat.
//!
//! Usage: `cargo run --release -p bench --bin perfgate -- <baseline.json> <new.json>`

use std::process::exit;

/// Maximum tolerated relative movement of a gated counter in its bad
/// direction.
const TOLERANCE: f64 = 0.05;

/// Which way "worse" points for one gated counter.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    /// Regression = counter grew (cost/latency counters).
    LowerIsBetter,
    /// Regression = counter shrank (throughput/capacity counters).
    HigherIsBetter,
    /// Reported for context, never fails the gate.
    Info,
}

/// The gate schema of each bench summary this tool understands.
fn counters(bench: &str) -> Vec<(&'static str, Direction)> {
    use Direction::*;
    match bench {
        "phases" => vec![
            ("clflush_per_op", LowerIsBetter),
            ("disk_busy_ns", LowerIsBetter),
            ("commit_total_ns", Info),
            ("sim_ns", Info),
        ],
        "latency_load" => vec![
            ("tinca_knee_ops_per_sec", HigherIsBetter),
            ("tinca_p99_ns_subknee", LowerIsBetter),
            ("classic_knee_ops_per_sec", Info),
            ("classic_p99_ns_subknee", Info),
        ],
        "spanning" => vec![
            ("single_shard_ns_per_txn", LowerIsBetter),
            ("spanning50_ns_per_txn", LowerIsBetter),
            ("spanning_overhead_x", Info),
        ],
        "wal_elim" => vec![
            ("tinca_ns_per_txn", LowerIsBetter),
            ("tinca_bytes_per_txn", LowerIsBetter),
            ("wal_ns_per_txn", Info),
            ("wal_bytes_per_txn", Info),
            ("speedup_x", Info),
            ("bytes_ratio_x", Info),
        ],
        "mw_scaling" => vec![
            ("mw_speedup_x_8w", HigherIsBetter),
            ("mw_ns_per_txn_1w", LowerIsBetter),
            ("mutex_ns_per_txn_8w", Info),
            ("mw_ns_per_txn_8w", Info),
        ],
        other => panic!("unknown bench {other:?} — teach perfgate its gate schema"),
    }
}

/// Extracts the flat `"gate":{...}` object body from a bench summary.
fn gate_body(text: &str, path: &str) -> String {
    let start = text
        .find("\"gate\":{")
        .unwrap_or_else(|| panic!("{path}: no \"gate\" object — not a BENCH_N.json?"));
    let body = &text[start + 8..];
    let end = body
        .find('}')
        .unwrap_or_else(|| panic!("{path}: unterminated gate object"));
    body[..end].to_string()
}

/// The raw value of `key` in a flat JSON object body, if it is there.
fn raw_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
}

/// Reads one numeric gate counter.
fn field(body: &str, key: &str, path: &str) -> f64 {
    raw_field(body, key)
        .unwrap_or_else(|| panic!("{path}: gate counter {key} missing"))
        .parse()
        .unwrap_or_else(|e| panic!("{path}: gate counter {key} not numeric: {e}"))
}

/// Reads the top-level `"wall_ms"` number, if the summary records one.
/// Only the scalars ahead of the first nested object are searched, so a
/// same-named key deeper in the file is never picked up.
fn wall_ms(text: &str) -> Option<f64> {
    let top = text.trim_start().strip_prefix('{')?;
    let scalars = &top[..top.find('{').unwrap_or(top.len())];
    raw_field(scalars, "wall_ms")?.parse().ok()
}

/// Reads the top-level `"bench"` name.
fn bench_name(text: &str, path: &str) -> String {
    let pat = "\"bench\":\"";
    let start = text
        .find(pat)
        .unwrap_or_else(|| panic!("{path}: no \"bench\" name"));
    let rest = &text[start + pat.len()..];
    let end = rest
        .find('"')
        .unwrap_or_else(|| panic!("{path}: unterminated bench name"));
    rest[..end].to_string()
}

/// Reads the top-level `"quick"` flag.
fn quick_flag(text: &str, path: &str) -> bool {
    if text.contains("\"quick\":true") {
        true
    } else if text.contains("\"quick\":false") {
        false
    } else {
        panic!("{path}: no \"quick\" flag")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, new_path] = args.as_slice() else {
        eprintln!("usage: perfgate <baseline BENCH_N.json> <new BENCH_N.json>");
        exit(2);
    };
    let read =
        |p: &String| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {p}: {e}"));
    let (old_text, new_text) = (read(baseline_path), read(new_path));
    let bench = bench_name(&old_text, baseline_path);
    assert_eq!(
        bench,
        bench_name(&new_text, new_path),
        "refusing to compare different benches"
    );
    assert_eq!(
        quick_flag(&old_text, baseline_path),
        quick_flag(&new_text, new_path),
        "refusing to compare a --quick run against a full run"
    );
    let (old_gate, new_gate) = (
        gate_body(&old_text, baseline_path),
        gate_body(&new_text, new_path),
    );

    let mut failed = false;
    println!("bench: {bench}");
    println!(
        "{:<24} {:>16} {:>16} {:>9}  verdict",
        "counter", "baseline", "new", "delta"
    );
    for (key, dir) in counters(&bench) {
        let old = field(&old_gate, key, baseline_path);
        let new = field(&new_gate, key, new_path);
        let delta = if old == 0.0 { 0.0 } else { (new - old) / old };
        let verdict = match dir {
            Direction::Info => "info",
            Direction::LowerIsBetter if delta > TOLERANCE => {
                failed = true;
                "FAIL"
            }
            Direction::HigherIsBetter if delta < -TOLERANCE => {
                failed = true;
                "FAIL"
            }
            _ => "ok",
        };
        println!(
            "{key:<24} {old:>16.2} {new:>16.2} {:>8.2}%  {verdict}",
            delta * 100.0
        );
    }
    if let (Some(old), Some(new)) = (wall_ms(&old_text), wall_ms(&new_text)) {
        println!(
            "{:<24} {old:>16.2} {new:>16.2} {:>8.2}%  info (host clock)",
            "wall_ms",
            (new - old) / old * 100.0
        );
    }
    if failed {
        eprintln!(
            "perf regression: a gated counter moved more than {:.0}% in its bad \
             direction (rerun the bench and commit the new BENCH_N.json only \
             if the regression is intended and explained)",
            TOLERANCE * 100.0
        );
        exit(1);
    }
    println!("perfgate: within {:.0}% of baseline", TOLERANCE * 100.0);
}
