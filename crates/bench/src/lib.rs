//! # bench — the figure/table harnesses of the paper's evaluation (§5)
//!
//! Every table and figure of the evaluation has a module in [`figs`] whose
//! `run(quick)` regenerates its rows/series from the simulated stacks and
//! returns the acceptance checks it failed, and an entry in
//! [`figs::REGISTRY`]. One binary runs any of them through [`runner`]:
//! `cargo run --release -p bench -- <figure>… | all [--quick]` writes CSVs
//! under `EXPERIMENTS-results/`, gates each `BENCH_N.json` against the
//! one on disk, and exits non-zero if any check failed.
//!
//! `quick = true` shrinks datasets/op counts for CI-speed smoke runs; the
//! default sizes are the ÷256-scaled configuration of `DESIGN.md` §1 (a
//! 32 MB NVM cache against the paper's 8 GB; shape reproduction, not
//! absolute numbers).

pub mod figs;
pub mod runner;
pub mod table;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use telemetry::Json;

/// Directory where the figures leave machine-readable results.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("EXPERIMENTS-results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes one CSV file of results, plus its machine-readable JSON
/// companion (same name, `.json` extension — see [`write_json`]).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    eprintln!("  [csv] {}", path.display());
    write_json(name, headers, rows);
}

/// Writes the JSON companion of one result set (see [`table_json`]), so
/// downstream tooling never re-parses CSV.
pub fn write_json(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, table_json(name, headers, rows).render()).expect("write json");
    eprintln!("  [json] {}", path.display());
}

/// One result set as an object carrying the figure name, column headers,
/// and rows (cells as strings, exactly as the CSV renders them).
pub fn table_json(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Json {
    Json::obj(vec![
        ("figure", name.into()),
        (
            "headers",
            Json::Arr(headers.iter().map(|h| (*h).into()).collect()),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Path of a figure's machine-readable summary (`BENCH_N.json`) at the
/// repo root.
pub fn bench_path(file: &str) -> PathBuf {
    let dir = results_dir();
    dir.parent()
        .expect("results dir sits in the repo root")
        .join(file)
}

/// Writes a figure's machine-readable summary to [`bench_path`].
pub fn write_bench(file: &str, summary: &Json) {
    let path = bench_path(file);
    fs::write(&path, summary.render()).unwrap_or_else(|e| panic!("write {file}: {e}"));
    eprintln!("  [bench] {}", path.display());
}

/// A figure's verdict: the description of every check whose condition
/// does not hold.
pub fn checks(list: &[(bool, &str)]) -> Vec<String> {
    list.iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what.to_string())
        .collect()
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, paper_expectation: &str) {
    println!("==========================================================================");
    println!("{id}: {what}");
    println!("  paper: {paper_expectation}");
    println!("==========================================================================");
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}
