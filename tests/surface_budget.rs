//! The workspace's public surface and its stringly-typed errors have
//! budgets, and this test fails when either grows.
//!
//! * **`pub` budgets.** Per crate, the declarations that start a line with
//!   a bare `pub` under `src/`. Whatever the rest of the workspace does
//!   not name stays `pub(crate)`.
//! * **`Result<…, String>`.** Non-test lines under `crates/*/src` that
//!   spell a `Result` whose error is a `String`. A line is non-test when
//!   it comes before its file's first `#[cfg(test)]`. The ones left are
//!   invariant-check verdicts (diagnostic text a crash harness copies into
//!   its findings), the open-loop `serve` hook and the figure runner.

use std::fs;
use std::path::{Path, PathBuf};

/// Line-start `pub` declarations allowed under each crate's `src/`.
const PUB_BUDGETS: [(&str, usize); 12] = [
    ("core", 69),
    ("fssim", 80),
    ("ubj", 31),
    ("classic", 61),
    ("cluster", 36),
    ("workloads", 125),
    ("telemetry", 106),
    ("nvmsim", 82),
    ("kvdb", 76),
    ("crashsim", 86),
    ("blockdev", 49),
    ("persistcheck", 19),
];

/// Non-test `Result<…, String>` lines allowed under `crates/*/src`.
const STRING_ERROR_BUDGET: usize = 11;

const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "const", "type", "trait", "mod", "use", "static",
];

/// The `pub <kind> …` lines of one source file (a field named `used` or
/// `module` is not a `use` or a `mod`).
fn pub_declarations(src: &str) -> Vec<String> {
    src.lines()
        .filter(|line| {
            line.trim_start().strip_prefix("pub ").is_some_and(|rest| {
                let word = rest
                    .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or("");
                KINDS.contains(&word)
            })
        })
        .map(|line| line.trim().to_string())
        .collect()
}

/// The lines before the file's first `#[cfg(test)]` that spell a `Result`
/// whose error type is `String`.
fn string_results(src: &str) -> Vec<String> {
    src.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(|line| {
            line.find("Result<")
                .is_some_and(|at| line[at..].contains(", String>"))
        })
        .map(|line| line.trim().to_string())
        .collect()
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// `found` applied to every source file of `crates/<name>/src`, each hit
/// prefixed with its path.
fn scan(crates: &Path, name: &str, found: fn(&str) -> Vec<String>) -> Vec<String> {
    let mut hits = Vec::new();
    for path in rust_files(&crates.join(name).join("src")) {
        let shown = path.strip_prefix(crates).unwrap().display().to_string();
        for line in found(&fs::read_to_string(&path).unwrap()) {
            hits.push(format!("{shown}: {line}"));
        }
    }
    hits
}

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")
}

#[test]
fn public_surfaces_stay_within_budget() {
    let crates = crates_dir();
    let mut over = Vec::new();
    for (name, budget) in PUB_BUDGETS {
        let found = scan(&crates, name, pub_declarations);
        if found.len() > budget {
            over.push(format!(
                "{name}: {} line-start `pub` declarations, budget {budget}\n{}",
                found.len(),
                found.join("\n")
            ));
        }
    }
    assert!(
        over.is_empty(),
        "Make a new item `pub(crate)` if nothing outside its crate names it, \
         or delete it if nothing names it at all.\n{}",
        over.join("\n\n")
    );
}

#[test]
fn string_errors_stay_within_budget() {
    let crates = crates_dir();
    let mut found = Vec::new();
    for entry in fs::read_dir(&crates).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if crates.join(&name).join("src").is_dir() {
            found.extend(scan(&crates, &name, string_results));
        }
    }
    found.sort();
    assert!(
        found.len() <= STRING_ERROR_BUDGET,
        "{} non-test `Result<…, String>` lines under crates/*/src, budget \
         {STRING_ERROR_BUDGET}. Give the new error a type.\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_count_skips_fields_and_restricted_items() {
    let src = "pub fn a() {}\n    pub(crate) fn b() {}\n    pub user_aborts: u64,\n    \
               pub modified: bool,\npub use x::Y;\n  pub struct S;\n";
    assert_eq!(
        pub_declarations(src),
        ["pub fn a() {}", "pub use x::Y;", "pub struct S;"]
    );
}

#[test]
fn string_results_stop_at_the_first_test_module() {
    let src = "fn a() -> Result<(), String> {}\nfn b() -> Result<u8, Error> {}\n\
               fn c() -> Result<Vec<String>, String> {}\n#[cfg(test)]\n\
               fn d() -> Result<(), String> {}\n";
    assert_eq!(
        string_results(src),
        [
            "fn a() -> Result<(), String> {}",
            "fn c() -> Result<Vec<String>, String> {}"
        ]
    );
}
