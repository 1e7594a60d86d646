// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! The crate's public surface has a budget. [`tinca::TincaPool`] is the
//! one entry point; everything the rest of the workspace does not name
//! stays `pub(crate)`. This counts the declarations that start a line
//! with a bare `pub` under `src/` and fails when the count grows.

use std::fs;
use std::path::Path;

/// Line-start `pub` declarations allowed under `src/`.
const BUDGET: usize = 64;

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

#[test]
fn core_public_surface_stays_within_budget() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut found = Vec::new();
    for entry in fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            for decl in pub_declarations(&fs::read_to_string(&path).unwrap()) {
                found.push(format!("{name}: {decl}"));
            }
        }
    }
    found.sort();
    assert!(
        found.len() <= BUDGET,
        "{} line-start `pub` declarations under crates/core/src, budget {BUDGET}. \
         Make the new item `pub(crate)` if nothing outside the crate names it, \
         or delete it if nothing names it at all.\n{}",
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
