//! Regenerates the paper's evaluation, one registry entry at a time.
//!
//! ```text
//! cargo run --release -p bench -- all              # every table & figure, full size
//! cargo run --release -p bench -- fig7 fig8 --quick  # some of them, smoke-sized
//! ```
//!
//! Exits 1 if any figure failed an acceptance check or its gate, 2 on a
//! usage error.

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    match bench::runner::run(bench::figs::REGISTRY, &names, quick) {
        Ok(failed) => exit(i32::from(!failed.is_empty())),
        Err(usage) => {
            eprintln!("{usage}");
            exit(2);
        }
    }
}
