//! Crash-torture: the paper's §5.1 recoverability experiment as a
//! repeatable campaign. Runs seeded workloads against the Tinca stack,
//! cuts the power at random persistence events, resolves the volatile
//! write-back state adversarially, recovers, and verifies the file-system
//! state against an oracle — hundreds of times.
//!
//! ```text
//! cargo run --release --example crash_torture [runs]
//! ```

use tinca_repro::crashsim::{fuzz_system, CampaignReport};
use tinca_repro::fssim::stack::System;

fn main() {
    let runs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    println!("crash-torture: {runs} runs per system\n");
    for (system, seed) in [(System::Tinca, 9_000u64), (System::Classic, 19_000)] {
        let report: CampaignReport = fuzz_system(system, seed, runs, 80);
        println!(
            "{:<22} runs={} completed={} crashes={} violations={}",
            system.name(),
            report.runs,
            report.completed,
            report.crashes,
            report.violations.len()
        );
        for v in &report.violations {
            println!("  !! {v}");
        }
        assert!(
            report.clean(),
            "{} lost crash consistency — see violations above",
            system.name()
        );
    }
    println!("\nNo consistency violation in any run — matching the paper's");
    println!("observation that \"crash consistency of the system is never impaired\".");
}
