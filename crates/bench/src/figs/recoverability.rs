//! §5.1 recoverability — the power-pull experiment, mechanised as a crash
//! fuzz campaign.

use crashsim::engine::sweep;
use crashsim::{FailureMode, FsPlan};
use fssim::stack::System;

use crate::table::Table;
use crate::{banner, checks, write_csv};

/// Fuzzes both systems with crashes at random persistence events and
/// adversarial write-back resolution. Paper: "Each time Tinca can recover
/// and crash consistency of the system is never impaired." Every campaign
/// must come out violation-free.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Recoverability (§5.1)",
        "Crash-fuzz campaign: random power cuts + adversarial write-back resolution",
        "zero consistency violations for Tinca (and for Classic's JBD2 stack)",
    );
    let runs: u64 = if quick { 10 } else { 40 };
    let mut t = Table::new(&["System", "runs", "mid-run crashes", "violations"]);
    let mut clean = true;
    for (sys, seed, destage) in [
        (System::Tinca, 51_000u64, false),
        (System::Classic, 52_000, false),
        // The write-behind pipeline on a shrunken cache: crashes land
        // during background destage batches too.
        (System::Tinca, 53_000, true),
    ] {
        let plan = FsPlan {
            system: sys,
            steps: 60,
            mode: FailureMode::PowerPull,
            destage,
        };
        let report = sweep(&plan, seed..seed + runs);
        let label = if destage {
            format!("{}+destage", sys.name())
        } else {
            sys.name().to_string()
        };
        t.row(vec![
            label,
            report.runs.to_string(),
            report.crashes.to_string(),
            report.violations.len().to_string(),
        ]);
        for v in &report.violations {
            println!("  !! {v}");
        }
        clean &= report.clean();
    }
    t.print();
    write_csv("recoverability", &t.headers(), t.rows());
    checks(&[(
        clean,
        "every crash-fuzz campaign must recover with zero violations",
    )])
}
