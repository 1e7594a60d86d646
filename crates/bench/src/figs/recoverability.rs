//! §5.1 recoverability — the power-pull experiment, mechanised as a crash
//! fuzz campaign.

use super::campaign;
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
    let mut t = Table::new(&["System", "runs", "mid-run crashes", "violations"]);
    let mut clean = true;
    for (label, entry) in [
        ("Tinca", "fs-tinca"),
        ("Classic", "fs-classic"),
        // The write-behind pipeline on a shrunken cache: crashes land
        // during background destage batches too.
        ("Tinca+destage", "fs-tinca-destage"),
    ] {
        let report = campaign(entry, quick);
        t.row(vec![
            label.to_string(),
            report.runs.to_string(),
            report.crashes.to_string(),
            report.violations.len().to_string(),
        ]);
        clean &= report.clean();
    }
    t.print();
    write_csv("recoverability", &t.headers(), t.rows());
    checks(&[(
        clean,
        "every crash-fuzz campaign must recover with zero violations",
    )])
}
