//! Figure 4 — the cost of Flashcache's synchronous block-format cache
//! metadata updates (§3.2).

use fssim::stack::System;

use crate::figs::{local_cfg, run_fio};
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Fio random writes on four Classic variants: journaling × metadata
/// updates. Paper: waiving metadata updates improves throughput by
/// ≈ 45 % with journaling and ≈ 65 % without.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 4",
        "Impact of synchronously updating block-format cache metadata (Fio writes)",
        "no-metadata ≈ +45 % with journal, ≈ +65 % without journal",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let variants: [(&str, System); 4] = [
        ("journal + metadata", System::Classic),
        ("journal, no metadata", System::ClassicNoMeta),
        ("no journal + metadata", System::ClassicNoJournal),
        ("no journal, no metadata", System::ClassicNoJournalNoMeta),
    ];
    let mut t = Table::new(&["Configuration", "write IOPS", "vs metadata-on"]);
    let mut results: Vec<f64> = Vec::new();
    for (name, sys) in variants {
        let r = run_fio(&local_cfg(sys, quick), 0, ops, 0x04);
        results.push(r.ops_per_sec());
        let base = match results.len() {
            2 => Some(results[0]),
            4 => Some(results[2]),
            _ => None,
        };
        let rel = base
            .map(|b| format!("+{:.1}%", (r.ops_per_sec() / b - 1.0) * 100.0))
            .unwrap_or_else(|| "(base)".into());
        t.row(vec![name.into(), fmt(r.ops_per_sec()), rel]);
    }
    t.print();
    write_csv("fig4", &t.headers(), t.rows());
    Vec::new()
}
