//! Figure 7 — Fio micro-benchmark, Classic vs Tinca (§5.2.1).

use fssim::stack::System;

use crate::figs::{local_cfg, run_fio};
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Fio at R/W 3/7, 5/5, 7/3: write IOPS (a), clflush per write op (b),
/// disk blocks written per write op (c). Paper: Tinca 2.5×/2.1×/1.7×
/// IOPS, ≈ 73–76 % fewer clflush, ≈ 60–65 % fewer disk writes.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 7",
        "Fio R/W mixes: write IOPS, clflush/op, disk writes/op",
        "Tinca 2.5x/2.1x/1.7x IOPS; -73..76% clflush; -60..65% disk writes",
    );
    let ops: u64 = if quick { 6_000 } else { 30_000 };
    let mut t = Table::new(&[
        "R/W",
        "System",
        "write IOPS",
        "clflush/op",
        "disk wr/op",
        "IOPS ratio",
    ]);
    for read_pct in [30u32, 50, 70] {
        let mut iops = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let r = run_fio(&local_cfg(sys, quick), read_pct, ops, 0x07);
            iops.push(r.ops_per_sec());
            let ratio = if iops.len() == 2 {
                format!("{:.2}x", iops[1] / iops[0])
            } else {
                String::new()
            };
            t.row(vec![
                format!("{}/{}", read_pct / 10, 10 - read_pct / 10),
                sys.name().into(),
                fmt(r.ops_per_sec()),
                fmt(r.clflush_per_op()),
                fmt(r.disk_writes_per_op()),
                ratio,
            ]);
        }
    }
    t.print();
    write_csv("fig7", &t.headers(), t.rows());
    Vec::new()
}
