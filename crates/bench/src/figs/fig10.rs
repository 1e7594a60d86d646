//! Figure 10 — TeraGen on the HDFS-like cluster, 1–3 replicas (§5.3.1).

use cluster::HdfsCluster;
use fssim::stack::System;

use crate::figs::cluster_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Execution time (a), clflush per MB (b), disk blocks per MB (c) for
/// replicas 1, 2, 3 on four data nodes. Paper: Tinca 29 %/54 %/60 % less
/// time at 1/2/3 replicas — the gap widens with replication; ≈ 80 % fewer
/// clflush and ≈ 38 % fewer disk writes at 3 replicas.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 10",
        "TeraGen on HDFS (4 data nodes): time, clflush/MB, disk writes/MB vs replicas",
        "Tinca saves 29%/54%/60% time at r=1/2/3; gap widens with replication",
    );

    let mut t = Table::new(&[
        "Replicas",
        "System",
        "time (s)",
        "clflush/MB",
        "disk wr/MB",
        "time saved",
    ]);
    for replicas in [1usize, 2, 3] {
        let mut secs = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let cfg = cluster_cfg(sys, quick);
            // Per-node volume ≈ replicas × node cache: pressure (and with
            // it the double-write penalty) grows with the replica count,
            // which is what widens the gap in the paper.
            let total_bytes = cfg.nvm_bytes as u64 * 4;
            let mut cluster = HdfsCluster::new(4, replicas, &cfg, 2 << 20);
            cluster.run_teragen(total_bytes, 16 << 10);
            let report = cluster.finish();
            secs.push(report.exec_seconds());
            let saved = if secs.len() == 2 {
                format!("{:.1}%", (1.0 - secs[1] / secs[0]) * 100.0)
            } else {
                String::new()
            };
            t.row(vec![
                replicas.to_string(),
                sys.name().into(),
                fmt(report.exec_seconds()),
                fmt(report.clflush_per_mb()),
                fmt(report.disk_writes_per_mb()),
                saved,
            ]);
        }
    }
    t.print();
    write_csv("fig10", &t.headers(), t.rows());
    Vec::new()
}
