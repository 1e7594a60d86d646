//! Figure 11 — Filebench on the GlusterFS-like cluster (§5.3.2).

use cluster::{GlusterCluster, GlusterFilebench};
use fssim::stack::System;
use workloads::filebench::Personality;

use crate::figs::cluster_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// OPs/s (a), clflush per op (b), disk writes per op (c) for the three
/// personalities at replica count 2 on four nodes. Paper: Tinca 1.8×
/// (fileserver), 1.5× (varmail), +20 % (webproxy).
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 11",
        "Filebench on GlusterFS (4 nodes, replica 2): OPs/s, clflush/op, disk writes/op",
        "Tinca 1.8x fileserver, 1.5x varmail, +20% webproxy",
    );
    let ops: u64 = if quick { 500 } else { 4_000 };
    let mut t = Table::new(&[
        "Workload",
        "System",
        "OPs/s",
        "clflush/op",
        "disk wr/op",
        "ratio",
    ]);
    for p in [
        Personality::Fileserver,
        Personality::Webproxy,
        Personality::Varmail,
    ] {
        let mut ops_s = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let cfg = cluster_cfg(sys, quick);
            let cluster = GlusterCluster::new(4, 2, &cfg);
            let fb = GlusterFilebench {
                personality: p,
                // Per-node share (dataset / 2 at replica 2) ≈ 2× node cache.
                nfiles: cfg.nvm_bytes / (16 << 10),
                file_bytes: 64 << 10,
                io_bytes: 16 << 10,
                ops,
                seed: 0x11,
            };
            let report = fb.run(cluster);
            ops_s.push(report.ops_per_sec());
            let ratio = if ops_s.len() == 2 {
                format!("{:.2}x", ops_s[1] / ops_s[0])
            } else {
                String::new()
            };
            t.row(vec![
                p.name().into(),
                sys.name().into(),
                fmt(report.ops_per_sec()),
                fmt(report.clflush_per_op()),
                fmt(report.disk_writes_per_op()),
                ratio,
            ]);
        }
    }
    t.print();
    write_csv("fig11", &t.headers(), t.rows());
    Vec::new()
}
