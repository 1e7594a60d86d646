//! TeraGen on the HDFS-like cluster (Fig. 9/10 of the paper): four data
//! nodes, each a full NVM-cache storage stack with its own simulated
//! clock, with pipelined replication — comparing Tinca and Classic node
//! stacks.
//!
//! ```text
//! cargo run --release --example cluster_teragen [replicas] [MiB]
//! ```

use tinca_repro::cluster::HdfsCluster;
use tinca_repro::fssim::stack::{StackConfig, System};

fn main() {
    let replicas: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let mib: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);

    println!("TeraGen {mib} MiB on 4 data nodes, {replicas} replica(s)\n");
    let mut times = Vec::new();
    for sys in [System::Classic, System::Tinca] {
        let mut cfg = StackConfig::scaled_local(sys);
        cfg.nvm_bytes = 8 << 20;
        let mut cluster = HdfsCluster::new(4, replicas, &cfg, 2 << 20);
        cluster.run_teragen(mib << 20, 16 << 10);
        let report = cluster.finish();
        times.push(report.exec_seconds());
        println!(
            "{:<10} exec {:>7.3}s  clflush/MB {:>8.0}  disk-writes/MB {:>7.1}  rows {:>9}",
            sys.name(),
            report.exec_seconds(),
            report.clflush_per_mb(),
            report.disk_writes_per_mb(),
            report.client_ops,
        );
        for n in &report.nodes {
            println!(
                "    node {}: {:>7.3}s  {:>9} clflush  {:>7} disk writes  {} chunks",
                n.node_id,
                n.sim_ns as f64 / 1e9,
                n.nvm.clflush,
                n.disk.writes,
                n.files
            );
        }
    }
    println!(
        "\nTinca saves {:.1}% of the execution time at {replicas} replicas",
        (1.0 - times[1] / times[0]) * 100.0
    );
}
