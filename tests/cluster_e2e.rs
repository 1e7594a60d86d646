//! Workspace-level cluster tests: replicated stacks behave like the
//! paper's Fig. 9 deployment.

use tinca_repro::cluster::{ClusterReport, GlusterCluster, GlusterFilebench, HdfsCluster};
use tinca_repro::fssim::stack::{StackConfig, System};
use tinca_repro::workloads::filebench::Personality;

/// TeraGen of `bytes` on four data nodes in 1 MB chunks.
fn teragen(cfg: &StackConfig, replicas: usize, bytes: u64) -> ClusterReport {
    let mut cluster = HdfsCluster::new(4, replicas, cfg, 1 << 20);
    cluster.run_teragen(bytes, 16 << 10);
    cluster.finish()
}

#[test]
fn hdfs_replication_scales_cluster_work() {
    let cfg = StackConfig::tiny(System::Tinca);
    let one = teragen(&cfg, 1, 4 << 20);
    let three = teragen(&cfg, 3, 4 << 20);
    // Replication multiplies aggregate cache traffic ~3x.
    let ratio = three.total_clflush() as f64 / one.total_clflush() as f64;
    assert!((2.2..4.0).contains(&ratio), "clflush ratio {ratio}");
    // Every byte the client generated is accounted for.
    assert_eq!(one.client_bytes, 4 << 20);
    assert_eq!(one.client_ops, (4 << 20) / 100);
}

#[test]
fn tinca_cluster_beats_classic_cluster_on_teragen() {
    let mut times = Vec::new();
    for sys in [System::Classic, System::Tinca] {
        let cfg = StackConfig::tiny(sys);
        let report = teragen(&cfg, 2, 6 << 20);
        times.push(report.exec_seconds());
    }
    assert!(
        times[1] < times[0],
        "Tinca cluster ({}) should finish before Classic ({})",
        times[1],
        times[0]
    );
}

#[test]
fn gluster_filebench_runs_all_personalities() {
    for p in [
        Personality::Fileserver,
        Personality::Webproxy,
        Personality::Varmail,
    ] {
        let cfg = StackConfig::tiny(System::Tinca);
        let cluster = GlusterCluster::new(4, 2, &cfg);
        let report = GlusterFilebench {
            personality: p,
            nfiles: 32,
            file_bytes: 32 << 10,
            io_bytes: 16 << 10,
            ops: 120,
            seed: 0xC1,
        }
        .run(cluster);
        assert_eq!(report.client_ops, 120, "{}", p.name());
        assert!(report.ops_per_sec() > 0.0);
        // Replica-2 mirroring: writes land on exactly two nodes; all four
        // nodes hold some share of the hashed namespace.
        let nodes_with_files = report.nodes.iter().filter(|n| n.files > 0).count();
        assert_eq!(nodes_with_files, 4, "{}", p.name());
    }
}
