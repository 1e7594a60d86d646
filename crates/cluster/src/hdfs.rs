//! HDFS-like chunked, replicated write path (§5.3.1): a name node picks a
//! replica pipeline per chunk; TeraGen streams rows into chunks.

use fssim::stack::StackConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::node::Node;
use crate::{ClusterReport, NetModel};

/// An HDFS-like cluster: a name node (chunk→pipeline placement) over N
/// data nodes.
pub struct HdfsCluster {
    nodes: Vec<Node>,
    replicas: usize,
    chunk_bytes: u64,
    rng: StdRng,
    /// Index of the next chunk to place.
    next_chunk: u64,
    /// Client bytes streamed so far.
    written: u64,
}

impl HdfsCluster {
    /// HDFS data-path software overhead per append (packet processing,
    /// checksum, pipeline acks).
    pub const OP_OVERHEAD_NS: u64 = 50_000;

    /// TeraGen's client-side row generation rate (single mapper JVM with
    /// CRC checksumming ≈ 80 MB/s). At low replica counts the *client* is
    /// the bottleneck, which is why the paper's Fig. 10 gap between the
    /// two storage stacks widens as replication multiplies storage work.
    pub const CLIENT_NS_PER_MB: u64 = 12_000_000;

    /// Builds `n_nodes` data nodes, each with a stack built from `cfg`.
    pub fn new(n_nodes: usize, replicas: usize, cfg: &StackConfig, chunk_bytes: u64) -> Self {
        assert!(replicas >= 1 && replicas <= n_nodes, "1 ≤ replicas ≤ nodes");
        let net = NetModel::ten_gbe();
        let nodes = (0..n_nodes)
            .map(|i| Node::new(i, cfg, net, Self::OP_OVERHEAD_NS))
            .collect();
        HdfsCluster {
            nodes,
            replicas,
            chunk_bytes,
            rng: StdRng::seed_from_u64(0x4DF5),
            next_chunk: 0,
            written: 0,
        }
    }

    /// The name node's placement of the next chunk: `replicas` distinct
    /// nodes, rotating so load spreads evenly (HDFS randomises; rotation
    /// keeps determinism).
    fn place(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let start = (self.next_chunk % n as u64) as usize;
        (0..self.replicas).map(|k| (start + k) % n).collect()
    }

    /// Power-fails data node `node` at this point in the stream; it
    /// reboots through recovery.
    pub fn crash_node(&mut self, node: usize, seed: u64) {
        self.nodes[node].crash(seed);
    }

    /// Streams `bytes` more of a TeraGen-style dataset (100 B rows,
    /// buffered into `write_bytes` appends), replicated `replicas`-way.
    /// The stream opens a fresh chunk and closes its last one.
    pub fn run_teragen(&mut self, bytes: u64, write_bytes: usize) {
        let end = self.written + bytes;
        let mut buf = vec![0u8; write_bytes];
        while self.written < end {
            // One chunk: place it, create the chunk file on each replica,
            // stream appends down the pipeline.
            let pipeline = self.place();
            let chunk_name = format!("chunk-{:06}", self.next_chunk);
            for &ni in &pipeline {
                self.nodes[ni].create(&chunk_name);
            }
            let mut in_chunk = 0u64;
            while in_chunk < self.chunk_bytes && self.written < end {
                self.rng.fill(&mut buf[..]);
                let n = (write_bytes as u64)
                    .min(self.chunk_bytes - in_chunk)
                    .min(end - self.written) as usize;
                for &ni in &pipeline {
                    self.nodes[ni].append(&chunk_name, &buf[..n]);
                }
                in_chunk += n as u64;
                self.written += n as u64;
            }
            // HDFS finalises (hflushes) the chunk on close.
            for &ni in &pipeline {
                self.nodes[ni].fsync();
            }
            self.next_chunk += 1;
        }
    }

    /// Finishes every node and returns the aggregate report.
    pub fn finish(self) -> ClusterReport {
        let written = self.written;
        ClusterReport {
            label: format!("teragen r={}", self.replicas),
            nodes: self.nodes.into_iter().map(Node::finish).collect(),
            client_ops: written / 100, // rows
            client_bytes: written,
            client_floor_ns: written / (1 << 20) * Self::CLIENT_NS_PER_MB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::System;

    fn teragen(replicas: usize, bytes: u64) -> ClusterReport {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut cluster = HdfsCluster::new(4, replicas, &cfg, 1 << 20);
        cluster.run_teragen(bytes, 16 << 10);
        cluster.finish()
    }

    #[test]
    fn replication_multiplies_node_traffic() {
        let r1 = teragen(1, 2 << 20);
        let r3 = teragen(3, 2 << 20);
        assert!(r1.exec_seconds() > 0.0);
        // 3 replicas ⇒ ~3× aggregate bytes ⇒ ~3× total flushes.
        let ratio = r3.total_clflush() as f64 / r1.total_clflush() as f64;
        assert!((2.0..4.5).contains(&ratio), "clflush ratio {ratio}");
        assert!(r3.exec_seconds() > r1.exec_seconds());
    }

    #[test]
    fn chunks_rotate_across_nodes() {
        let report = teragen(1, 4 << 20);
        // 4 chunks, one per node: every node holds exactly one file.
        for n in &report.nodes {
            assert_eq!(n.files, 1, "node {} files {}", n.node_id, n.files);
        }
    }

    #[test]
    fn cluster_tolerates_a_node_crash_mid_run() {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut cluster = HdfsCluster::new(4, 2, &cfg, 1 << 20);
        // Chunks 0 and 1 land on nodes {0,1} and {1,2}: node 1 holds two
        // closed chunks when it crashes, and chunks 2 and 3 follow.
        cluster.run_teragen(2 << 20, 16 << 10);
        cluster.crash_node(1, 42);
        cluster.run_teragen(2 << 20, 16 << 10);
        let report = cluster.finish();
        assert_eq!(report.client_bytes, 4 << 20);
        // Every node holds exactly its two chunks, node 1's pre-crash
        // chunks included.
        for n in &report.nodes {
            assert_eq!(n.files, 2, "node {} files {}", n.node_id, n.files);
        }
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn too_many_replicas_rejected() {
        let cfg = StackConfig::tiny(System::Tinca);
        let _ = HdfsCluster::new(2, 3, &cfg, 1 << 20);
    }
}
