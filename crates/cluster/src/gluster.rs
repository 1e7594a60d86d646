//! GlusterFS-like distributed file system (§5.3.2): files are distributed
//! by name hash to replica groups; the client mirrors writes to every
//! replica of the group (AFR-style client-side replication).

use blockdev::BLOCK_SIZE;
use fssim::stack::StackConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::node::Node;
use crate::{ClusterReport, NetModel};
use workloads::rand_util::Zipf;

/// A GlusterFS-like cluster: N nodes in groups of `replicas`; file
/// placement by name hash (Gluster's elastic hash), client-side mirroring.
pub struct GlusterCluster {
    nodes: Vec<Node>,
    replicas: usize,
    groups: usize,
}

impl GlusterCluster {
    /// GlusterFS per-operation software overhead (FUSE crossing, RPC,
    /// AFR replication bookkeeping).
    pub const OP_OVERHEAD_NS: u64 = 250_000;

    pub fn new(n_nodes: usize, replicas: usize, cfg: &StackConfig) -> Self {
        assert!(
            replicas >= 1 && n_nodes.is_multiple_of(replicas),
            "nodes must divide into replica groups"
        );
        let net = NetModel::ten_gbe();
        let nodes = (0..n_nodes)
            .map(|i| Node::new(i, cfg, net, Self::OP_OVERHEAD_NS))
            .collect();
        GlusterCluster {
            nodes,
            replicas,
            groups: n_nodes / replicas,
        }
    }

    /// The replica group (node indices) a file hashes to.
    fn group_of(&self, name: &str) -> Vec<usize> {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let g = (h % self.groups as u64) as usize;
        (0..self.replicas).map(|k| g * self.replicas + k).collect()
    }

    fn create(&mut self, name: &str) {
        for ni in self.group_of(name) {
            self.nodes[ni].create(name);
        }
    }

    fn write(&mut self, name: &str, offset: u64, data: &[u8]) {
        for ni in self.group_of(name) {
            self.nodes[ni].write(name, offset, data);
        }
    }

    /// Reads go to the group primary only.
    fn read(&mut self, name: &str, offset: u64, len: usize) -> Vec<u8> {
        let primary = self.group_of(name)[0];
        self.nodes[primary].read(name, offset, len)
    }

    fn delete(&mut self, name: &str) {
        for ni in self.group_of(name) {
            self.nodes[ni].delete(name);
        }
    }

    fn fsync_group(&mut self, name: &str) {
        for ni in self.group_of(name) {
            self.nodes[ni].fsync();
        }
    }

    /// Re-baselines every node (end of the setup phase).
    pub fn mark_all(&mut self) {
        for n in &mut self.nodes {
            n.mark();
        }
    }

    /// Power-fails node `node`; it reboots through recovery.
    pub fn crash_node(&mut self, node: usize, seed: u64) {
        self.nodes[node].crash(seed);
    }

    fn finish(self, label: String, client_ops: u64, client_bytes: u64) -> ClusterReport {
        ClusterReport {
            label,
            nodes: self.nodes.into_iter().map(Node::finish).collect(),
            client_ops,
            client_bytes,
            client_floor_ns: 0,
        }
    }
}

/// Filebench driven against a [`GlusterCluster`] (Fig. 11): the same
/// personalities and ratios as `workloads::filebench`, with every write
/// mirrored to the file's replica group.
pub struct GlusterFilebench {
    pub personality: workloads::filebench::Personality,
    pub nfiles: usize,
    pub file_bytes: u64,
    pub io_bytes: usize,
    pub ops: u64,
    pub seed: u64,
}

impl GlusterFilebench {
    /// Runs setup + measured phase and returns the aggregate report.
    pub fn run(self, mut cluster: GlusterCluster) -> ClusterReport {
        use workloads::filebench::Personality;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.nfiles, 0.9);
        let name = |i: usize| format!("gfb-{i:05}");

        // Pool setup.
        let fill = vec![0x55u8; self.file_bytes as usize];
        for i in 0..self.nfiles {
            cluster.create(&name(i));
            cluster.write(&name(i), 0, &fill);
        }
        for i in 0..self.nfiles {
            cluster.fsync_group(&name(i));
        }
        cluster.mark_all(); // measurement starts after the pool is loaded

        let (rw_r, rw_w) = match self.personality {
            Personality::Fileserver => (1u32, 2u32),
            Personality::Webproxy => (5, 1),
            Personality::Varmail => (1, 1),
        };
        let max_off = self.file_bytes.saturating_sub(self.io_bytes as u64).max(1);
        let wbuf = vec![0x66u8; self.io_bytes];
        let mut bytes = 0u64;
        let mut deleted: Vec<usize> = Vec::new();
        for _ in 0..self.ops {
            let i = zipf.sample(&mut rng);
            let f = name(i);
            // Pool churn (create/delete flowlets), as in local Filebench —
            // the read-mostly proxy keeps a stable pool.
            if self.personality != Personality::Webproxy && rng.gen_range(0..100) < 4 {
                if let Some(pos) = deleted.iter().position(|&d| d == i) {
                    deleted.swap_remove(pos);
                    cluster.create(&f);
                } else {
                    deleted.push(i);
                    cluster.delete(&f);
                }
                continue;
            }
            if deleted.contains(&i) {
                continue; // deleted and not yet recreated
            }
            let off = rng.gen_range(0..max_off) / BLOCK_SIZE as u64 * BLOCK_SIZE as u64;
            if rng.gen_range(0..rw_r + rw_w) < rw_r {
                cluster.read(&f, off, self.io_bytes);
            } else {
                cluster.write(&f, off, &wbuf);
                bytes += self.io_bytes as u64;
                if self.personality == Personality::Varmail {
                    cluster.fsync_group(&f);
                }
            }
        }
        let label = format!("gluster {}", self.personality.name());
        cluster.finish(label, self.ops, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::System;
    use workloads::filebench::Personality;

    #[test]
    fn hash_placement_is_stable_and_grouped() {
        let cfg = StackConfig::tiny(System::Tinca);
        let c = GlusterCluster::new(4, 2, &cfg);
        let g1 = c.group_of("some-file");
        let g2 = c.group_of("some-file");
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 2);
        // Both members in the same group range.
        assert_eq!(g1[0] / 2, g1[1] / 2);
        let _ = c.finish("t".into(), 0, 0);
    }

    #[test]
    fn writes_are_mirrored_to_replicas() {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut c = GlusterCluster::new(4, 2, &cfg);
        c.create("mirrored");
        c.write("mirrored", 0, &[9u8; 8192]);
        c.fsync_group("mirrored");
        let group = c.group_of("mirrored");
        let report = c.finish("t".into(), 1, 8192);
        for ni in group {
            assert_eq!(report.nodes[ni].files, 1, "replica {ni} must hold the file");
            assert!(report.nodes[ni].fs.bytes_written >= 8192);
        }
    }

    #[test]
    fn replica_crash_preserves_mirrored_data() {
        let cfg = StackConfig::tiny(System::Tinca);
        let mut c = GlusterCluster::new(4, 2, &cfg);
        c.create("mail");
        c.write("mail", 0, &[3u8; 12_000]);
        c.fsync_group("mail");
        // Crash both replicas of the group (worst case), then read back.
        let group = c.group_of("mail");
        for &ni in &group {
            c.crash_node(ni, 99 + ni as u64);
        }
        let data = c.read("mail", 0, 12_000);
        assert!(
            data.iter().all(|&b| b == 3),
            "fsynced mirrored data lost in crash"
        );
        let _ = c.finish("t".into(), 1, 12_000);
    }

    #[test]
    fn filebench_runs_on_cluster() {
        let cfg = StackConfig::tiny(System::Classic);
        let cluster = GlusterCluster::new(4, 2, &cfg);
        let fb = GlusterFilebench {
            personality: Personality::Fileserver,
            nfiles: 16,
            file_bytes: 64 << 10,
            io_bytes: 16 << 10,
            ops: 100,
            seed: 11,
        };
        let report = fb.run(cluster);
        assert_eq!(report.client_ops, 100);
        assert!(report.ops_per_sec() > 0.0);
        assert!(report.total_clflush() > 0);
    }
}
