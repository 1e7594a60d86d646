//! A storage node: one full stack the cluster client calls directly.
//!
//! Every node owns its own simulated clock, so the client calling its nodes
//! one after another charges each node exactly its own operations, in the
//! order they were issued to it.

use blockdev::{BlockDevice, DiskStats};
use fssim::stack::{build, remount, Stack, StackConfig};
use fssim::{CacheSnapshot, FsStats};
use nvmsim::NvmStats;

use crate::NetModel;

/// What a node reports when finished.
#[derive(Clone, Debug)]
pub struct NodeReport {
    pub node_id: usize,
    /// Simulated ns spent since the measurement baseline (post-setup).
    pub sim_ns: u64,
    pub nvm: NvmStats,
    pub disk: DiskStats,
    pub fs: FsStats,
    pub cache: CacheSnapshot,
    pub files: usize,
}

/// The counters a node's reports are measured from.
struct Baseline {
    sim_ns: u64,
    nvm: NvmStats,
    disk: DiskStats,
    fs: FsStats,
    cache: CacheSnapshot,
}

impl Baseline {
    fn take(stack: &Stack) -> Baseline {
        Baseline {
            sim_ns: stack.clock.now_ns(),
            nvm: stack.nvm.stats(),
            disk: stack.disk.stats(),
            fs: stack.fs.stats(),
            cache: stack.fs.backend().cache_snapshot(),
        }
    }
}

/// One data node: its stack, its link to the client and its measurement
/// window.
pub(crate) struct Node {
    id: usize,
    stack: Stack,
    net: NetModel,
    /// The distributed file system's per-operation software cost (RPC
    /// dispatch, FUSE crossings, replication coordination), charged on
    /// every data operation.
    op_overhead_ns: u64,
    base: Baseline,
    /// FS/cache counters die with the process at a node crash; the
    /// pre-crash deltas fold into these so reports stay cumulative.
    fs_acc: FsStats,
    cache_acc: CacheSnapshot,
}

impl Node {
    /// A node on a freshly formatted stack; the baseline is taken after
    /// formatting, so setup cost stays out of its report.
    pub(crate) fn new(id: usize, cfg: &StackConfig, net: NetModel, op_overhead_ns: u64) -> Node {
        let stack = build(cfg).expect("node stack");
        Node {
            id,
            base: Baseline::take(&stack),
            stack,
            net,
            op_overhead_ns,
            fs_acc: FsStats::default(),
            cache_acc: CacheSnapshot::default(),
        }
    }

    /// Charges one request carrying `bytes` over the network plus the
    /// per-operation overhead.
    fn receive(&self, bytes: u64) {
        self.stack
            .clock
            .advance(self.net.transfer_ns(bytes) + self.op_overhead_ns);
    }

    pub(crate) fn create(&mut self, name: &str) {
        self.receive(64);
        self.stack.fs.create(name).expect("create");
    }

    pub(crate) fn write(&mut self, name: &str, offset: u64, data: &[u8]) {
        self.receive(data.len() as u64);
        let ino = self.stack.fs.open(name).expect("open");
        self.stack.fs.write(ino, offset, data).expect("write");
    }

    pub(crate) fn append(&mut self, name: &str, data: &[u8]) {
        self.receive(data.len() as u64);
        let ino = self.stack.fs.open(name).expect("open");
        self.stack.fs.append(ino, data).expect("append");
    }

    /// Reads up to `len` bytes and charges sending them back.
    pub(crate) fn read(&mut self, name: &str, offset: u64, len: usize) -> Vec<u8> {
        self.stack.clock.advance(self.op_overhead_ns);
        let ino = self.stack.fs.open(name).expect("open");
        let mut buf = vec![0u8; len];
        let n = self.stack.fs.read(ino, offset, &mut buf).expect("read");
        buf.truncate(n);
        self.stack.clock.advance(self.net.transfer_ns(n as u64));
        buf
    }

    pub(crate) fn delete(&mut self, name: &str) {
        self.receive(64);
        self.stack.fs.delete(name).expect("delete");
    }

    pub(crate) fn fsync(&mut self) {
        self.stack.fs.fsync().expect("fsync");
    }

    /// Re-baselines the measurement window (after a setup phase, so the
    /// report covers only the measured phase).
    pub(crate) fn mark(&mut self) {
        self.stack.fs.fsync().expect("fsync at mark");
        self.base = Baseline::take(&self.stack);
    }

    /// Power-fails the node: DRAM state dies, the NVM resolves its
    /// volatile write-back state adversarially (seeded), and the node
    /// reboots through cache recovery and journal replay.
    pub(crate) fn crash(&mut self, seed: u64) {
        let stack = &self.stack;
        self.fs_acc = self.fs_acc.merge(&stack.fs.stats().delta(&self.base.fs));
        let cache = stack.fs.backend().cache_snapshot();
        self.cache_acc = self.cache_acc.merge(&cache.delta(&self.base.cache));
        let (nvm, disk, clock) = (stack.nvm.clone(), stack.disk.clone(), stack.clock.clone());
        nvm.crash(nvmsim::CrashPolicy::Random(seed));
        // Reboot penalty: detection + restart of the storage daemon.
        clock.advance(2_000_000_000);
        self.stack = remount(&stack.config, nvm, disk, clock).expect("node reboot");
        self.base.fs = self.stack.fs.stats();
        self.base.cache = self.stack.fs.backend().cache_snapshot();
    }

    /// Flushes and reports.
    pub(crate) fn finish(mut self) -> NodeReport {
        self.stack.fs.fsync().expect("final fsync");
        let stack = &self.stack;
        let mut report = NodeReport {
            node_id: self.id,
            sim_ns: stack.clock.now_ns() - self.base.sim_ns,
            nvm: stack.nvm.stats().delta(&self.base.nvm),
            disk: stack.disk.stats().delta(&self.base.disk),
            fs: self.fs_acc.merge(&stack.fs.stats().delta(&self.base.fs)),
            cache: self
                .cache_acc
                .merge(&stack.fs.backend().cache_snapshot().delta(&self.base.cache)),
            files: 0,
        };
        // Counted after the snapshot: after a reboot, counting reads the
        // rest of the name table, which is no part of the measured run.
        report.files = self.stack.fs.file_count().expect("file count");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::System;

    fn node(id: usize) -> Node {
        let cfg = StackConfig::tiny(System::Tinca);
        Node::new(id, &cfg, NetModel::ten_gbe(), 0)
    }

    #[test]
    fn node_round_trip() {
        let mut n = node(0);
        n.create("a");
        n.write("a", 0, &[7u8; 5000]);
        n.fsync();
        let data = n.read("a", 0, 5000);
        assert_eq!(data.len(), 5000);
        assert!(data.iter().all(|&b| b == 7));
        let report = n.finish();
        assert_eq!(report.files, 1);
        assert!(report.sim_ns > 0);
        assert!(report.nvm.clflush > 0);
    }

    #[test]
    fn node_survives_a_crash_reboot_cycle() {
        let mut n = node(2);
        n.create("durable");
        n.write("durable", 0, &[0xCD; 6000]);
        n.fsync();
        n.crash(1234);
        // Post-reboot, the fsynced file must read back intact, and the
        // node keeps serving.
        let data = n.read("durable", 0, 6000);
        assert!(
            data.iter().all(|&b| b == 0xCD),
            "data lost across node crash"
        );
        n.append("durable", &[1u8; 100]);
        let report = n.finish();
        assert_eq!(report.files, 1);
        assert!(
            report.sim_ns >= 2_000_000_000,
            "reboot penalty must show in time"
        );
    }

    #[test]
    fn network_cost_is_charged() {
        let mut n = node(1);
        n.create("big");
        n.write("big", 0, &vec![1u8; 1 << 20]);
        let report = n.finish();
        // At least the 1 MB transfer time (≈ 0.84 ms) must be present.
        assert!(report.sim_ns > 800_000, "sim_ns {}", report.sim_ns);
    }
}
