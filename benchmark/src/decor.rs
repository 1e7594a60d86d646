//! Decorators at the product's two existing seams, `blockdev::BlockDevice`
//! and `kvdb::PageStore`: they count and time the calls that cross the seam
//! and open a span around each, and change nothing that passes through.
//! Implementing the traits is the one place the benchmark must name the
//! product's error types.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use blockdev::{BatchReport, BlockDevice, DiskStats, IoError, IoLane};
use kvdb::{KvError, PageStore, StoreStats, TincaStore, PAGE_SIZE};
use nvmsim::SimClock;

use crate::spans;

/// Counters of a [`ProbedDisk`]. Plain relaxed atomics: they are
/// statistics, and `BlockDevice` must be `Sync`.
#[derive(Default)]
pub struct DiskProbe {
    pub calls: AtomicU64,
    pub host_ns: AtomicU64,
    pub batches: AtomicU64,
    pub batch_blocks: AtomicU64,
    pub fg_device_ns: AtomicU64,
    pub bg_blocks: AtomicU64,
}

/// A copy of the counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskProbeSnap {
    pub calls: u64,
    pub host_ns: u64,
    pub batches: u64,
    pub batch_blocks: u64,
    pub fg_device_ns: u64,
    pub bg_blocks: u64,
}

impl DiskProbe {
    pub fn snap(&self) -> DiskProbeSnap {
        DiskProbeSnap {
            calls: self.calls.load(Relaxed),
            host_ns: self.host_ns.load(Relaxed),
            batches: self.batches.load(Relaxed),
            batch_blocks: self.batch_blocks.load(Relaxed),
            fg_device_ns: self.fg_device_ns.load(Relaxed),
            bg_blocks: self.bg_blocks.load(Relaxed),
        }
    }
}

impl DiskProbeSnap {
    pub fn since(&self, e: &DiskProbeSnap) -> DiskProbeSnap {
        DiskProbeSnap {
            calls: self.calls - e.calls,
            host_ns: self.host_ns - e.host_ns,
            batches: self.batches - e.batches,
            batch_blocks: self.batch_blocks - e.batch_blocks,
            fg_device_ns: self.fg_device_ns - e.fg_device_ns,
            bg_blocks: self.bg_blocks - e.bg_blocks,
        }
    }
}

/// `BlockDevice` decorator placed under the pool.
pub struct ProbedDisk {
    inner: Arc<dyn BlockDevice>,
    probe: Arc<DiskProbe>,
}

impl ProbedDisk {
    pub fn wrap(inner: Arc<dyn BlockDevice>) -> (Arc<dyn BlockDevice>, Arc<DiskProbe>) {
        let probe = Arc::new(DiskProbe::default());
        let disk = Arc::new(ProbedDisk {
            inner,
            probe: probe.clone(),
        });
        (disk, probe)
    }

    fn single<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = spans::enter("blockdev", name);
        let busy0 = self.inner.stats().busy_ns;
        let t = Instant::now();
        let out = f();
        self.probe
            .host_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.probe.calls.fetch_add(1, Relaxed);
        // read_block / write_block are always on the critical path.
        self.probe
            .fg_device_ns
            .fetch_add(self.inner.stats().busy_ns - busy0, Relaxed);
        out
    }
}

impl BlockDevice for ProbedDisk {
    fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
        self.single("read_block", || self.inner.read_block(blk, buf))
    }

    fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
        self.single("write_block", || self.inner.write_block(blk, buf))
    }

    fn write_blocks(&self, reqs: &[(u64, &[u8])], lane: IoLane) -> BatchReport {
        let _s = spans::enter("blockdev", "write_blocks");
        let t = Instant::now();
        let report = self.inner.write_blocks(reqs, lane);
        let p = &self.probe;
        p.host_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        p.calls.fetch_add(1, Relaxed);
        p.batches.fetch_add(1, Relaxed);
        p.batch_blocks.fetch_add(reqs.len() as u64, Relaxed);
        if lane == IoLane::Background {
            p.bg_blocks.fetch_add(reqs.len() as u64, Relaxed);
        } else {
            p.fg_device_ns.fetch_add(report.device_ns, Relaxed);
        }
        report
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

/// Counters of a [`ProbedStore`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreProbe {
    pub reads: u64,
    pub commits: u64,
    pub pages: u64,
    pub commit_sim_ns: u64,
    pub host_ns: u64,
}

impl StoreProbe {
    pub fn since(&self, e: &StoreProbe) -> StoreProbe {
        StoreProbe {
            reads: self.reads - e.reads,
            commits: self.commits - e.commits,
            pages: self.pages - e.pages,
            commit_sim_ns: self.commit_sim_ns - e.commit_sim_ns,
            host_ns: self.host_ns - e.host_ns,
        }
    }
}

/// `PageStore` decorator between `Db` and its `TincaStore`.
pub struct ProbedStore {
    pub inner: TincaStore,
    /// Every simulated clock of the store: one per shard, then the disk's.
    pub clocks: Vec<SimClock>,
    pub probe: StoreProbe,
    /// Host timing costs two clock reads per call; only the instrumented
    /// passes pay for it.
    pub timed: bool,
}

impl ProbedStore {
    pub fn new(inner: TincaStore, timed: bool) -> ProbedStore {
        let clocks = inner
            .devices()
            .iter()
            .map(|d| d.clock().clone())
            .chain(std::iter::once(inner.clock().clone()))
            .collect();
        ProbedStore {
            inner,
            clocks,
            probe: StoreProbe::default(),
            timed,
        }
    }

    pub fn sim_now(&self) -> u64 {
        self.clocks.iter().map(SimClock::now_ns).sum()
    }
}

impl PageStore for ProbedStore {
    fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
        let _s = spans::enter("core", "store.read_page");
        let t = self.timed.then(Instant::now);
        let out = self.inner.read_page(id, buf);
        self.probe.reads += 1;
        if let Some(t) = t {
            self.probe.host_ns += t.elapsed().as_nanos() as u64;
        }
        out
    }

    fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
        let _s = spans::enter("core", "store.commit_pages");
        let sim0 = self.sim_now();
        let t = self.timed.then(Instant::now);
        let out = self.inner.commit_pages(dirty);
        if let Some(t) = t {
            self.probe.host_ns += t.elapsed().as_nanos() as u64;
        }
        self.probe.commit_sim_ns += self.sim_now() - sim0;
        self.probe.commits += 1;
        self.probe.pages += dirty.len() as u64;
        out
    }

    fn page_capacity(&self) -> u32 {
        self.inner.page_capacity()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
