//! Deterministic disk fault injection.
//!
//! [`FaultyDisk`] wraps a [`SimDisk`] and injects failures according to a
//! seedable [`FaultPlan`]: transient read/write errors that clear after a
//! bounded burst, permanently bad block ranges (grown defects), and
//! latency spikes. Everything is driven by one seeded RNG plus the access
//! sequence, so a (plan, workload) pair replays bit-for-bit — the property
//! the `faultfuzz` campaign needs to shrink failures to a seed.
//!
//! A failed request still charges the underlying disk's latency model and
//! moves its head ([`SimDisk::charge_failed_io`]); injection can be
//! toggled off (e.g. for post-crash verification reads) without touching
//! the plan.

use std::collections::HashMap;
use std::ops::Range;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{BatchReport, BlockDevice, Disk, DiskStats, IoError, IoLane, BLOCK_SIZE};

/// A deterministic, seedable plan of device faults.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the per-access RNG stream.
    pub seed: u64,
    /// Per-access probability (in per mille) that a read starts a
    /// transient-error burst.
    pub transient_read_per_mille: u32,
    /// Per-access probability (in per mille) that a write starts a
    /// transient-error burst.
    pub transient_write_per_mille: u32,
    /// Consecutive failures per transient burst. Retry budgets at or above
    /// this absorb every transient fault deterministically.
    pub burst_len: u32,
    /// Permanently bad block ranges: every access fails with
    /// [`IoError::BadBlock`].
    pub bad_ranges: Vec<Range<u64>>,
    /// Stride-pattern bad blocks: `Some((m, r))` marks every block with
    /// `blk % m == r` permanently bad — "shard `r` of an `m`-way pool lost
    /// its backing store".
    pub bad_modulo: Option<(u64, u64)>,
    /// Per-access probability (in per mille) of a latency spike.
    pub spike_per_mille: u32,
    /// Extra latency charged per spike, in ns.
    pub spike_ns: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_read_per_mille: 0,
            transient_write_per_mille: 0,
            burst_len: 1,
            bad_ranges: Vec::new(),
            bad_modulo: None,
            spike_per_mille: 0,
            spike_ns: 0,
        }
    }

    /// Adds transient read errors at `per_mille` per access.
    pub fn with_transient_reads(mut self, per_mille: u32) -> Self {
        self.transient_read_per_mille = per_mille;
        self
    }

    /// Adds transient write errors at `per_mille` per access.
    pub fn with_transient_writes(mut self, per_mille: u32) -> Self {
        self.transient_write_per_mille = per_mille;
        self
    }

    /// Sets how many consecutive attempts each transient burst fails.
    pub fn with_burst_len(mut self, n: u32) -> Self {
        self.burst_len = n.max(1);
        self
    }

    /// Marks `range` permanently bad.
    pub fn with_bad_range(mut self, range: Range<u64>) -> Self {
        self.bad_ranges.push(range);
        self
    }

    /// Marks every block with `blk % modulo == residue` permanently bad.
    pub fn with_bad_modulo(mut self, modulo: u64, residue: u64) -> Self {
        assert!(modulo > 0 && residue < modulo);
        self.bad_modulo = Some((modulo, residue));
        self
    }

    /// Adds latency spikes of `spike_ns` at `per_mille` per access.
    pub fn with_latency_spikes(mut self, per_mille: u32, spike_ns: u64) -> Self {
        self.spike_per_mille = per_mille;
        self.spike_ns = spike_ns;
        self
    }

    /// Whether `blk` is permanently bad under this plan.
    pub fn is_bad(&self, blk: u64) -> bool {
        self.bad_ranges.iter().any(|r| r.contains(&blk))
            || self
                .bad_modulo
                .is_some_and(|(m, r)| blk.checked_rem(m) == Some(r))
    }
}

telemetry::counters! {
    /// Counters of what the wrapper injected (distinct from [`DiskStats`],
    /// which counts what the device experienced).
    pub struct FaultStats {
        /// Transient read errors injected.
        pub injected_read_errors: u64,
        /// Transient write errors injected.
        pub injected_write_errors: u64,
        /// Accesses rejected because the block is permanently bad.
        pub permanent_rejections: u64,
        /// Latency spikes injected.
        pub latency_spikes: u64,
    }
}

struct FaultState {
    rng: StdRng,
    enabled: bool,
    /// Remaining failures of the active transient burst, per (blk, write).
    bursts: HashMap<(u64, bool), u32>,
    /// Keys whose burst just drained: the next attempt passes without a
    /// roll, so at most `burst_len` consecutive attempts ever fail — a
    /// retry budget of `burst_len` absorbs every transient fault
    /// deterministically.
    grace: std::collections::HashSet<(u64, bool)>,
    stats: FaultStats,
}

/// A [`BlockDevice`] that injects the faults of a [`FaultPlan`] above a
/// real [`SimDisk`](crate::SimDisk). See the module docs.
pub struct FaultyDisk {
    inner: Disk,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyDisk {
    /// Wraps `inner` with fault injection per `plan` (enabled).
    pub fn new(inner: Disk, plan: FaultPlan) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self {
            state: Mutex::new(FaultState {
                rng: StdRng::seed_from_u64(plan.seed),
                enabled: true,
                bursts: HashMap::new(),
                grace: std::collections::HashSet::new(),
                stats: FaultStats::default(),
            }),
            inner,
            plan,
        })
    }

    /// The wrapped disk.
    pub fn inner(&self) -> &Disk {
        &self.inner
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Turns injection on or off (the plan is kept). Verification passes
    /// disable injection so they observe state rather than perturb it.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.lock().enabled = enabled;
    }

    /// What has been injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().stats
    }

    /// Decides the fate of one access. `Some(err)` means inject a failure
    /// (latency charged as a failed media attempt); `None` means pass
    /// through (possibly after a latency spike).
    fn inject(&self, blk: u64, write: bool) -> Option<IoError> {
        match self.decide(blk, write) {
            Fate::Pass => None,
            Fate::Spike => {
                self.inner.charge_latency_spike(self.plan.spike_ns);
                None
            }
            Fate::Bad => {
                self.inner.charge_failed_io(blk, write);
                Some(IoError::BadBlock { blk })
            }
            Fate::Transient => {
                self.inner.charge_failed_io(blk, write);
                Some(if write {
                    IoError::TransientWrite { blk }
                } else {
                    IoError::TransientRead { blk }
                })
            }
        }
    }

    /// Rolls the fate of one access without charging anything. Fates are
    /// decided in strict request order (one RNG draw sequence), so a
    /// vectored batch consumes exactly the same injection schedule as
    /// the equivalent per-block loop.
    fn decide(&self, blk: u64, write: bool) -> Fate {
        // Decide under the fault lock; charge the disk after dropping it
        // (the disk has its own lock).
        {
            let mut st = self.state.lock();
            if !st.enabled {
                Fate::Pass
            } else if self.plan.is_bad(blk) {
                st.stats.permanent_rejections += 1;
                Fate::Bad
            } else {
                let key = (blk, write);
                let in_burst = if let Some(left) = st.bursts.get_mut(&key) {
                    *left -= 1;
                    if *left == 0 {
                        st.bursts.remove(&key);
                        st.grace.insert(key);
                    }
                    true
                } else if st.grace.remove(&key) {
                    false
                } else {
                    let per_mille = if write {
                        self.plan.transient_write_per_mille
                    } else {
                        self.plan.transient_read_per_mille
                    };
                    let fire = per_mille > 0 && st.rng.gen_range(0..1000) < per_mille;
                    if fire {
                        if self.plan.burst_len > 1 {
                            st.bursts.insert(key, self.plan.burst_len - 1);
                        } else {
                            st.grace.insert(key);
                        }
                    }
                    fire
                };
                if in_burst {
                    if write {
                        st.stats.injected_write_errors += 1;
                    } else {
                        st.stats.injected_read_errors += 1;
                    }
                    Fate::Transient
                } else if self.plan.spike_per_mille > 0
                    && st.rng.gen_range(0..1000) < self.plan.spike_per_mille
                {
                    st.stats.latency_spikes += 1;
                    Fate::Spike
                } else {
                    Fate::Pass
                }
            }
        }
    }
}

/// What the injector decided for one access.
enum Fate {
    Pass,
    Spike,
    Bad,
    Transient,
}

impl BlockDevice for FaultyDisk {
    fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(err) = self.inject(blk, false) {
            return Err(err);
        }
        self.inner.read_block(blk, buf)
    }

    fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(err) = self.inject(blk, true) {
            return Err(err);
        }
        self.inner.write_block(blk, buf)
    }

    /// Vectored write with fault injection: fates are rolled per block in
    /// request order (same RNG schedule as a per-block loop), and the
    /// batch is **split at fault boundaries** — passing runs go to the
    /// inner disk as sub-batches (keeping the streaming amortisation),
    /// while each injected failure charges a failed media attempt at its
    /// position, so per-block error semantics and head movement are
    /// preserved exactly.
    fn write_blocks(&self, reqs: &[(u64, &[u8])], lane: IoLane) -> BatchReport {
        fn flush(
            disk: &Disk,
            lane: IoLane,
            run: &mut Vec<(u64, &[u8])>,
            run_idx: &mut Vec<usize>,
            report: &mut BatchReport,
        ) {
            if run.is_empty() {
                return;
            }
            let sub = disk.write_blocks(run, lane);
            report.device_ns += sub.device_ns;
            for (j, e) in sub.errors {
                report.errors.push((run_idx[j], e));
            }
            run.clear();
            run_idx.clear();
        }

        let mut report = BatchReport::default();
        let mut run: Vec<(u64, &[u8])> = Vec::new();
        let mut run_idx: Vec<usize> = Vec::new();
        for (i, (blk, buf)) in reqs.iter().enumerate() {
            assert_eq!(buf.len(), BLOCK_SIZE);
            match self.decide(*blk, true) {
                Fate::Pass => {
                    run.push((*blk, buf));
                    run_idx.push(i);
                }
                Fate::Spike => {
                    report.device_ns +=
                        self.inner.charge_latency_spike_on(self.plan.spike_ns, lane);
                    run.push((*blk, buf));
                    run_idx.push(i);
                }
                fate @ (Fate::Bad | Fate::Transient) => {
                    // The pending run must land before the failed attempt
                    // so the head moves in request order.
                    flush(&self.inner, lane, &mut run, &mut run_idx, &mut report);
                    report.device_ns += self.inner.charge_failed_io_on(*blk, true, lane);
                    let err = match fate {
                        Fate::Bad => IoError::BadBlock { blk: *blk },
                        _ => IoError::TransientWrite { blk: *blk },
                    };
                    report.errors.push((i, err));
                }
            }
        }
        flush(&self.inner, lane, &mut run, &mut run_idx, &mut report);
        report
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskKind, SimDisk};
    use nvmsim::SimClock;

    fn base() -> Disk {
        SimDisk::new(DiskKind::Ssd, 1024, SimClock::new())
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let clock = SimClock::new();
        let plain = SimDisk::new(DiskKind::Ssd, 1024, clock.clone());
        let wrapped = FaultyDisk::new(
            SimDisk::new(DiskKind::Ssd, 1024, SimClock::new()),
            FaultPlan::quiet(1),
        );
        let data = [7u8; BLOCK_SIZE];
        let mut buf = [0u8; BLOCK_SIZE];
        for d in [&*plain as &dyn BlockDevice, &*wrapped] {
            d.write_block(3, &data).unwrap();
            d.read_block(3, &mut buf).unwrap();
            assert_eq!(buf, data);
        }
        assert_eq!(plain.stats(), wrapped.stats(), "no plan → identical stats");
        assert_eq!(wrapped.fault_stats(), FaultStats::default());
    }

    #[test]
    fn bad_range_always_fails_and_counts() {
        let d = FaultyDisk::new(base(), FaultPlan::quiet(2).with_bad_range(10..20));
        let data = [1u8; BLOCK_SIZE];
        for _ in 0..3 {
            assert_eq!(d.write_block(15, &data), Err(IoError::BadBlock { blk: 15 }));
        }
        let mut buf = [0u8; BLOCK_SIZE];
        assert_eq!(
            d.read_block(10, &mut buf),
            Err(IoError::BadBlock { blk: 10 })
        );
        d.write_block(9, &data).unwrap();
        d.write_block(20, &data).unwrap();
        assert_eq!(d.fault_stats().permanent_rejections, 4);
        let s = d.stats();
        assert_eq!((s.read_errors, s.write_errors), (1, 3));
    }

    #[test]
    fn bad_modulo_marks_one_shards_blocks() {
        let plan = FaultPlan::quiet(3).with_bad_modulo(4, 2);
        assert!(plan.is_bad(2) && plan.is_bad(6) && plan.is_bad(102));
        assert!(!plan.is_bad(0) && !plan.is_bad(3) && !plan.is_bad(101));
    }

    #[test]
    fn transient_burst_clears_within_burst_len_retries() {
        let plan = FaultPlan::quiet(4)
            .with_transient_writes(1000)
            .with_burst_len(3);
        let d = FaultyDisk::new(base(), plan);
        let data = [9u8; BLOCK_SIZE];
        let mut failures = 0;
        loop {
            match d.write_block(5, &data) {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures <= 3, "burst must clear after burst_len failures");
                }
            }
        }
        // p=1.0 plan: the burst fires immediately and lasts exactly 3.
        assert_eq!(failures, 3);
        // The write eventually landed.
        let mut buf = [0u8; BLOCK_SIZE];
        d.set_enabled(false);
        d.read_block(5, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let d = FaultyDisk::new(base(), FaultPlan::quiet(seed).with_transient_reads(300));
            let mut buf = [0u8; BLOCK_SIZE];
            (0..64)
                .map(|b| u8::from(d.read_block(b, &mut buf).is_err()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds give different schedules");
    }

    #[test]
    fn disabled_injection_passes_through() {
        let d = FaultyDisk::new(base(), FaultPlan::quiet(5).with_bad_range(0..1024));
        d.set_enabled(false);
        let data = [3u8; BLOCK_SIZE];
        d.write_block(1, &data).unwrap();
        assert_eq!(d.fault_stats().permanent_rejections, 0);
    }

    #[test]
    fn batched_writes_split_at_fault_boundaries() {
        let d = FaultyDisk::new(base(), FaultPlan::quiet(11).with_bad_range(4..6));
        let bufs: Vec<[u8; BLOCK_SIZE]> = (0..8u8).map(|i| [i + 1; BLOCK_SIZE]).collect();
        let reqs: Vec<(u64, &[u8])> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64, &b[..]))
            .collect();
        let r = d.write_blocks(&reqs, IoLane::Foreground);
        assert_eq!(r.errors.len(), 2);
        assert!(matches!(r.errors[0], (4, IoError::BadBlock { blk: 4 })));
        assert!(matches!(r.errors[1], (5, IoError::BadBlock { blk: 5 })));
        // Every passing block landed despite the mid-batch failures.
        d.set_enabled(false);
        let mut buf = [0u8; BLOCK_SIZE];
        for (i, b) in bufs.iter().enumerate() {
            if (4..6).contains(&(i as u64)) {
                continue;
            }
            d.read_block(i as u64, &mut buf).unwrap();
            assert_eq!(&buf, b, "block {i}");
        }
        assert_eq!(d.fault_stats().permanent_rejections, 2);
        assert_eq!(d.stats().write_errors, 2);
        assert_eq!(d.stats().writes, 6);
    }

    #[test]
    fn batched_injection_consumes_the_same_rng_schedule_as_per_block() {
        let plan = || {
            FaultPlan::quiet(21)
                .with_transient_writes(300)
                .with_burst_len(1)
        };
        let bufs: Vec<[u8; BLOCK_SIZE]> = (0..32u8).map(|i| [i; BLOCK_SIZE]).collect();
        // Per-block loop.
        let d1 = FaultyDisk::new(base(), plan());
        let per_block: Vec<bool> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| d1.write_block(i as u64, b).is_err())
            .collect();
        // One vectored batch.
        let d2 = FaultyDisk::new(base(), plan());
        let reqs: Vec<(u64, &[u8])> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64, &b[..]))
            .collect();
        let r = d2.write_blocks(&reqs, IoLane::Foreground);
        let batched: Vec<bool> = (0..bufs.len())
            .map(|i| r.errors.iter().any(|(j, _)| *j == i))
            .collect();
        assert_eq!(per_block, batched, "identical fault schedule either way");
    }

    #[test]
    fn background_batch_with_faults_leaves_foreground_clock_alone() {
        let clock = SimClock::new();
        let inner = SimDisk::new(DiskKind::Ssd, 1024, clock.clone());
        let d = FaultyDisk::new(
            inner,
            FaultPlan::quiet(31)
                .with_bad_range(2..3)
                .with_latency_spikes(1000, 7_000),
        );
        let buf = [5u8; BLOCK_SIZE];
        let reqs: Vec<(u64, &[u8])> = (0..4u64).map(|b| (b, &buf[..])).collect();
        let r = d.write_blocks(&reqs, IoLane::Background);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(
            clock.now_ns(),
            0,
            "background faults must not stall foreground"
        );
        assert_eq!(d.stats().busy_ns, r.device_ns);
    }

    #[test]
    fn latency_spikes_charge_the_clock() {
        let clock = SimClock::new();
        let inner = SimDisk::new(DiskKind::Ssd, 64, clock.clone());
        let d = FaultyDisk::new(
            inner,
            FaultPlan::quiet(6).with_latency_spikes(1000, 5_000_000),
        );
        let mut buf = [0u8; BLOCK_SIZE];
        d.read_block(0, &mut buf).unwrap();
        assert!(clock.now_ns() >= 5_000_000 + 60_000);
        assert_eq!(d.fault_stats().latency_spikes, 1);
    }
}
