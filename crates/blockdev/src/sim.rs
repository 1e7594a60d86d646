//! In-memory sparse-block disk simulator.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use nvmsim::SimClock;
use parking_lot::Mutex;

use crate::{
    BatchReport, BlockDevice, DiskKind, DiskStats, IoError, IoLane, LatencyModel, BLOCK_SIZE,
};

/// Cloneable handle to a [`SimDisk`].
pub type Disk = Arc<SimDisk>;

struct State {
    blocks: HashMap<u64, Box<[u8]>>,
    last_blk: u64,
    stats: DiskStats,
}

/// A simulated disk: sparse in-memory block store + latency model.
///
/// Blocks never written read back as zeroes. All latency is charged to the
/// shared [`SimClock`] of the owning storage stack — including the latency
/// of *failed* requests: the head still seeks and the device is busy even
/// when no data is transferred, so an error never buys a free seek.
pub struct SimDisk {
    model: LatencyModel,
    num_blocks: u64,
    clock: SimClock,
    state: Mutex<State>,
}

impl SimDisk {
    /// Creates a disk of `num_blocks` 4 KB blocks.
    pub fn new(kind: DiskKind, num_blocks: u64, clock: SimClock) -> Disk {
        Arc::new(Self {
            model: LatencyModel::new(kind),
            num_blocks,
            clock,
            state: Mutex::new(State {
                blocks: HashMap::new(),
                last_blk: 0,
                stats: DiskStats::default(),
            }),
        })
    }

    /// The disk's latency class.
    pub fn kind(&self) -> DiskKind {
        self.model.kind()
    }

    /// Number of distinct blocks that have ever been written (for memory
    /// accounting in large simulations).
    pub fn resident_blocks(&self) -> usize {
        self.state.lock().blocks.len()
    }

    /// Charges the cost of an attempted-but-failed media access targeting
    /// `blk`: the head seeks to the (clamped) target, the device is busy
    /// for the model's full duration, and an error counter bumps — but no
    /// data moves. Used internally for out-of-range requests and by fault
    /// wrappers (e.g. [`crate::FaultyDisk`]) so injected errors advance
    /// `last_blk` and the clock exactly like real failed I/Os: without
    /// this, an HDD retry after an error would look sequential and get a
    /// free seek.
    pub fn charge_failed_io(&self, blk: u64, write: bool) {
        self.charge_failed_io_on(blk, write, IoLane::Foreground);
    }

    /// Lane-aware variant of [`Self::charge_failed_io`]: on
    /// [`IoLane::Background`] the head still moves and `busy_ns` and the
    /// error counters still bump, but the foreground clock does not
    /// advance. Returns the device time consumed so background callers
    /// can extend their lane's completion time.
    pub fn charge_failed_io_on(&self, blk: u64, write: bool, lane: IoLane) -> u64 {
        let target = blk.min(self.num_blocks.saturating_sub(1));
        let mut st = self.state.lock();
        let ns = if write {
            self.model.write_ns(target, st.last_blk)
        } else {
            self.model.read_ns(target, st.last_blk)
        };
        st.last_blk = target;
        if write {
            st.stats.write_errors += 1;
        } else {
            st.stats.read_errors += 1;
        }
        st.stats.busy_ns += ns;
        drop(st);
        if lane == IoLane::Foreground {
            self.clock.advance(ns);
            telemetry::charge(telemetry::phase::DISK_FAULT, ns);
        }
        ns
    }

    /// Charges `ns` of extra device busy time with no head movement — a
    /// latency spike (controller hiccup, internal GC pause).
    pub fn charge_latency_spike(&self, ns: u64) {
        self.charge_latency_spike_on(ns, IoLane::Foreground);
    }

    /// Lane-aware variant of [`Self::charge_latency_spike`]; background
    /// spikes occupy the device but do not stall the foreground clock.
    pub fn charge_latency_spike_on(&self, ns: u64, lane: IoLane) -> u64 {
        self.state.lock().stats.busy_ns += ns;
        if lane == IoLane::Foreground {
            self.clock.advance(ns);
            telemetry::charge(telemetry::phase::DISK_SPIKE, ns);
        }
        ns
    }
}

/// Stores one block's bytes: an overwrite copies into the block's box; the
/// first write of a block allocates its box from `buf`, with no zero-fill
/// before the copy.
fn store(blocks: &mut HashMap<u64, Box<[u8]>>, blk: u64, buf: &[u8]) {
    match blocks.entry(blk) {
        Entry::Occupied(mut b) => b.get_mut().copy_from_slice(buf),
        Entry::Vacant(v) => {
            v.insert(buf.into());
        }
    }
}

impl BlockDevice for SimDisk {
    fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let _t = telemetry::span(telemetry::phase::DISK_READ);
        if blk >= self.num_blocks {
            self.charge_failed_io(blk, false);
            return Err(IoError::OutOfRange {
                blk,
                num_blocks: self.num_blocks,
            });
        }
        let mut st = self.state.lock();
        match st.blocks.get(&blk) {
            Some(b) => buf.copy_from_slice(&b[..]),
            None => buf.fill(0),
        }
        let ns = self.model.read_ns(blk, st.last_blk);
        st.last_blk = blk;
        st.stats.reads += 1;
        st.stats.busy_ns += ns;
        self.clock.advance(ns);
        Ok(())
    }

    fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let _t = telemetry::span(telemetry::phase::DISK_WRITE);
        if blk >= self.num_blocks {
            self.charge_failed_io(blk, true);
            return Err(IoError::OutOfRange {
                blk,
                num_blocks: self.num_blocks,
            });
        }
        let mut st = self.state.lock();
        store(&mut st.blocks, blk, buf);
        let ns = self.model.write_ns(blk, st.last_blk);
        st.last_blk = blk;
        st.stats.writes += 1;
        st.stats.busy_ns += ns;
        self.clock.advance(ns);
        Ok(())
    }

    /// Batched write path: one lock pass over the whole request vector.
    /// The first request of each address-contiguous run pays the full
    /// random-access cost; every follower pays only streaming cost
    /// ([`LatencyModel::streaming_write_ns`]). Out-of-range requests
    /// charge a failed media attempt exactly like the per-block path and
    /// do not abort the rest of the batch.
    fn write_blocks(&self, reqs: &[(u64, &[u8])], lane: IoLane) -> BatchReport {
        let mut errors = Vec::new();
        let mut ok_ns = 0u64;
        let mut fault_ns = 0u64;
        {
            let mut st = self.state.lock();
            let mut in_batch = false;
            for (i, (blk, buf)) in reqs.iter().enumerate() {
                assert_eq!(buf.len(), BLOCK_SIZE);
                if *blk >= self.num_blocks {
                    let target = (*blk).min(self.num_blocks.saturating_sub(1));
                    let ns = self.model.write_ns(target, st.last_blk);
                    st.last_blk = target;
                    st.stats.write_errors += 1;
                    st.stats.busy_ns += ns;
                    fault_ns += ns;
                    in_batch = false;
                    errors.push((
                        i,
                        IoError::OutOfRange {
                            blk: *blk,
                            num_blocks: self.num_blocks,
                        },
                    ));
                    continue;
                }
                let ns = if in_batch {
                    self.model.streaming_write_ns(*blk, st.last_blk)
                } else {
                    self.model.write_ns(*blk, st.last_blk)
                };
                in_batch = true;
                store(&mut st.blocks, *blk, buf);
                st.last_blk = *blk;
                st.stats.writes += 1;
                st.stats.busy_ns += ns;
                ok_ns += ns;
            }
        }
        if lane == IoLane::Foreground {
            self.clock.advance(ok_ns + fault_ns);
            if ok_ns > 0 {
                telemetry::charge(telemetry::phase::DISK_WRITE, ok_ns);
            }
            if fault_ns > 0 {
                telemetry::charge(telemetry::phase::DISK_FAULT, fault_ns);
            }
        }
        BatchReport {
            errors,
            device_ns: ok_ns + fault_ns,
        }
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(kind: DiskKind) -> Disk {
        SimDisk::new(kind, 1024, SimClock::new())
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = disk(DiskKind::Ssd);
        let mut b = [1u8; BLOCK_SIZE];
        d.read_block(7, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let d = disk(DiskKind::Ssd);
        let data = [0x5Au8; BLOCK_SIZE];
        d.write_block(3, &data).unwrap();
        let mut b = [0u8; BLOCK_SIZE];
        d.read_block(3, &mut b).unwrap();
        assert_eq!(b, data);
    }

    #[test]
    fn stats_and_clock_advance() {
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Ssd, 16, clock.clone());
        let buf = [0u8; BLOCK_SIZE];
        d.write_block(0, &buf).unwrap();
        d.write_block(1, &buf).unwrap();
        let mut rb = [0u8; BLOCK_SIZE];
        d.read_block(0, &mut rb).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(clock.now_ns(), s.busy_ns);
        assert_eq!(s.busy_ns, 80_000 * 2 + 60_000);
    }

    #[test]
    fn hdd_charges_seek_on_random_access() {
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Hdd, 1 << 20, clock.clone());
        let buf = [0u8; BLOCK_SIZE];
        d.write_block(0, &buf).unwrap();
        let t0 = clock.now_ns();
        d.write_block(1, &buf).unwrap(); // sequential
        let seq = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        d.write_block(900_000, &buf).unwrap(); // long seek
        let rnd = clock.now_ns() - t1;
        assert!(rnd > 100 * seq);
    }

    #[test]
    fn resident_blocks_tracks_sparse_usage() {
        let d = disk(DiskKind::Ssd);
        assert_eq!(d.resident_blocks(), 0);
        d.write_block(1, &[0u8; BLOCK_SIZE]).unwrap();
        d.write_block(1, &[1u8; BLOCK_SIZE]).unwrap();
        d.write_block(2, &[2u8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.resident_blocks(), 2);
    }

    #[test]
    fn oob_access_errors_instead_of_panicking() {
        let d = disk(DiskKind::Ssd);
        assert_eq!(
            d.write_block(5000, &[0u8; BLOCK_SIZE]),
            Err(IoError::OutOfRange {
                blk: 5000,
                num_blocks: 1024
            })
        );
        let mut b = [0u8; BLOCK_SIZE];
        assert_eq!(
            d.read_block(9999, &mut b),
            Err(IoError::OutOfRange {
                blk: 9999,
                num_blocks: 1024
            })
        );
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (0, 0), "failed I/O transfers nothing");
        assert_eq!((s.read_errors, s.write_errors), (1, 1));
    }

    #[test]
    fn batched_contiguous_writes_stream_after_one_seek() {
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Ssd, 1024, clock.clone());
        let bufs: Vec<[u8; BLOCK_SIZE]> = (0..8u8).map(|i| [i; BLOCK_SIZE]).collect();
        let reqs: Vec<(u64, &[u8])> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64 + 100, &b[..]))
            .collect();
        let r = d.write_blocks(&reqs, IoLane::Foreground);
        assert!(r.all_ok());
        // One full 80 µs op plus 7 streamed followers — far below 8 random ops.
        assert!(
            r.device_ns < 8 * 80_000 / 4,
            "batch {} should amortise",
            r.device_ns
        );
        assert!(r.device_ns >= 80_000);
        assert_eq!(
            clock.now_ns(),
            r.device_ns,
            "foreground lane advances the clock"
        );
        let mut buf = [0u8; BLOCK_SIZE];
        for (i, b) in bufs.iter().enumerate() {
            d.read_block(i as u64 + 100, &mut buf).unwrap();
            assert_eq!(&buf, b);
        }
    }

    #[test]
    fn background_lane_charges_busy_but_not_the_clock() {
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Hdd, 1 << 20, clock.clone());
        let buf = [3u8; BLOCK_SIZE];
        let reqs: Vec<(u64, &[u8])> = (0..4u64).map(|i| (i * 50_000, &buf[..])).collect();
        let r = d.write_blocks(&reqs, IoLane::Background);
        assert!(r.all_ok());
        assert!(r.device_ns > 0);
        assert_eq!(clock.now_ns(), 0, "background I/O overlaps foreground time");
        assert_eq!(d.stats().busy_ns, r.device_ns, "device was still occupied");
        assert_eq!(d.stats().writes, 4);
    }

    #[test]
    fn batch_oob_request_errors_without_aborting_the_rest() {
        let d = disk(DiskKind::Ssd);
        let buf = [9u8; BLOCK_SIZE];
        let reqs: Vec<(u64, &[u8])> = vec![(1, &buf), (5000, &buf), (2, &buf)];
        let r = d.write_blocks(&reqs, IoLane::Foreground);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].0, 1);
        assert!(matches!(
            r.errors[0].1,
            IoError::OutOfRange { blk: 5000, .. }
        ));
        let s = d.stats();
        assert_eq!((s.writes, s.write_errors), (2, 1));
        let mut rb = [0u8; BLOCK_SIZE];
        d.read_block(2, &mut rb).unwrap();
        assert_eq!(rb, buf);
    }

    #[test]
    fn lane_aware_failed_io_and_spike_skip_the_clock() {
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Ssd, 64, clock.clone());
        let ns = d.charge_failed_io_on(999, true, IoLane::Background);
        d.charge_latency_spike_on(5_000, IoLane::Background);
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(d.stats().busy_ns, ns + 5_000);
        assert_eq!(d.stats().write_errors, 1);
    }

    #[test]
    fn failed_io_still_charges_seek_and_moves_head() {
        // HDD: a failed access seeks to the (clamped) target, so the next
        // access from there is sequential — and the failed attempt itself
        // pays the full random-access cost (no free seeks after an error).
        let clock = SimClock::new();
        let d = SimDisk::new(DiskKind::Hdd, 1024, clock.clone());
        let buf = [0u8; BLOCK_SIZE];
        d.write_block(0, &buf).unwrap();
        let t0 = clock.now_ns();
        assert!(d.write_block(5000, &buf).is_err()); // clamps head to 1023
        let failed_cost = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        d.write_block(1023, &buf).unwrap(); // head already there
        let settled_cost = clock.now_ns() - t1;
        assert!(
            failed_cost > 50 * settled_cost,
            "failed I/O {failed_cost} must pay the seek; follow-up {settled_cost} is sequential"
        );
        assert_eq!(d.stats().busy_ns, clock.now_ns());
    }
}
