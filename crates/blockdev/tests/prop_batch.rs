// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Property tests of the vectored write path: `write_blocks` must leave
//! the device byte-identical to the equivalent per-block `write_block`
//! loop — for both lanes, and across the sub-batch splits a
//! [`FaultyDisk`] introduces at injected fault boundaries — also when
//! the disk's first writes land in buffers a dropped disk left full of
//! other bytes.

use std::sync::Mutex;

use blockdev::{BlockDevice, Disk, DiskKind, FaultPlan, FaultyDisk, IoLane, SimDisk, BLOCK_SIZE};
use nvmsim::SimClock;
use proptest::prelude::*;

const NUM_BLOCKS: u64 = 96;

/// One generated request: a target block (deliberately allowed to run a
/// little past the end of the device so out-of-range errors are part of
/// the property) and a payload fill byte.
fn reqs() -> impl Strategy<Value = Vec<(u64, u8)>> {
    prop::collection::vec((0u64..(NUM_BLOCKS + 8), any::<u8>()), 1..48)
}

fn fill(i: usize, b: u8) -> [u8; BLOCK_SIZE] {
    let mut buf = [b; BLOCK_SIZE];
    // Make payloads position-dependent so reordering would be caught.
    buf[0] = i as u8;
    buf
}

/// Held around each `SimDisk::new` of this binary: a new disk takes every
/// spare block buffer a dropped disk left, so with the lock held a test
/// knows which disk gets them.
static NEW_DISK: Mutex<()> = Mutex::new(());

fn sim_disk(kind: DiskKind) -> Disk {
    let _one_at_a_time = NEW_DISK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    SimDisk::new(kind, NUM_BLOCKS, SimClock::new())
}

/// A disk whose spare buffers are all `0xFF`: a bigger disk fills twice
/// this one's blocks with them and drops, then this one takes them.
fn sim_disk_over_garbage() -> Disk {
    let _one_at_a_time = NEW_DISK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let spent = SimDisk::new(DiskKind::Ssd, 4 * NUM_BLOCKS, SimClock::new());
    let junk = [0xFFu8; BLOCK_SIZE];
    for b in 0..2 * NUM_BLOCKS {
        spent.write_block(b, &junk).expect("in-range write");
    }
    drop(spent);
    SimDisk::new(DiskKind::Ssd, NUM_BLOCKS, SimClock::new())
}

/// Plain `SimDisk`s from `new_disk`: batch ≡ per-block, bytes and error
/// positions, and both hold what was last written to each block (zeros
/// where nothing was).
fn simdisk_case(
    rs: &[(u64, u8)],
    lane: IoLane,
    new_disk: fn() -> Disk,
) -> Result<(), TestCaseError> {
    let payloads: Vec<[u8; BLOCK_SIZE]> = rs
        .iter()
        .enumerate()
        .map(|(i, (_, b))| fill(i, *b))
        .collect();

    let batch_disk = new_disk();
    let slice: Vec<(u64, &[u8])> = rs
        .iter()
        .zip(&payloads)
        .map(|((blk, _), p)| (*blk, &p[..]))
        .collect();
    let report = batch_disk.write_blocks(&slice, lane);

    let loop_disk = new_disk();
    let mut loop_errs = Vec::new();
    for (i, ((blk, _), p)) in rs.iter().zip(&payloads).enumerate() {
        if let Err(e) = loop_disk.write_block(*blk, p) {
            loop_errs.push((i, e));
        }
    }

    prop_assert_eq!(image(&*batch_disk), image(&*loop_disk));
    prop_assert_eq!(report.errors, loop_errs);
    prop_assert_eq!(batch_disk.stats().writes, loop_disk.stats().writes);
    prop_assert_eq!(
        batch_disk.stats().write_errors,
        loop_disk.stats().write_errors
    );
    Ok(())
}

/// The property once over disks whose spare buffers hold garbage: zeros
/// in the payloads and in the unwritten blocks must read back as zeros.
#[test]
fn simdisk_batch_equals_per_block_over_recycled_garbage() {
    let rs: Vec<(u64, u8)> = (0..64u64)
        .map(|i| {
            (
                (i * 37) % (NUM_BLOCKS + 8),
                if i % 3 == 0 { 0 } else { i as u8 },
            )
        })
        .collect();
    for lane in [IoLane::Foreground, IoLane::Background] {
        simdisk_case(&rs, lane, sim_disk_over_garbage).expect("batch ≡ per-block");
    }
}

/// Reads every in-range block of `d` with injection off.
fn image(d: &dyn BlockDevice) -> Vec<[u8; BLOCK_SIZE]> {
    let mut out = Vec::with_capacity(NUM_BLOCKS as usize);
    let mut buf = [0u8; BLOCK_SIZE];
    for b in 0..NUM_BLOCKS {
        d.read_block(b, &mut buf).expect("in-range read");
        out.push(buf);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plain `SimDisk`: batch ≡ per-block, bytes and error positions.
    #[test]
    fn simdisk_batch_equals_per_block(rs in reqs(), lane_bg in any::<bool>()) {
        let lane = if lane_bg { IoLane::Background } else { IoLane::Foreground };
        simdisk_case(&rs, lane, || sim_disk(DiskKind::Ssd))?;
    }

    /// `FaultyDisk`: same seed, same requests → identical bytes and the
    /// identical per-request error schedule, even though the batch path
    /// splits into sub-batches at every injected fault.
    #[test]
    fn faultydisk_batch_equals_per_block(
        rs in reqs(),
        seed in any::<u64>(),
        transient_pm in 0u32..400,
        burst in 1u32..4,
        bad_start in 0u64..NUM_BLOCKS,
        bad_len in 0u64..8,
        lane_bg in any::<bool>(),
    ) {
        let lane = if lane_bg { IoLane::Background } else { IoLane::Foreground };
        let plan = || {
            FaultPlan::quiet(seed)
                .with_transient_writes(transient_pm)
                .with_burst_len(burst)
                .with_bad_range(bad_start..(bad_start + bad_len).min(NUM_BLOCKS))
        };
        let payloads: Vec<[u8; BLOCK_SIZE]> =
            rs.iter().enumerate().map(|(i, (_, b))| fill(i, *b)).collect();

        let batch_disk = FaultyDisk::new(
            sim_disk(DiskKind::Hdd),
            plan(),
        );
        let slice: Vec<(u64, &[u8])> = rs
            .iter()
            .zip(&payloads)
            .map(|((blk, _), p)| (*blk, &p[..]))
            .collect();
        let report = batch_disk.write_blocks(&slice, lane);

        let loop_disk = FaultyDisk::new(
            sim_disk(DiskKind::Hdd),
            plan(),
        );
        let mut loop_errs = Vec::new();
        for (i, ((blk, _), p)) in rs.iter().zip(&payloads).enumerate() {
            if let Err(e) = loop_disk.write_block(*blk, p) {
                loop_errs.push((i, e));
            }
        }

        batch_disk.set_enabled(false);
        loop_disk.set_enabled(false);
        prop_assert_eq!(image(&*batch_disk), image(&*loop_disk));
        prop_assert_eq!(report.errors, loop_errs);
        prop_assert_eq!(batch_disk.fault_stats(), loop_disk.fault_stats());
        prop_assert_eq!(batch_disk.stats().writes, loop_disk.stats().writes);
    }
}
