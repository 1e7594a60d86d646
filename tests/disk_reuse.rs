//! Block buffers outlive their disk.
//!
//! A counting global allocator wraps the system one. One disk is filled
//! and dropped; a second disk filled the same way must take every block
//! buffer from what the first left behind, allocate none, and still read
//! back exactly what it was given (zeros where nothing was written).
//!
//! The counter is process-wide, so this binary holds this one test.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tinca_repro::blockdev::{BlockDevice, Disk, DiskKind, IoLane, SimDisk, BLOCK_SIZE};
use tinca_repro::nvmsim::SimClock;

struct Counting;

/// Allocations the size and alignment of a disk's block buffer.
static BLOCK_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(layout: Layout) {
    if layout.size() == BLOCK_SIZE && layout.align() == 1 {
        BLOCK_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a plain atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks each fill writes: the even blocks of a disk twice this size.
const FILLED: u64 = 4_096;

/// Block `blk`'s bytes on disk `disk`: every byte names the disk, so a
/// stale byte of the first disk shows on the second.
fn payload(disk: u8, blk: u64) -> [u8; BLOCK_SIZE] {
    let mut b = [disk; BLOCK_SIZE];
    b[..8].copy_from_slice(&blk.to_le_bytes());
    b
}

/// Writes the even blocks of `d`, the first half one `write_block` at a
/// time and the second in one `write_blocks` batch, and returns how many
/// block-sized buffers the writes allocated.
fn fill(d: &Disk, disk: u8) -> u64 {
    let blks: Vec<u64> = (0..FILLED).map(|i| 2 * i).collect();
    let (singles, batched) = blks.split_at(blks.len() / 2);
    let bufs: Vec<[u8; BLOCK_SIZE]> = batched.iter().map(|&b| payload(disk, b)).collect();
    let reqs: Vec<(u64, &[u8])> = batched
        .iter()
        .copied()
        .zip(bufs.iter().map(|b| &b[..]))
        .collect();

    let before = BLOCK_ALLOCS.load(Ordering::Relaxed);
    for &blk in singles {
        d.write_block(blk, &payload(disk, blk))
            .expect("in-range write");
    }
    assert!(d.write_blocks(&reqs, IoLane::Foreground).all_ok());
    BLOCK_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_second_disk_reuses_the_first_ones_block_buffers() {
    let first = SimDisk::new(DiskKind::Ssd, 2 * FILLED, SimClock::new());
    assert_eq!(
        fill(&first, 1),
        FILLED,
        "a fresh process allocates every block"
    );
    drop(first);

    let second = SimDisk::new(DiskKind::Ssd, 2 * FILLED, SimClock::new());
    assert_eq!(
        fill(&second, 2),
        0,
        "the second fill allocates no block buffer"
    );
    assert_eq!(second.resident_blocks(), FILLED as usize);

    let mut rb = [0u8; BLOCK_SIZE];
    for blk in 0..2 * FILLED {
        second.read_block(blk, &mut rb).expect("in-range read");
        let want = if blk % 2 == 0 {
            payload(2, blk)
        } else {
            [0u8; BLOCK_SIZE]
        };
        assert!(rb == want, "block {blk} reads back wrong");
    }
}
