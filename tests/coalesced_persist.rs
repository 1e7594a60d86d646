//! Tier-1 guard of the coalesced commit path's persist order, read from
//! the device traces of a 2-shard pool with destage and coalesced flushes:
//!
//! * within one fence epoch no line is flushed dirty twice — a commit's
//!   ring slots share lines, and each slot line is flushed once, after its
//!   last slot store, not once per slot;
//! * a commit that fails after staging a slot (`NoVictim` mid-protocol)
//!   flushes and fences every slot line of its window before its revoke
//!   path re-persists `Head`, so a persisted `Head` never covers a slot
//!   that may still hold its value from the ring's previous lap.

use std::collections::HashSet;

use tinca_repro::blockdev::{FaultPlan, BLOCK_SIZE};
use tinca_repro::crashsim::engine::{small_pool, Cut, Rig, SHARD_BYTES};
use tinca_repro::nvmsim::{Nvm, TraceEvent, TracedOp, CACHE_LINE};
use tinca_repro::tinca::{CommitMode, TincaError, TincaPool};

/// Byte offset of the persistent `Head` word in every shard's header.
const HEAD_OFF: usize = 64;

fn commit(pool: &TincaPool, blocks: &[u64], v: u8) -> Result<(), TincaError> {
    let mut t = pool.init_txn();
    for &b in blocks {
        t.write(b, &[v; BLOCK_SIZE]);
    }
    pool.commit(t)
}

/// Asserts that no line of `ops` is flushed dirty twice between two
/// fences.
fn assert_one_dirty_flush_per_line_per_epoch(ops: &[TracedOp], what: &str) {
    let mut staged = HashSet::new();
    for op in ops {
        match op.event {
            TraceEvent::Clflush { line, staged: true } => assert!(
                staged.insert(line),
                "{what}: line {line} flushed dirty twice in one fence epoch"
            ),
            TraceEvent::Sfence { .. } => staged.clear(),
            _ => {}
        }
    }
}

/// Both shards' trace since the last call, each checked with
/// [`assert_one_dirty_flush_per_line_per_epoch`].
fn checked_traces(devices: &[Nvm], what: &str) -> Vec<Vec<TracedOp>> {
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    for (s, ops) in traces.iter().enumerate() {
        assert_one_dirty_flush_per_line_per_epoch(ops, &format!("{what}, shard {s}"));
    }
    traces
}

#[test]
fn coalesced_commits_flush_each_slot_line_once_and_revoke_persists_slots() {
    let mut cfg = small_pool(2, CommitMode::Mutex, false);
    cfg.cache.destage = true;
    cfg.cache.coalesce_flushes = true;
    // Odd disk blocks — shard 1's — are permanently bad: once shard 1 is
    // full of dirty blocks, no victim there can be written back.
    let plan = FaultPlan::quiet(5).with_bad_modulo(2, 1);
    let (rig, pool) = Rig::with_faults(cfg, SHARD_BYTES, plan);
    checked_traces(&rig.devices, "format");

    // Multi-block commits on shard 0: their slots share ring lines.
    for i in 0..8u64 {
        let blocks: Vec<u64> = (0..4).map(|j| 2 * (4 * i + j)).collect();
        commit(&pool, &blocks, i as u8 + 1).expect("single-shard commit");
    }
    checked_traces(&rig.devices, "single-shard commits");
    commit(&pool, &[0, 1], 0x77).expect("spanning commit");
    checked_traces(&rig.devices, "spanning commit");

    // Dirty odd blocks until shard 1 has exactly one free block left.
    let cap = u64::from(pool.shard_layout(1).data_blocks);
    for i in 0..cap - 1 {
        commit(&pool, &[2 * i + 1], 0x10).expect("single-shard fill");
    }
    checked_traces(&rig.devices, "fill");

    // The first block stages into the last free block (its slot stored),
    // the second finds every victim unwritable.
    let fresh = 2 * cap + 1;
    let failed = commit(&pool, &[fresh, fresh + 2, fresh + 4], 0x5B);
    assert!(
        matches!(failed, Err(TincaError::NoVictim)),
        "the commit must fail inside the protocol: {failed:?}"
    );
    let ops = checked_traces(&rig.devices, "failed commit").swap_remove(1);
    let layout = pool.shard_layout(1);
    let ring = layout.ring_off..layout.ring_off + layout.ring_cap as usize * 8;
    let head_store = ops
        .iter()
        .position(|op| matches!(op.event, TraceEvent::AtomicStore { addr: HEAD_OFF, .. }))
        .expect("the revoke path re-persists Head");
    let before_head = &ops[..head_store];
    // Each slot line's last store, then a dirty flush of it, then a
    // fence, all before the Head store.
    let mut slot_lines: Vec<usize> = before_head
        .iter()
        .filter_map(|op| match op.event {
            TraceEvent::AtomicStore { addr, .. } if ring.contains(&addr) => Some(addr / CACHE_LINE),
            _ => None,
        })
        .collect();
    slot_lines.sort_unstable();
    slot_lines.dedup();
    assert!(!slot_lines.is_empty(), "the failed commit staged no slot");
    for line in slot_lines {
        let stored = before_head
            .iter()
            .rposition(|op| {
                matches!(op.event, TraceEvent::AtomicStore { addr, .. } if addr / CACHE_LINE == line)
            })
            .unwrap();
        let flushed = (stored..head_store)
            .find(|&i| ops[i].event == TraceEvent::Clflush { line, staged: true })
            .unwrap_or_else(|| panic!("slot line {line} not flushed before Head is stored"));
        assert!(
            ops[flushed..head_store]
                .iter()
                .any(|op| matches!(op.event, TraceEvent::Sfence { .. })),
            "slot line {line} not fenced before Head is stored"
        );
    }

    // The failed commit left nothing behind, before or after a power cut,
    // and the spanning commit survives both.
    pool.check_consistency()
        .expect("consistent after the abort");
    assert!(
        !pool.contains(fresh),
        "the failed commit left its block cached"
    );
    drop(pool);
    Cut::LoseVolatile.apply(&rig.devices);
    let pool = rig.recover().expect("recovery");
    pool.check_consistency().expect("consistent after recovery");
    assert!(
        !pool.contains(fresh),
        "recovery brought the failed block back"
    );
    let mut buf = [0u8; BLOCK_SIZE];
    pool.read(0, &mut buf).expect("read");
    assert_eq!(buf, [0x77; BLOCK_SIZE], "the spanning commit was lost");
}
