//! Pool-side state of the **multi-writer lock-free commit path**
//! (DESIGN §16).
//!
//! In [`CommitMode::LockFreeRing`] a shard's writers no longer serialise
//! the whole commit behind the cache mutex. Instead each writer:
//!
//! 1. **reserves** a contiguous ring-slot window by CAS-advancing the
//!    shard's reservation cursor (after claiming its disk blocks in the
//!    conflict-admission set, so concurrent windows never touch the same
//!    block),
//! 2. runs a short **latched meta phase** under the cache lock — block
//!    allocation, log-role entry stores, ring-slot stores, the `RESERVED`
//!    descriptor — everything flushed, nothing fenced,
//! 3. **stages** its payloads concurrently, outside any lock, on a private
//!    clock (the overlap the mutex path could never express),
//! 4. **publishes** the window with one 8 B release-store flipping the
//!    descriptor state word to `STAGED`, and
//! 5. the thread completing the lowest outstanding window becomes the
//!    **sequencer** (combiner-style): one fence drains every published
//!    window, then one `Head` store — the round's commit point — retires
//!    the maximal contiguous `STAGED` prefix that starts at the retire
//!    frontier ([`MwState::frontier`]).
//!
//! A **spanning** transaction takes none of these steps: the pool
//! quiesces each participant shard (`MwState::spanning_open` holds new
//! admissions off while outstanding windows drain), commits the fragments
//! through the mutex path's protocol, and republishes `cursor`,
//! `ring_limit` and [`MwState::frontier`] from each shard's new `Head`.
//!
//! The types here are DRAM bookkeeping only; the persistent side (window
//! descriptor table, ring slots, entries) lives in the layout/cache
//! modules, and recovery's resume-or-roll-back rule in `recovery.rs`.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex as StdMutex};

use crate::cache::MwStagedMeta;
use crate::txn::BlockBuf;
use crate::Txn;

/// How a pool serialises intra-shard commits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// The paper-exact reference path: one mutex per shard, one ring
    /// commit per transaction under it, per-step persists. No batching —
    /// that is the ring's job.
    #[default]
    Mutex,
    /// The multi-writer ring pipeline (module docs): lock-free window
    /// reservation, concurrent staging, sequencer-combined `Head`
    /// advance — the pool's one batching mechanism. Requires the role
    /// switch.
    LockFreeRing,
}

/// One in-flight window in a shard's reservation order.
pub(crate) struct MwWindow {
    /// Window identity (monotone per shard; tags the descriptor word).
    pub(crate) ordinal: u64,
    /// First reserved ring sequence number.
    pub(crate) start: u64,
    /// Window length in slots.
    pub(crate) len: u64,
    /// Descriptor table slot backing the window.
    pub(crate) desc_slot: usize,
    /// The writer published its `STAGED` state word.
    pub(crate) staged: bool,
    /// Private-clock time at which the writer's staging finished.
    pub(crate) ready_ns: u64,
    /// Disk blocks claimed in the conflict-admission set.
    pub(crate) disk_blocks: Vec<u64>,
    /// Cache-side window bookkeeping, attached after the meta phase.
    pub(crate) meta: Option<MwStagedMeta>,
}

/// DRAM coordination state of one shard's multi-writer pipeline,
/// protected by [`MwShard::state`].
pub(crate) struct MwState {
    /// Outstanding windows in reservation (ring) order. A writer registers
    /// here only *after* its cursor CAS, so the queue can have holes: a
    /// reserved range whose writer has not taken this lock yet.
    pub(crate) windows: VecDeque<MwWindow>,
    /// The retire frontier: the ring sequence number the next sequencer
    /// round must start at (the shard's `Head` while no round is in
    /// flight). Set at format/recover, advanced by each round, republished
    /// from `Head` after a spanning commit on the quiesced shard.
    pub(crate) frontier: u64,
    /// Disk blocks owned by outstanding windows (conflict admission:
    /// a transaction touching any of these waits *before* reserving, so
    /// blocked writers never hold ring slots).
    pub(crate) in_flight: HashSet<u64>,
    /// Free descriptor-table slots.
    pub(crate) free_desc: Vec<usize>,
    /// Next window ordinal.
    pub(crate) next_ordinal: u64,
    /// A sequencer round is in flight (combiner flag).
    pub(crate) sequencing: bool,
    /// A spanning commit owns the (quiesced) shard: new reservations wait.
    pub(crate) spanning_open: bool,
    /// Ordinals blocking commits are waiting on.
    pub(crate) waiting: HashSet<u64>,
    /// Retired ordinals from `waiting` (consumed by the waiter).
    pub(crate) retired: HashSet<u64>,
    /// A sequencer round or a spanning commit unwound on this shard (a
    /// simulated power failure, or a bug): `Head` may or may not have
    /// moved, so nothing can retire until the pool is recovered and every
    /// committer parked on or arriving at this shard must leave. Holds
    /// the crash trip's event when that is what unwound.
    pub(crate) failed: Option<Option<u64>>,
    /// Reservation-CAS retries not yet folded into the cache stats.
    pub(crate) pending_cas_retries: u64,
    /// Sequencer handoffs not yet folded into the cache stats.
    pub(crate) pending_handoffs: u64,
}

/// Per-shard multi-writer pipeline: lock-free reservation atomics plus the
/// mutex-protected DRAM bookkeeping. Constructed for every shard (cheap);
/// only used when the pool runs [`CommitMode::LockFreeRing`].
pub(crate) struct MwShard {
    /// Next unreserved ring sequence number (fetch-add/CAS reservation).
    pub(crate) cursor: AtomicU64,
    /// Reservation bound: `Tail + ring_cap`, republished by the sequencer
    /// after each round. A reservation `[cur, cur+n)` with
    /// `cur + n <= limit` can never collide with a live slot.
    pub(crate) ring_limit: AtomicU64,
    /// Descriptor-table credits (CAS-decremented before picking a slot).
    pub(crate) slots_avail: AtomicU64,
    pub(crate) state: StdMutex<MwState>,
    pub(crate) cv: Condvar,
}

impl MwShard {
    pub(crate) fn new(head: u64, ring_cap: u64) -> MwShard {
        MwShard {
            cursor: AtomicU64::new(head),
            ring_limit: AtomicU64::new(head + ring_cap),
            slots_avail: AtomicU64::new(crate::layout::MW_WINDOWS as u64),
            state: StdMutex::new(MwState {
                windows: VecDeque::new(),
                frontier: head,
                in_flight: HashSet::new(),
                free_desc: (0..crate::layout::MW_WINDOWS).collect(),
                next_ordinal: 0,
                sequencing: false,
                spanning_open: false,
                waiting: HashSet::new(),
                retired: HashSet::new(),
                failed: None,
                pending_cas_retries: 0,
                pending_handoffs: 0,
            }),
            cv: Condvar::new(),
        }
    }
}

/// A reserved multi-writer window, held by its writer between
/// [`TincaPool::mw_try_begin`](crate::TincaPool::mw_try_begin) and
/// [`TincaPool::mw_publish`](crate::TincaPool::mw_publish). The meta phase
/// has already run; the remaining steps — staging the payloads and
/// publishing the state word — run without any lock.
pub struct MwTicket {
    pub(crate) shard: usize,
    pub(crate) ordinal: u64,
    pub(crate) desc_slot: usize,
    /// `(nvm address, payload)` staging jobs, drained by `mw_stage`.
    pub(crate) stage_jobs: Vec<(usize, BlockBuf)>,
    /// Private-clock frontier: starts at the shard clock when the meta
    /// phase ended, advanced by the diverted staging charges.
    pub(crate) ready_ns: u64,
}

impl MwTicket {
    /// The shard this window commits on.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// Outcome of a non-blocking multi-writer admission attempt.
pub enum MwAdmission {
    /// The window is reserved and its meta phase has run; stage and
    /// publish the returned ticket.
    Admitted(MwTicket),
    /// The transaction conflicts with an in-flight window, the shard is
    /// quiesced for a spanning commit, or ring/descriptor capacity is
    /// exhausted. The transaction is handed back; retry after the shard
    /// makes progress (e.g. a sequencer round retires windows).
    Busy(Txn),
}
