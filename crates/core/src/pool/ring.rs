//! The pool half of the **multi-writer lock-free commit path**
//! (DESIGN §8): its DRAM state and the `TincaPool` methods that drive it.
//!
//! In [`CommitMode::LockFreeRing`] a shard's writers no longer serialise
//! the whole commit behind the cache mutex. Instead each writer:
//!
//! 1. **reserves** a contiguous ring-slot window by CAS-advancing the
//!    shard's reservation cursor (after claiming its disk blocks in the
//!    conflict-admission set, so concurrent windows never touch the same
//!    block),
//! 2. runs a short **latched meta phase** under the cache lock — the
//!    mutex path's admission rule, block allocation, its log-role entry
//!    step, ring-slot stores, the `RESERVED` descriptor — everything
//!    flushed, nothing fenced; the window's staged entries and pins form
//!    one fragment, the same type the mutex path commits,
//! 3. **stages** its payloads concurrently, outside any lock, on a private
//!    clock (the overlap the mutex path could never express),
//! 4. **publishes** the window with one 8 B release-store flipping the
//!    descriptor state word to `STAGED`, and
//! 5. the thread completing the lowest outstanding window becomes the
//!    **sequencer** (combiner-style): one fence drains every published
//!    window, then one `Head` store — the round's commit point — retires
//!    the maximal contiguous `STAGED` prefix that starts at the retire
//!    frontier ([`MwState::frontier`]); each window's fragment then
//!    retires (or, failed, was revoked) through the mutex path's code.
//!
//! A **spanning** transaction takes none of these steps: the pool
//! quiesces each participant shard (`MwState::spanning_open` holds new
//! admissions off while outstanding windows drain), commits the fragments
//! through the mutex path's protocol, and republishes `cursor`,
//! `ring_limit` and [`MwState::frontier`] from each shard's new `Head`.
//!
//! Everything here is DRAM bookkeeping and coordination; the persistent
//! side (window descriptor table, ring slots, entries) lives in the
//! layout/cache modules, where a window's meta phase and sequencer round
//! run the mutex path's fragment steps, and recovery's
//! resume-or-roll-back rule in `recovery.rs`.

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

use blockdev::BLOCK_SIZE;

use super::{Shard, TincaPool, SYNC_MW_PUBLISH};
use crate::cache::Fragment;
use crate::layout::{mw_desc_addr, mw_state_word, MW_STAGED};
use crate::txn::BlockBuf;
use crate::{TincaError, Txn};

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
    /// How the window's meta phase ended.
    pub(crate) meta: MwMeta,
}

/// The cache side of a window: the outcome of its meta phase
/// ([`TincaCache::mw_stage_meta`](crate::cache::TincaCache::mw_stage_meta)),
/// consumed by the sequencer round that retires it.
#[derive(Default)]
pub(crate) enum MwMeta {
    /// Registered; the meta phase has not run yet.
    #[default]
    Pending,
    /// Admitted and staged: the window's fragment, retired with its round.
    Staged(Fragment),
    /// The meta phase failed: its entries are revoked, its unwritten slots
    /// dead-tagged and its pins dropped, and the sequencer passes it as a
    /// published no-op so `Head` can advance.
    Failed,
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

    /// The window's identity on its shard, for
    /// [`TincaPool::mw_retired`](crate::TincaPool::mw_retired).
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }
}

/// A reserved ring range whose window is not registered yet: the writer
/// holds its block claims, a descriptor credit and `[start, start + len)`
/// of the ring. Until [`TincaPool::mw_register`](crate::TincaPool::mw_register)
/// takes it, the range is a hole the sequencer must not pass.
pub struct MwReservation {
    shard: usize,
    txn: Txn,
    start: u64,
    retries: u64,
}

/// Outcome of a non-blocking multi-writer admission attempt: `T` is an
/// [`MwTicket`] for a whole admission, an [`MwReservation`] for its
/// reserve step.
pub enum MwAdmission<T = MwTicket> {
    /// The window is reserved (and, for a ticket, its meta phase has
    /// run); carry on with the returned step.
    Admitted(T),
    /// The transaction conflicts with an in-flight window, the shard is
    /// quiesced for a spanning commit, or ring/descriptor capacity is
    /// exhausted. The transaction is handed back; retry after the shard
    /// makes progress (e.g. a sequencer round retires windows).
    Busy(Txn),
}

pub(super) fn lock_mw<'a>(sh: &'a Shard) -> StdGuard<'a, MwState> {
    sh.mw.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The crash trip's event ordinal when `payload` (a caught unwind) is a
/// simulated power failure, `None` for any other panic — the value
/// [`MwState::failed`] records.
fn trip_event(payload: &(dyn std::any::Any + Send)) -> Option<u64> {
    payload
        .downcast_ref::<nvmsim::CrashTripped>()
        .map(|trip| trip.event)
}

impl TincaPool {
    /// Non-blocking multi-writer admission of a single-shard transaction
    /// (`LockFreeRing` mode only; see [`CommitMode`]): the
    /// [`mw_reserve`](Self::mw_reserve) step, then the
    /// [`mw_register`](Self::mw_register) step. On
    /// [`MwAdmission::Admitted`] the caller owns a reserved window and
    /// must drive it through [`mw_stage`](Self::mw_stage),
    /// [`mw_publish`](Self::mw_publish), and (eventually)
    /// [`mw_sequence`](Self::mw_sequence); on [`MwAdmission::Busy`] the
    /// transaction is handed back untouched for a later retry. This is
    /// the steppable face of the pipeline — deterministic drivers
    /// (benches, fuzzers, proptests) interleave the steps explicitly.
    pub fn mw_try_begin(&self, txn: Txn) -> Result<MwAdmission, TincaError> {
        self.mw_admit(self.mw_reserve(txn)?)
    }

    fn mw_admit(&self, reserved: MwAdmission<MwReservation>) -> Result<MwAdmission, TincaError> {
        match reserved {
            MwAdmission::Admitted(r) => self.mw_register(r).map(MwAdmission::Admitted),
            MwAdmission::Busy(txn) => Ok(MwAdmission::Busy(txn)),
        }
    }

    /// The first step of an admission: claims the transaction's disk
    /// blocks, takes a descriptor credit and CAS-reserves its ring range.
    /// Touches no device. The reservation is a hole in the shard's window
    /// queue until [`mw_register`](Self::mw_register) takes it.
    pub fn mw_reserve(&self, txn: Txn) -> Result<MwAdmission<MwReservation>, TincaError> {
        assert_eq!(
            self.commit_mode,
            CommitMode::LockFreeRing,
            "mw_reserve requires CommitMode::LockFreeRing"
        );
        assert!(!txn.is_empty(), "empty transactions commit trivially");
        let home = self.home_shard(&txn);
        assert!(
            home.is_some(),
            "mw_reserve requires a single-shard transaction"
        );
        self.mw_reserve_on(home.unwrap_or(0), txn)
    }

    /// [`mw_reserve`](Self::mw_reserve) on a known home shard.
    fn mw_reserve_on(&self, s: usize, txn: Txn) -> Result<MwAdmission<MwReservation>, TincaError> {
        let sh = &self.shards[s];
        let n = txn.len() as u64;
        if n > sh.layout.ring_cap {
            return Err(TincaError::TxnTooLarge {
                blocks: txn.len(),
                ring_cap: sh.layout.ring_cap,
            });
        }
        // Conflict admission *before* reservation: claim the disk blocks
        // while holding no ring capacity, so a conflicting writer waits
        // without starving the shard of slots (no hold-and-wait).
        {
            let mut mw = lock_mw(sh);
            Self::mw_leave_if_failed(&mw);
            if mw.spanning_open || txn.disk_blocks().any(|b| mw.in_flight.contains(&b)) {
                return Ok(MwAdmission::Busy(txn));
            }
            for b in txn.disk_blocks() {
                mw.in_flight.insert(b);
            }
        }
        let mut retries = 0u64;
        // Descriptor credit: one persistent table slot per window.
        loop {
            let avail = sh.mw.slots_avail.load(Ordering::Acquire);
            if avail == 0 {
                return Ok(self.mw_back_out(sh, txn, retries, false));
            }
            match sh.mw.slots_avail.compare_exchange(
                avail,
                avail - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => retries += 1,
            }
        }
        // Ring window: CAS-advance the reservation cursor, bounded by the
        // sequencer-republished `ring_limit` (`Tail + ring_cap`), so a
        // successful reservation can never lap a live slot.
        let start = loop {
            let cur = sh.mw.cursor.load(Ordering::Acquire);
            if cur + n > sh.mw.ring_limit.load(Ordering::Acquire) {
                return Ok(self.mw_back_out(sh, txn, retries, true));
            }
            match sh
                .mw
                .cursor
                .compare_exchange(cur, cur + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break cur,
                Err(_) => retries += 1,
            }
        };
        Ok(MwAdmission::Admitted(MwReservation {
            shard: s,
            txn,
            start,
            retries,
        }))
    }

    /// The second step of an admission: registers the reserved window and
    /// runs its meta phase, closing the hole its reservation left.
    pub fn mw_register(&self, r: MwReservation) -> Result<MwTicket, TincaError> {
        let (s, txn, start, retries) = (r.shard, r.txn, r.start, r.retries);
        let sh = &self.shards[s];
        let n = txn.len() as u64;
        let (ordinal, desc_slot) = {
            let mut mw = lock_mw(sh);
            mw.pending_cas_retries += retries;
            let ordinal = mw.next_ordinal;
            mw.next_ordinal += 1;
            // Audited panic: a descriptor credit was CAS-acquired above,
            // so the free list cannot be empty.
            #[allow(clippy::disallowed_methods)]
            let desc_slot = mw.free_desc.pop().expect("descriptor credit held");
            let at = mw.windows.partition_point(|w| w.start < start);
            mw.windows.insert(
                at,
                MwWindow {
                    ordinal,
                    start,
                    len: n,
                    desc_slot,
                    staged: false,
                    ready_ns: 0,
                    disk_blocks: txn.disk_blocks().collect(),
                    meta: MwMeta::Pending,
                },
            );
            (ordinal, desc_slot)
        };
        // Latched meta phase (short, under the cache lock): block
        // allocation, log-role entries, tagged ring slots, `RESERVED`
        // descriptor — flushed, fence deferred to the sequencer.
        // Bind before matching: a `match` scrutinee's temporaries (here
        // the cache guard) would otherwise live to the end of the match,
        // and the failure arm re-locks the cache via `mw_sequence`.
        let staged = sh
            .lock_cache()
            .mw_stage_meta(txn, start, desc_slot, ordinal);
        match staged {
            Ok((frag, stage_jobs)) => {
                let ready_ns = sh.nvm.clock().now_ns();
                {
                    let mut mw = lock_mw(sh);
                    Self::mw_window_mut(&mut mw, ordinal).meta = MwMeta::Staged(frag);
                }
                Ok(MwTicket {
                    shard: s,
                    ordinal,
                    desc_slot,
                    stage_jobs,
                    ready_ns,
                })
            }
            Err(e) => {
                // The window is sealed as a failed no-op (entries revoked,
                // unwritten slots dead-tagged); publish it `STAGED` so the
                // sequencer can pass it, then report the admission error.
                {
                    let mut mw = lock_mw(sh);
                    let w = Self::mw_window_mut(&mut mw, ordinal);
                    w.meta = MwMeta::Failed;
                    w.staged = true;
                    w.ready_ns = sh.nvm.clock().now_ns();
                }
                Self::mw_publish_desc(sh, desc_slot, ordinal);
                sh.mw.cv.notify_all();
                self.mw_sequence(s);
                Err(e)
            }
        }
    }

    /// Undoes a reservation attempt that failed at the credit or cursor
    /// CAS: un-claims the conflict-admission blocks (the caller still owns
    /// `txn`) and refunds the descriptor credit if one was taken.
    fn mw_back_out<T>(&self, sh: &Shard, txn: Txn, retries: u64, refund: bool) -> MwAdmission<T> {
        if refund {
            sh.mw.slots_avail.fetch_add(1, Ordering::AcqRel);
        }
        let mut mw = lock_mw(sh);
        mw.pending_cas_retries += retries;
        for b in txn.disk_blocks() {
            mw.in_flight.remove(&b);
        }
        drop(mw);
        // A quiescing spanning commit may be waiting for this claim.
        sh.mw.cv.notify_all();
        MwAdmission::Busy(txn)
    }

    /// The window registered by [`mw_register`](Self::mw_register) for
    /// `ordinal` (only the sequencer removes windows, and it never
    /// removes one whose writer still holds the ticket).
    fn mw_window_mut(mw: &mut MwState, ordinal: u64) -> &mut MwWindow {
        // Audited panic: see the doc comment — the window is present for
        // the whole writer-visible lifetime of its ticket.
        #[allow(clippy::disallowed_methods)]
        mw.windows
            .iter_mut()
            .find(|w| w.ordinal == ordinal)
            .expect("ticketed window registered")
    }

    /// Stages the window's payload blocks — COW write + flush per block —
    /// on a **private clock** seeded at the meta-phase end, so concurrent
    /// writers' staging overlaps in simulated time instead of serialising
    /// (the cost the mutex path could never avoid). Runs under no lock.
    pub fn mw_stage(&self, ticket: &mut MwTicket) {
        let sh = &self.shards[ticket.shard];
        let private = nvmsim::SimClock::new();
        private.advance_to(ticket.ready_ns);
        {
            let _scope = nvmsim::divert_charges(private.clone());
            let _t = telemetry::span(telemetry::phase::COMMIT_STAGE);
            for (addr, data) in ticket.stage_jobs.drain(..) {
                sh.nvm.write(addr, &data[..]);
                sh.nvm.clflush(addr, BLOCK_SIZE);
            }
        }
        ticket.ready_ns = private.now_ns();
    }

    /// Publishes the window: one 8 B release-store flips its descriptor
    /// state word to `STAGED` (flushed; the fence is the sequencer's).
    /// The store is charged to the writer's private clock, and the
    /// window's `ready_ns` carries its durability frontier into the round.
    pub fn mw_publish(&self, ticket: MwTicket) {
        let sh = &self.shards[ticket.shard];
        let private = nvmsim::SimClock::new();
        private.advance_to(ticket.ready_ns);
        {
            let _scope = nvmsim::divert_charges(private.clone());
            Self::mw_publish_desc(sh, ticket.desc_slot, ticket.ordinal);
        }
        {
            let mut mw = lock_mw(sh);
            let w = Self::mw_window_mut(&mut mw, ticket.ordinal);
            w.staged = true;
            w.ready_ns = private.now_ns();
        }
        sh.mw.cv.notify_all();
    }

    /// The `STAGED` descriptor store + flush + release annotation shared
    /// by the fast path and the failed-window seal.
    fn mw_publish_desc(sh: &Shard, desc_slot: usize, ordinal: u64) {
        let addr = mw_desc_addr(desc_slot);
        sh.nvm
            .atomic_write_u64(addr, mw_state_word(ordinal, MW_STAGED));
        sh.nvm.clflush(addr, 8);
        sh.nvm
            .note_atomic_store_release(sh.sync_base + SYNC_MW_PUBLISH);
    }

    /// Whether shard `s`'s window `ordinal` (see [`MwTicket::ordinal`])
    /// has retired: the sequencer drops a window from the queue when its
    /// round commits. Unwinds like a committer if the shard's pipeline
    /// failed.
    pub fn mw_retired(&self, s: usize, ordinal: u64) -> bool {
        let mw = lock_mw(&self.shards[s]);
        Self::mw_leave_if_failed(&mw);
        !mw.windows.iter().any(|w| w.ordinal == ordinal)
    }

    /// Runs sequencer rounds on shard `s` until no retirable prefix
    /// remains: the caller that wins the combiner flag drains the maximal
    /// contiguous `STAGED` prefix with **one** fence and **one** `Head`
    /// store (the round's commit point); losers count a handoff and
    /// return. Returns the number of windows retired by this caller.
    ///
    /// A round starts only at the retire frontier and stops at the first
    /// gap: a writer that has CAS-reserved its range but not yet
    /// registered the window leaves a hole in `windows`, and `Head` must
    /// never be persisted past a slot nobody has written.
    pub fn mw_sequence(&self, s: usize) -> usize {
        let sh = &self.shards[s];
        let mut retired_total = 0usize;
        loop {
            let (mut round, retries, handoffs) = {
                let mut mw = lock_mw(sh);
                if mw.sequencing {
                    mw.pending_handoffs += 1;
                    break;
                }
                // Maximal staged prefix that starts at the frontier and
                // abuts window to window, in ring order.
                let mut k = 0;
                let mut next = mw.frontier;
                while let Some(w) = mw.windows.get(k) {
                    if w.start != next || !w.staged || matches!(w.meta, MwMeta::Pending) {
                        break;
                    }
                    next += w.len;
                    k += 1;
                }
                if k == 0 {
                    break;
                }
                mw.sequencing = true;
                let round: Vec<MwWindow> = mw.windows.drain(..k).collect();
                (
                    round,
                    std::mem::take(&mut mw.pending_cas_retries),
                    std::mem::take(&mut mw.pending_handoffs),
                )
            };
            let max_ready = round.iter().map(|w| w.ready_ns).max().unwrap_or(0);
            let end = round[round.len() - 1].start + round[round.len() - 1].len;
            // A crash trip may panic out of the round; clear the combiner
            // flag and wake waiters before unwinding so surviving threads
            // are not stranded.
            let res = catch_unwind(AssertUnwindSafe(|| {
                let mut cache = sh.lock_cache();
                // Adopt every publisher's history before the drain fence.
                sh.nvm
                    .note_atomic_load_acquire(sh.sync_base + SYNC_MW_PUBLISH);
                let st = cache.stats_mut();
                st.reservation_cas_retries += retries;
                st.sequencer_handoffs += handoffs;
                cache.mw_sequence(&mut round, max_ready);
            }));
            match res {
                Ok(()) => {
                    {
                        let mut mw = lock_mw(sh);
                        for w in &round {
                            for b in &w.disk_blocks {
                                mw.in_flight.remove(b);
                            }
                            mw.free_desc.push(w.desc_slot);
                            if mw.waiting.remove(&w.ordinal) {
                                mw.retired.insert(w.ordinal);
                            }
                        }
                        mw.frontier = end;
                        mw.sequencing = false;
                    }
                    sh.mw
                        .slots_avail
                        .fetch_add(round.len() as u64, Ordering::AcqRel);
                    sh.mw
                        .ring_limit
                        .store(end + sh.layout.ring_cap, Ordering::Release);
                    sh.mw.cv.notify_all();
                    retired_total += round.len();
                }
                Err(payload) => {
                    // The round's windows are gone from the queue and will
                    // never be marked retired: fail the shard's pipeline so
                    // their waiters (and everyone behind them) leave
                    // instead of parking forever.
                    {
                        let mut mw = lock_mw(sh);
                        mw.failed = Some(trip_event(payload.as_ref()));
                        mw.sequencing = false;
                    }
                    sh.mw.cv.notify_all();
                    resume_unwind(payload);
                }
            }
        }
        retired_total
    }

    /// Unwinds the calling committer if a sequencer round on this shard
    /// unwound (see [`MwState::failed`]): with the crash trip's own payload
    /// when that is what happened — the power failed for every thread —
    /// and with a plain panic when the round hit a bug.
    fn mw_leave_if_failed(mw: &MwState) {
        match mw.failed {
            None => {}
            Some(Some(event)) => std::panic::panic_any(nvmsim::CrashTripped { event }),
            // Audited panic: re-raises another thread's panic on the
            // threads that would otherwise wait for it forever.
            #[allow(clippy::disallowed_macros)]
            Some(None) => panic!("a multi-writer sequencer round panicked; recover the pool"),
        }
    }

    /// Blocking multi-writer commit on shard `s`: reserve (retrying while
    /// the shard is busy), stage, publish, then sequence-or-wait until the
    /// window retires.
    pub(super) fn commit_on_shard_mw(&self, s: usize, mut txn: Txn) -> Result<(), TincaError> {
        let mut ticket = loop {
            match self.mw_admit(self.mw_reserve_on(s, txn)?)? {
                MwAdmission::Admitted(t) => break t,
                MwAdmission::Busy(t) => {
                    txn = t;
                    self.mw_wait_busy(s);
                }
            }
        };
        self.mw_stage(&mut ticket);
        let ordinal = ticket.ordinal;
        lock_mw(&self.shards[s]).waiting.insert(ordinal);
        self.mw_publish(ticket);
        self.mw_sequence_until(s, |mw| mw.retired.remove(&ordinal));
        Ok(())
    }

    /// Sequences shard `s` and parks until `done` holds: another thread is
    /// sequencing, or the prefix is blocked behind an unpublished window,
    /// so wait for the shard to advance. `done` is checked under the lock
    /// the sequencer updates the pipeline under, which rules out a lost
    /// wakeup; a failed pipeline unwinds the caller instead.
    fn mw_sequence_until(&self, s: usize, mut done: impl FnMut(&mut MwState) -> bool) {
        let sh = &self.shards[s];
        loop {
            self.mw_sequence(s);
            let mut mw = lock_mw(sh);
            if done(&mut mw) {
                return;
            }
            Self::mw_leave_if_failed(&mw);
            let _w = telemetry::span(telemetry::phase::COMMIT_GROUP_WAIT);
            drop(sh.mw.cv.wait(mw).unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Helps or waits while shard `s` refuses admissions: runs a sequencer
    /// round if one is retirable, else parks until a window publishes,
    /// retires, or the spanning quiesce lifts.
    fn mw_wait_busy(&self, s: usize) {
        if self.mw_sequence(s) > 0 {
            return;
        }
        let sh = &self.shards[s];
        let mw = lock_mw(sh);
        if mw.windows.is_empty() && !mw.sequencing && !mw.spanning_open {
            // The shard already drained between our admission attempt and
            // now; retry immediately.
            return;
        }
        Self::mw_leave_if_failed(&mw);
        let _w = telemetry::span(telemetry::phase::COMMIT_GROUP_WAIT);
        drop(sh.mw.cv.wait(mw).unwrap_or_else(PoisonError::into_inner));
    }

    /// Blocks new multi-writer admissions on shard `s` (`spanning_open`)
    /// and drains every outstanding window — helping sequence staged
    /// prefixes, waiting out unpublished stragglers — so the spanning
    /// commit finds `Head == Tail == cursor` and all descriptors free.
    /// [`commit_spanning_mw`](Self::commit_spanning_mw) lifts it.
    ///
    /// An admitted writer is absent from `windows` between its cursor CAS
    /// and [`mw_register`](Self::mw_register), but its blocks sit in
    /// `in_flight` from the admission check — taken under the lock that
    /// reads `spanning_open` — until its window retires or it backs out.
    /// So the drain waits for `in_flight` too: no reservation cut from the
    /// old cursor survives into the spanning commit.
    fn mw_quiesce(&self, s: usize) {
        lock_mw(&self.shards[s]).spanning_open = true;
        self.mw_sequence_until(s, |mw| {
            mw.windows.is_empty() && mw.in_flight.is_empty() && !mw.sequencing
        });
    }

    /// Two-phase spanning commit in `LockFreeRing` mode: quiesce every
    /// participant shard, run the mutex path's [`commit_spanning`]
    /// (`Self::commit_spanning`) on them — a quiesced shard has `Head ==
    /// Tail == cursor`, every descriptor free and `spanning_open` holding
    /// rivals off, so the fragment protocol is valid as it stands — then
    /// republish each participant's reservation state from its new
    /// `Head` and reopen admissions (DESIGN §8).
    pub(super) fn commit_spanning_mw(&self, txn: Txn) -> Result<(), TincaError> {
        let mut participants: Vec<usize> = txn.disk_blocks().map(|b| self.shard_of(b)).collect();
        participants.sort_unstable();
        participants.dedup();
        // Held from the first quiesce to the last reopen: two spanning
        // commits must not interleave on one shard's `spanning_open`.
        let mut next_id = self.lock_spanning();
        // A crash trip may panic out of a quiesce round or the commit;
        // the quiesce is released on that exit too, and the participants
        // are failed, so parked and later committers re-raise instead of
        // waiting for a reopen that never comes.
        let res = catch_unwind(AssertUnwindSafe(|| {
            for &s in &participants {
                self.mw_quiesce(s);
            }
            self.commit_spanning(txn, &mut next_id)
        }));
        let failed = res
            .as_ref()
            .err()
            .map(|payload| trip_event(payload.as_ref()));
        for &s in &participants {
            let sh = &self.shards[s];
            // The fragment (committed or aborted) moved `Head` under the
            // cache lock only; the next pipelined round starts there.
            let head = failed.is_none().then(|| sh.lock_cache().head_tail().0);
            let mut mw = lock_mw(sh);
            if let Some(head) = head {
                sh.mw.cursor.store(head, Ordering::Release);
                sh.mw
                    .ring_limit
                    .store(head + sh.layout.ring_cap, Ordering::Release);
                mw.frontier = head;
            }
            if let Some(event) = failed {
                mw.failed.get_or_insert(event);
            }
            mw.spanning_open = false;
            drop(mw);
            sh.mw.cv.notify_all();
        }
        res.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};

    use crate::PoolConfig;

    /// A one-shard pool on the multi-writer ring.
    fn ring_pool() -> TincaPool {
        let devices = shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), 1);
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
        let mut cfg = PoolConfig::with_shards(1);
        cfg.commit_mode = CommitMode::LockFreeRing;
        cfg.cache.ring_bytes = 4096;
        TincaPool::format(devices, disk, cfg)
    }

    fn one_block(blk: u64, byte: u8) -> Txn {
        let mut t = Txn::new();
        t.write(blk, &[byte; BLOCK_SIZE]);
        t
    }

    /// The reserve step and nothing more: the writer claimed its block,
    /// took a descriptor credit and won the cursor CAS, then was
    /// descheduled before registering its window.
    fn reserve(p: &TincaPool, txn: Txn) -> MwReservation {
        match p.mw_reserve(txn).unwrap() {
            MwAdmission::Admitted(r) => r,
            MwAdmission::Busy(_) => panic!("reservation refused"),
        }
    }

    fn admit(p: &TincaPool, admission: Result<MwAdmission, TincaError>) -> MwTicket {
        match admission.unwrap() {
            MwAdmission::Admitted(t) => staged(p, t),
            MwAdmission::Busy(_) => panic!("admission refused"),
        }
    }

    fn staged(p: &TincaPool, mut t: MwTicket) -> MwTicket {
        p.mw_stage(&mut t);
        t
    }

    fn assert_block(p: &TincaPool, blk: u64, byte: u8) {
        let mut buf = [0u8; BLOCK_SIZE];
        p.read(blk, &mut buf).unwrap();
        assert_eq!(buf, [byte; BLOCK_SIZE], "block {blk}");
    }

    /// A published window behind a reserved-but-unregistered range must not
    /// retire: `Head` would be persisted past a slot nobody has written.
    #[test]
    fn sequencer_waits_for_an_unregistered_window_at_the_frontier() {
        let p = ring_pool();
        let a_res = reserve(&p, one_block(1, 0xA1));
        let b = admit(&p, p.mw_try_begin(one_block(2, 0xB2)));
        p.mw_publish(b);
        assert_eq!(p.mw_sequence(0), 0, "B sits behind A's unwritten slot");

        // A wakes up: registered but unpublished still blocks the prefix.
        let a = staged(&p, p.mw_register(a_res).unwrap());
        assert_eq!(p.mw_sequence(0), 0, "A is registered, not yet staged");
        p.mw_publish(a);
        assert_eq!(p.mw_sequence(0), 2, "one round retires A and B");
        assert_block(&p, 1, 0xA1);
        assert_block(&p, 2, 0xB2);
        assert_eq!(p.stats().commits, 2);
        p.check_consistency().unwrap();
    }

    /// Consecutive windows must abut: the prefix is cut at a hole in the
    /// middle of the queue, and the rest retires once the hole registers.
    #[test]
    fn sequencer_cuts_the_prefix_at_a_gap_between_windows() {
        let p = ring_pool();
        let a = admit(&p, p.mw_try_begin(one_block(1, 0xA1)));
        let b_res = reserve(&p, one_block(2, 0xB2));
        let c = admit(&p, p.mw_try_begin(one_block(3, 0xC3)));
        p.mw_publish(c);
        p.mw_publish(a);
        assert_eq!(p.mw_sequence(0), 1, "only A: B's range is a hole before C");
        assert_block(&p, 1, 0xA1);

        let b = staged(&p, p.mw_register(b_res).unwrap());
        p.mw_publish(b);
        assert_eq!(p.mw_sequence(0), 2, "B and C retire together");
        assert_block(&p, 2, 0xB2);
        assert_block(&p, 3, 0xC3);
        p.check_consistency().unwrap();
    }

    /// A spanning commit's quiesce must wait for a writer that claimed its
    /// blocks and won the cursor CAS but has not registered its window yet:
    /// returning early lets the spanning commit republish `cursor` from the
    /// new `Head` while that reservation is still cut from the old one.
    #[test]
    fn quiesce_waits_for_a_claimed_but_unregistered_reservation() {
        use std::sync::mpsc;
        use std::time::Duration;
        let p = ring_pool();
        let a_res = reserve(&p, one_block(1, 0xA1));
        let a_start = a_res.start;
        std::thread::scope(|sc| {
            let (done_tx, done_rx) = mpsc::channel();
            let pool = &p;
            sc.spawn(move || {
                pool.mw_quiesce(0);
                done_tx.send(()).unwrap();
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "quiesce returned over a claimed reservation"
            );
            // A wakes up and drives its window; whichever thread sequences
            // it, the quiescer is released only after it retired.
            let a = staged(&p, p.mw_register(a_res).unwrap());
            p.mw_publish(a);
            p.mw_sequence(0);
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("quiesce never returned after the window retired");
        });
        let sh = &p.shards[0];
        let head = sh.lock_cache().head_tail().0;
        assert_eq!(sh.mw.cursor.load(Ordering::Acquire), head);
        assert_eq!(head, a_start + 1);
        assert_block(&p, 1, 0xA1);
        p.check_consistency().unwrap();
    }
}
