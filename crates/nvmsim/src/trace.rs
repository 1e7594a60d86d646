//! Optional event-trace recording for persist-order analysis.
//!
//! When [`crate::NvmConfig::trace_events`] is set, the device appends one
//! [`TracedOp`] per store, atomic store, `clflush`ed line, `sfence`, crash,
//! commit annotation, synchronization annotation, and post-crash read. The
//! `persistcheck` crate replays this stream through its rule engine to find
//! persist-ordering bugs the way `pmemcheck` does for real pmem programs.
//!
//! Tracing is off by default and the recording path is a single
//! `Option` test per operation, so benchmarks with tracing disabled
//! measure exactly the same simulated time and statistics.
//!
//! ## Provenance
//!
//! Every [`TracedOp`] carries the issuing thread's stable trace id and the
//! transaction id active on that thread (if any), read from thread-local
//! context *inside* the recording branch — a tracing-disabled device never
//! touches the thread-locals. Harnesses that need deterministic thread
//! numbering (e.g. the pool scaling bench) pin ids with
//! [`set_trace_thread`]; everyone else gets a process-unique id lazily on
//! first traced event. Transaction scopes are delimited with
//! [`txn_scope`] (RAII).
//!
//! ## Synchronization events
//!
//! The four `note_*` sync annotations on [`crate::NvmDevice`]
//! (`LockAcquire`/`LockRelease`/`AtomicLoadAcquire`/`AtomicStoreRelease`,
//! each naming a sync-object id) let the happens-before engine in
//! `persistcheck` build cross-thread edges: release-type events publish
//! the issuing thread's history on the object, acquire-type events adopt
//! it. They are pure annotations — no clock, stats, or persistence-event
//! side effects.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};

/// One recorded device event.
///
/// Addresses are device byte offsets; `line` numbers are cache-line
/// indices (`addr / CACHE_LINE`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Plain CPU store covering `[addr, addr + len)`. Volatile until the
    /// covering lines are flushed and fenced; 8-byte failure atomicity.
    Store { addr: usize, len: usize },
    /// Failure-atomic store (`len` is 8 or 16). Still volatile until
    /// flushed and fenced, but never tears.
    AtomicStore { addr: usize, len: usize },
    /// `clflush`/`clflushopt`/`clwb` of one cache line. `staged` is true
    /// when the line was dirty and its write-back entered the open fence
    /// epoch; false for a clean-line flush (a no-op, and a perf smell).
    Clflush { line: usize, staged: bool },
    /// `sfence`. `staged_lines` is how many flushed lines the fence made
    /// durable; zero means the fence ordered nothing (a perf smell).
    Sfence { staged_lines: usize },
    /// Client annotation ([`crate::NvmDevice::note_commit`]): the commit
    /// record in `[addr, addr + len)` has just been persisted, and the
    /// protocol now considers everything it references durable.
    Commit { addr: usize, len: usize },
    /// Simulated power failure.
    Crash,
    /// Read of `[addr, addr + len)` issued after a crash and before the
    /// next commit annotation — i.e. recovery inspecting survivor state.
    ReadAfterRecovery { addr: usize, len: usize },
    /// Sync annotation: the issuing thread acquired mutex `obj`
    /// ([`crate::NvmDevice::note_lock_acquire`]). Establishes a
    /// happens-before edge from the last release of `obj`.
    LockAcquire { obj: u64 },
    /// Sync annotation: the issuing thread released mutex `obj`,
    /// publishing its history to the next acquirer.
    LockRelease { obj: u64 },
    /// Sync annotation: an acquire-ordered atomic load of sync object
    /// `obj` (e.g. a sequencer observing the windows its writers published).
    AtomicLoadAcquire { obj: u64 },
    /// Sync annotation: a release-ordered atomic store to sync object
    /// `obj` (e.g. a writer publishing its staged window).
    AtomicStoreRelease { obj: u64 },
}

impl TraceEvent {
    /// Short lowercase mnemonic, for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Store { .. } => "store",
            TraceEvent::AtomicStore { .. } => "atomic-store",
            TraceEvent::Clflush { .. } => "clflush",
            TraceEvent::Sfence { .. } => "sfence",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Crash => "crash",
            TraceEvent::ReadAfterRecovery { .. } => "read-after-recovery",
            TraceEvent::LockAcquire { .. } => "lock-acquire",
            TraceEvent::LockRelease { .. } => "lock-release",
            TraceEvent::AtomicLoadAcquire { .. } => "atomic-load-acquire",
            TraceEvent::AtomicStoreRelease { .. } => "atomic-store-release",
        }
    }

    /// True for the four synchronization annotations.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            TraceEvent::LockAcquire { .. }
                | TraceEvent::LockRelease { .. }
                | TraceEvent::AtomicLoadAcquire { .. }
                | TraceEvent::AtomicStoreRelease { .. }
        )
    }
}

/// A [`TraceEvent`] plus its logical timestamp and provenance: the 0-based
/// ordinal of the event in the recorded stream, the issuing thread's trace
/// id, and the transaction id active on that thread. Analyzer reports cite
/// the ordinals; the happens-before engine keys on `thread`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedOp {
    pub seq: u64,
    /// Stable trace id of the issuing thread (see [`trace_thread`]).
    pub thread: u32,
    /// Transaction id active on the issuing thread, if any.
    pub txn: Option<u64>,
    /// Originating device. A single device always records `0`;
    /// [`crate::merge_shard_traces`] stamps each op with its shard index so
    /// analyzers can keep fence-epoch and commit-window state per device
    /// (an sfence only orders write-backs of its own device).
    pub device: u32,
    pub event: TraceEvent,
}

impl TracedOp {
    /// Hand-builds an event on thread 0 with no transaction — for tests
    /// and analyzer fixtures that synthesize traces without a device.
    pub fn new(seq: u64, event: TraceEvent) -> Self {
        TracedOp {
            seq,
            thread: 0,
            txn: None,
            device: 0,
            event,
        }
    }

    /// Hand-builds an event with explicit thread provenance.
    pub fn on_thread(seq: u64, thread: u32, event: TraceEvent) -> Self {
        TracedOp {
            seq,
            thread,
            txn: None,
            device: 0,
            event,
        }
    }
}

/// Next process-unique trace thread id handed out lazily.
static NEXT_TRACE_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACE_THREAD: Cell<Option<u32>> = const { Cell::new(None) };
    static TRACE_TXN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The calling thread's trace id, assigning a fresh process-unique one on
/// first use. Only consulted when a traced device records an event.
pub fn trace_thread() -> u32 {
    TRACE_THREAD.with(|c| match c.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TRACE_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(Some(id));
            id
        }
    })
}

/// Pins the calling thread's trace id (harnesses that want deterministic
/// thread numbering across runs — e.g. worker `i` of a scaling bench).
pub fn set_trace_thread(id: u32) {
    TRACE_THREAD.with(|c| c.set(Some(id)));
}

/// The transaction id active on the calling thread, if any.
pub fn trace_txn() -> Option<u64> {
    TRACE_TXN.with(Cell::get)
}

/// RAII transaction scope: events traced on this thread while the guard
/// lives carry `txn`; dropping restores the previous scope (scopes nest).
#[must_use = "the scope tags events only while the guard lives"]
pub struct TxnScope {
    prev: Option<u64>,
}

/// Opens a [`TxnScope`] for `txn` on the calling thread.
pub fn txn_scope(txn: u64) -> TxnScope {
    let prev = TRACE_TXN.with(|c| c.replace(Some(txn)));
    TxnScope { prev }
}

impl Drop for TxnScope {
    fn drop(&mut self) {
        TRACE_TXN.with(|c| c.set(self.prev));
    }
}

/// The recording buffer held inside the device state.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    ops: Vec<TracedOp>,
    /// Events recorded before the most recent `take()`, so `seq` keeps
    /// increasing across partial drains.
    base: u64,
}

impl TraceBuf {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.ops.push(TracedOp {
            seq: self.len(),
            thread: trace_thread(),
            txn: trace_txn(),
            device: 0,
            event,
        });
    }

    pub(crate) fn take(&mut self) -> Vec<TracedOp> {
        self.base += self.ops.len() as u64;
        std::mem::take(&mut self.ops)
    }

    pub(crate) fn snapshot(&self) -> Vec<TracedOp> {
        self.ops.clone()
    }

    fn len(&self) -> u64 {
        self.base + self.ops.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_scopes_nest_and_restore() {
        assert_eq!(trace_txn(), None);
        {
            let _a = txn_scope(7);
            assert_eq!(trace_txn(), Some(7));
            {
                let _b = txn_scope(9);
                assert_eq!(trace_txn(), Some(9));
            }
            assert_eq!(trace_txn(), Some(7));
        }
        assert_eq!(trace_txn(), None);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let mine = trace_thread();
        assert_eq!(trace_thread(), mine, "id is sticky");
        let other = std::thread::spawn(trace_thread).join().unwrap();
        assert_ne!(mine, other, "each thread gets its own id");
        set_trace_thread(500);
        assert_eq!(trace_thread(), 500);
    }

    #[test]
    fn push_stamps_provenance() {
        set_trace_thread(42);
        let _t = txn_scope(11);
        let mut buf = TraceBuf::default();
        buf.push(TraceEvent::Crash);
        let ops = buf.take();
        assert_eq!(ops[0].thread, 42);
        assert_eq!(ops[0].txn, Some(11));
    }
}
