//! The NVM device: a persistent image plus a volatile CPU-cache overlay.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::line::{Appended, Run, Slot, CACHE_LINE, WORDS_PER_LINE, WORD_SIZE};
use crate::trace::TraceBuf;
use crate::wear::Wear;
use crate::{NvmConfig, NvmStats, SimClock, TraceEvent, TracedOp, WearSummary};

/// Perf-smell mark (count-only, under the store's span): a store landed on
/// a line already staged in the open fence epoch, so the line is copied to
/// a fresh slot and needs a second flush before the fence — a persist the
/// writer could have issued once. The phases figure matches this name
/// beside `telemetry::phase::NVM_FLUSH_CLEAN` and `NVM_FENCE_EMPTY`.
const STORE_COW_MARK: &str = "nvm.store.cow";

/// Panic payload thrown when an armed crash trip fires (see
/// [`NvmDevice::set_trip`]). `crashsim` catches this with `catch_unwind`
/// to emulate a power failure at an exact persistence event.
#[derive(Clone, Copy, Debug)]
pub struct CrashTripped {
    /// The persistence-event ordinal at which the trip fired.
    pub event: u64,
}

/// How a simulated crash treats data that has not been fenced to NVM.
#[derive(Clone, Copy, Debug)]
pub enum CrashPolicy {
    /// Everything volatile is lost: un-fenced flushes and dirty lines drop.
    /// The most adversarial *ordered* outcome.
    LoseVolatile,
    /// Everything reaches NVM: flushed epochs and dirty lines all persist.
    PersistAll,
    /// Each dirty word / atomic unit independently persists or drops,
    /// decided by an RNG with the given seed. Models write-back reordering
    /// between fences plus spontaneous cache eviction.
    Random(u64),
}

struct State {
    persistent: Vec<u8>,
    /// Dense line index into the overlay: `index[line]` is the slot of the
    /// line's live copy plus one, 0 while the line is not cached. One `u32`
    /// per line (`capacity / 16` bytes, zero pages until touched) buys a
    /// hash-free lookup on every stored, loaded and flushed line.
    index: Vec<u32>,
    /// The volatile overlay ("the CPU cache") in slot order: `slots[i]`
    /// says which line `bytes[i]` holds and in what state. `sfence` drops
    /// the clean slots when the flush instruction invalidates.
    slots: Vec<Slot>,
    bytes: Vec<[u8; CACHE_LINE]>,
    /// The open fence epoch in staging order; its runs name overlay slots.
    epoch: Vec<Run>,
    /// The multi-line stores whose slots are still as the store left
    /// them, in slot order (see [`Appended`]). Any other change to one of
    /// their slots — a store into it, its staging, a compaction — drops
    /// the record first, so a record never names a slot that is not
    /// [`Slot::whole`] for its line.
    appended: Vec<Appended>,
    stats: NvmStats,
    /// Media writes per cache line (see [`Wear`]).
    wear: Wear,
    events: u64,
    trip_at: Option<u64>,
    /// Event recorder for persist-order analysis; `None` unless
    /// [`NvmConfig::trace_events`] is set.
    trace: Option<TraceBuf>,
    /// True between a crash and the next commit annotation; reads in this
    /// window are traced as [`TraceEvent::ReadAfterRecovery`].
    in_recovery: bool,
}

/// Appends to the trace when recording is enabled; free of clock and
/// event-counter side effects, so traced runs simulate identically.
fn record(st: &mut State, event: impl FnOnce() -> TraceEvent) {
    if let Some(t) = &mut st.trace {
        t.push(event());
    }
}

/// Cloneable handle to an [`NvmDevice`].
pub type Nvm = Arc<NvmDevice>;

std::thread_local! {
    /// Per-thread stack of latency-diversion clocks; see [`divert_charges`].
    static DIVERTED_CLOCKS: std::cell::RefCell<Vec<SimClock>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`divert_charges`]; dropping it restores the
/// previous charging target (the device clock, or an outer scope's clock).
pub struct ChargeScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ChargeScope {
    fn drop(&mut self) {
        DIVERTED_CLOCKS.with(|d| {
            d.borrow_mut().pop();
        });
    }
}

/// Diverts this thread's NVM latency charges to `clock` until the returned
/// guard drops. Stores, loads, flushes, and fences issued by the thread
/// still mutate device state, count persistence events, and appear in the
/// trace exactly as before — only the *latency* lands on the private clock
/// instead of the device's shared one.
///
/// This is the overlap model for concurrent commit staging (wall = max,
/// busy = sum, the same discipline `workloads::mtfio` and the destage lane
/// use): each writer stages its payload against a private clock seeded
/// from the shared time, and the sequencer advances the shared clock to
/// the maximum staging completion instant. Scopes nest; the innermost
/// wins. Not `Send` — a scope must stay on the thread that opened it.
pub fn divert_charges(clock: SimClock) -> ChargeScope {
    DIVERTED_CLOCKS.with(|d| d.borrow_mut().push(clock));
    ChargeScope {
        _not_send: std::marker::PhantomData,
    }
}

/// A simulated byte-addressable NVM device.
///
/// All methods take `&self`; the device is internally synchronised and is
/// shared between the cache layer, the recovery code, and crash-injection
/// harnesses via [`Nvm`] (an `Arc`).
pub struct NvmDevice {
    cfg: NvmConfig,
    clock: SimClock,
    state: Mutex<State>,
}

impl NvmDevice {
    /// Creates a zero-initialised device and returns a shared handle.
    pub fn new(cfg: NvmConfig, clock: SimClock) -> Nvm {
        let persistent = vec![0u8; cfg.capacity];
        let lines = cfg.capacity / CACHE_LINE;
        assert!(
            u32::try_from(lines).is_ok(),
            "line index holds u32 slots: capacity {} too large",
            cfg.capacity
        );
        let trace = cfg.trace_events.then(TraceBuf::default);
        Arc::new(Self {
            cfg,
            clock,
            state: Mutex::new(State {
                persistent,
                index: vec![0; lines],
                slots: Vec::new(),
                bytes: Vec::new(),
                epoch: Vec::new(),
                appended: Vec::new(),
                stats: NvmStats::default(),
                wear: Wear::new(lines),
                events: 0,
                trip_at: None,
                trace,
                in_recovery: false,
            }),
        })
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// The device's configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// The simulated clock this device charges latency against.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> NvmStats {
        self.state.lock().stats
    }

    /// Arms a crash trip: after `events_from_now` more persistence events
    /// (`clflush`, `sfence`, or atomic store), the device panics with
    /// [`CrashTripped`]. `None` disarms.
    pub fn set_trip(&self, events_from_now: Option<u64>) {
        let mut st = self.state.lock();
        st.trip_at = events_from_now.map(|n| st.events + n);
    }

    /// Total persistence events so far (used to size crash-fuzz sweeps).
    pub fn events(&self) -> u64 {
        self.state.lock().events
    }

    /// Charges `ns` of device latency: to the thread's diversion clock if a
    /// [`divert_charges`] scope is active, else to the device's shared clock.
    fn charge(&self, ns: u64) {
        let diverted = DIVERTED_CLOCKS.with(|d| {
            if let Some(c) = d.borrow().last() {
                c.advance(ns);
                true
            } else {
                false
            }
        });
        if !diverted {
            self.clock.advance(ns);
        }
    }

    fn check_range(&self, addr: usize, len: usize) {
        assert!(
            addr.checked_add(len)
                .is_some_and(|end| end <= self.cfg.capacity),
            "NVM access out of range: addr={addr} len={len} cap={}",
            self.cfg.capacity
        );
    }

    /// Plain stores of `buf` at `addr`. Lands in the volatile overlay; not
    /// durable until flushed and fenced.
    pub fn write(&self, addr: usize, buf: &[u8]) {
        self.check_range(addr, buf.len());
        if buf.is_empty() {
            return;
        }
        let _t = telemetry::span(telemetry::phase::NVM_STORE);
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::Store {
            addr,
            len: buf.len(),
        });
        let mut pos = 0usize;
        let mut lines = 0u64;
        while pos < buf.len() {
            let a = addr + pos;
            let line = a / CACHE_LINE;
            let off = a % CACHE_LINE;
            let n = (CACHE_LINE - off).min(buf.len() - pos);
            match buf[pos..pos + n].first_chunk::<CACHE_LINE>() {
                Some(whole) => {
                    // The aligned whole lines from here that no slot holds
                    // yet take fresh slots in one extend.
                    let rest = (buf.len() - pos) / CACHE_LINE;
                    let fresh = st.index[line..line + rest]
                        .iter()
                        .take_while(|&&slot| slot == 0)
                        .count();
                    if fresh > 0 {
                        let end = pos + fresh * CACHE_LINE;
                        st.append_whole_lines(line, &buf[pos..end]);
                        pos = end;
                        lines += fresh as u64;
                        continue;
                    }
                    st.store_whole_line(line, whole);
                }
                None => {
                    let slot = st.writable_slot(line);
                    st.bytes[slot][off..off + n].copy_from_slice(&buf[pos..pos + n]);
                    st.slots[slot].mark_dirty_words(off / WORD_SIZE, (off + n - 1) / WORD_SIZE);
                }
            }
            pos += n;
            lines += 1;
        }
        st.stats.bytes_stored += buf.len() as u64;
        self.charge(self.cfg.store_ns * lines);
    }

    /// Reads `buf.len()` bytes at `addr`, seeing the newest (possibly
    /// volatile) data, as a CPU load would.
    pub fn read(&self, addr: usize, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        if buf.is_empty() {
            return;
        }
        let _t = telemetry::span(telemetry::phase::NVM_READ);
        let mut st = self.state.lock();
        if st.in_recovery {
            record(&mut st, || TraceEvent::ReadAfterRecovery {
                addr,
                len: buf.len(),
            });
        }
        let mut pos = 0usize;
        let mut media_lines = 0u64;
        let mut cached_lines = 0u64;
        while pos < buf.len() {
            let a = addr + pos;
            let line = a / CACHE_LINE;
            let off = a % CACHE_LINE;
            let n = (CACHE_LINE - off).min(buf.len() - pos);
            match st.index[line] {
                0 => {
                    buf[pos..pos + n].copy_from_slice(&st.persistent[a..a + n]);
                    media_lines += 1;
                }
                slot => {
                    let data = &st.bytes[slot as usize - 1];
                    buf[pos..pos + n].copy_from_slice(&data[off..off + n]);
                    cached_lines += 1;
                }
            }
            pos += n;
        }
        st.stats.bytes_read += buf.len() as u64;
        st.stats.lines_read += media_lines;
        self.charge(self.cfg.tech.read_ns() * media_lines + self.cfg.store_ns * cached_lines);
    }

    /// 8-byte failure-atomic store (plain `mov` of an aligned u64).
    pub fn atomic_write_u64(&self, addr: usize, value: u64) {
        assert!(
            addr.is_multiple_of(8),
            "atomic u64 store must be 8-byte aligned"
        );
        self.check_range(addr, 8);
        let _t = telemetry::span(telemetry::phase::NVM_ATOMIC_STORE);
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::AtomicStore { addr, len: 8 });
        let line = addr / CACHE_LINE;
        let off = addr % CACHE_LINE;
        let slot = st.writable_slot(line);
        st.bytes[slot][off..off + 8].copy_from_slice(&value.to_le_bytes());
        let w = off / WORD_SIZE;
        st.slots[slot].mark_dirty_words(w, w);
        st.stats.atomic_stores += 1;
        st.stats.bytes_stored += 8;
        self.charge(self.cfg.atomic_store_ns);
        self.bump_event(st);
    }

    /// 16-byte failure-atomic store (`LOCK cmpxchg16b`, §4.2 of the paper).
    /// The two words persist all-or-nothing across a crash.
    pub fn atomic_write_u128(&self, addr: usize, value: u128) {
        assert!(
            addr.is_multiple_of(16),
            "atomic u128 store must be 16-byte aligned"
        );
        self.check_range(addr, 16);
        let _t = telemetry::span(telemetry::phase::NVM_ATOMIC_STORE);
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::AtomicStore { addr, len: 16 });
        let line = addr / CACHE_LINE;
        let off = addr % CACHE_LINE;
        let slot = st.writable_slot(line);
        st.bytes[slot][off..off + 16].copy_from_slice(&value.to_le_bytes());
        st.slots[slot].mark_atomic_pair(off / WORD_SIZE);
        st.stats.atomic_stores += 1;
        st.stats.bytes_stored += 16;
        self.charge(self.cfg.atomic_store_ns);
        self.bump_event(st);
    }

    /// Convenience aligned u64 load.
    pub fn read_u64(&self, addr: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience aligned u128 load.
    pub fn read_u128(&self, addr: usize) -> u128 {
        let mut b = [0u8; 16];
        self.read(addr, &mut b);
        u128::from_le_bytes(b)
    }

    /// Executes `clflush` for every cache line overlapping `[addr, addr+len)`.
    /// Flushed data is ordered/durable only after the next [`Self::sfence`].
    pub fn clflush(&self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(addr, len);
        // Held across the armed-trip panic too: the guard exits during
        // unwind, so flush time up to the crash point stays attributed.
        let _t = telemetry::span(telemetry::phase::NVM_FLUSH);
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // Latency and counters are summed over the range and applied once
        // per call, before the lock drops — and before an armed trip
        // unwinds, so the clock at every crash point is what per-line
        // charging would have left.
        let lines = (last - first + 1) as u64;
        let (mut dirty, mut flushed) = (0u64, 0u64);
        let mut tripped = None;
        if st.trace.is_none() && st.trip_at.is_none_or(|t| st.events + lines < t) {
            // Nothing to record, and no armed trip inside the range: its
            // events are `events + 1 ..= events + lines`, and a trip fires
            // at the first one that reaches `trip_at`. Stage the dirty
            // lines — a range held whole-dirty in consecutive slots as one
            // run — then count the range's events at once. Otherwise each
            // line records and counts its own event, so a trip stops the
            // loop at its exact line.
            if last > first && st.stage_run(first, last) {
                dirty = lines;
            } else {
                for line in first..=last {
                    dirty += u64::from(st.stage_run(line, line));
                }
            }
            st.events += lines;
            flushed = lines;
        } else {
            for line in first..=last {
                let staged = st.stage_run(line, line);
                record(st, || TraceEvent::Clflush { line, staged });
                dirty += u64::from(staged);
                flushed += 1;
                tripped = bump_event(st);
                if tripped.is_some() {
                    break;
                }
            }
        }
        let clean = flushed - dirty;
        st.stats.clflush += flushed;
        st.stats.lines_written += dirty;
        if clean > 0 {
            telemetry::mark(telemetry::phase::NVM_FLUSH_CLEAN, clean);
        }
        self.charge(self.cfg.flush_dirty_ns() * dirty + self.cfg.clflush_clean_ns * clean);
        if let Some(event) = tripped {
            drop(guard);
            std::panic::panic_any(CrashTripped { event });
        }
    }

    /// Executes `sfence`: all previously flushed lines become durable, in
    /// order, before any later store may persist.
    pub fn sfence(&self) {
        let _t = telemetry::span(telemetry::phase::NVM_FENCE);
        let mut st = self.state.lock();
        let staged_lines = st.epoch.iter().map(|run| run.len).sum();
        if staged_lines == 0 {
            telemetry::mark(telemetry::phase::NVM_FENCE_EMPTY, 1);
        }
        record(&mut st, || TraceEvent::Sfence { staged_lines });
        st.fence_epoch();
        // With an invalidating flush (clflush/clflushopt) the written-back
        // lines leave the CPU cache: drop the clean overlay copies (this
        // also bounds overlay memory). `clwb` keeps them cached, so later
        // reads stay at cache speed; only the orphans go.
        if self.cfg.flush_instr.invalidates() {
            st.drop_clean(staged_lines);
        } else {
            st.unstage();
        }
        st.epoch.clear();
        st.stats.sfence += 1;
        self.charge(self.cfg.sfence_ns);
        self.bump_event(st);
    }

    /// `clflush` the range then `sfence` — the paper's standard persist
    /// sequence for a store.
    pub fn persist(&self, addr: usize, len: usize) {
        self.clflush(addr, len);
        self.sfence();
    }

    /// Simulates a power failure. Volatile state is resolved according to
    /// `policy`, then discarded; the device keeps running on the surviving
    /// persistent image (as after a reboot). Any armed trip is cleared.
    pub fn crash(&self, policy: CrashPolicy) {
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::Crash);
        st.in_recovery = true;
        if !matches!(policy, CrashPolicy::LoseVolatile) {
            let mut rng = match policy {
                CrashPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
                _ => None,
            };
            let mut keep_mask = |dirty, pair_lead| {
                rng.as_mut()
                    .map_or(u8::MAX, |rng| random_keep_mask(rng, dirty, pair_lead))
            };
            // The order is part of the contract (a crash seed names one
            // exact surviving image): the RNG is consumed over the open
            // fence epoch in staging order, line by line within a run, then
            // over the dirty overlay lines in ascending line order.
            st.crash_epoch(|_, run| keep_mask(run.dirty, run.pair_lead));
            let mut dirty: Vec<(u32, usize)> = (st.slots.iter().enumerate())
                .filter(|(_, slot)| slot.dirty != 0)
                .map(|(i, slot)| (slot.line, i))
                .collect();
            dirty.sort_unstable();
            for (line, i) in dirty {
                let Slot {
                    dirty, pair_lead, ..
                } = st.slots[i];
                st.write_back(line as usize, i, keep_mask(dirty, pair_lead) & dirty);
            }
        }
        st.drop_overlay();
        st.trip_at = None;
    }

    /// Endurance summary: media writes per line across the device.
    pub fn wear_summary(&self) -> WearSummary {
        self.wear_summary_range(0, self.cfg.capacity)
    }

    /// Media writes so far to the line containing `addr`.
    pub fn wear_of(&self, addr: usize) -> u32 {
        self.state.lock().wear.of(addr / CACHE_LINE)
    }

    /// Endurance summary restricted to `[addr_lo, addr_hi)` — e.g. a
    /// cache's payload area, excluding its pointer/metadata hotspots.
    pub fn wear_summary_range(&self, addr_lo: usize, addr_hi: usize) -> WearSummary {
        let st = self.state.lock();
        let lo = addr_lo / CACHE_LINE;
        let hi = (addr_hi / CACHE_LINE).min(st.wear.len());
        let mut max = 0u32;
        let mut hottest = lo;
        let mut touched = 0u64;
        let mut total = 0u64;
        for (i, w) in st.wear.per_line(hi).enumerate().skip(lo) {
            total += w as u64;
            if w > 0 {
                touched += 1;
            }
            if w > max {
                max = w;
                hottest = i;
            }
        }
        WearSummary {
            total_line_writes: total,
            max_line_writes: max,
            hottest_line_addr: hottest * CACHE_LINE,
            lines_touched: touched,
            lines_total: hi.saturating_sub(lo) as u64,
        }
    }

    /// Reads directly from the persistent image, bypassing the overlay —
    /// what a post-crash reboot would observe. Intended for tests and
    /// recovery verification.
    pub fn read_persistent(&self, addr: usize, buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        let st = self.state.lock();
        buf.copy_from_slice(&st.persistent[addr..addr + buf.len()]);
    }

    /// Annotates the trace: the commit record in `[addr, addr + len)` was
    /// just persisted, so the protocol now relies on everything it
    /// references being durable. Pure annotation — no clock, statistics,
    /// or persistence-event side effects — and a no-op unless tracing is
    /// enabled, so commit paths may call it unconditionally.
    pub fn note_commit(&self, addr: usize, len: usize) {
        if !self.cfg.trace_events {
            return;
        }
        let mut st = self.state.lock();
        self.check_range(addr, len);
        record(&mut st, || TraceEvent::Commit { addr, len });
        st.in_recovery = false;
    }

    /// Annotates the trace: the calling thread just acquired mutex `obj`.
    /// The happens-before engine draws an edge from the last release of
    /// `obj`. Pure annotation — no clock, statistics, or persistence-event
    /// side effects — and a no-op unless tracing is enabled, so lock paths
    /// may call it unconditionally.
    pub fn note_lock_acquire(&self, obj: u64) {
        if !self.cfg.trace_events {
            return;
        }
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::LockAcquire { obj });
    }

    /// Annotates the trace: the calling thread is about to release mutex
    /// `obj`, publishing its history to the next acquirer. Pure annotation
    /// (see [`Self::note_lock_acquire`]).
    pub fn note_lock_release(&self, obj: u64) {
        if !self.cfg.trace_events {
            return;
        }
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::LockRelease { obj });
    }

    /// Annotates the trace: the calling thread performed an acquire-ordered
    /// atomic load of sync object `obj` (adopting the history published by
    /// the last release-store to it). Pure annotation.
    pub fn note_atomic_load_acquire(&self, obj: u64) {
        if !self.cfg.trace_events {
            return;
        }
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::AtomicLoadAcquire { obj });
    }

    /// Annotates the trace: the calling thread performed a release-ordered
    /// atomic store to sync object `obj` (publishing its history to later
    /// acquire-loads). Pure annotation.
    pub fn note_atomic_store_release(&self, obj: u64) {
        if !self.cfg.trace_events {
            return;
        }
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::AtomicStoreRelease { obj });
    }

    /// Simulates a power failure at an *exact* persist frontier: of the
    /// lines staged in the currently open fence epoch, exactly those in
    /// `keep` persist (in staging order); the rest drop, along with all
    /// dirty overlay lines. This is the primitive the
    /// crash-frontier enumerator uses to visit every reachable crash state
    /// between two fences, instead of sampling one with
    /// [`CrashPolicy::Random`]. Like [`Self::crash`], the device keeps
    /// running on the surviving image and any armed trip is cleared.
    pub fn crash_frontier(&self, keep: &HashSet<usize>) {
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::Crash);
        st.in_recovery = true;
        st.crash_epoch(|line, _| if keep.contains(&line) { u8::MAX } else { 0 });
        st.drop_overlay();
        st.trip_at = None;
    }

    /// Drains and returns the recorded trace. Sequence numbers keep
    /// increasing across drains. Empty when tracing is disabled.
    pub fn take_trace(&self) -> Vec<TracedOp> {
        let mut st = self.state.lock();
        st.trace.as_mut().map(TraceBuf::take).unwrap_or_default()
    }

    /// Clones the recorded-but-not-drained trace without consuming it.
    pub fn trace_snapshot(&self) -> Vec<TracedOp> {
        let st = self.state.lock();
        st.trace
            .as_ref()
            .map(TraceBuf::snapshot)
            .unwrap_or_default()
    }

    fn bump_event(&self, st: parking_lot::MutexGuard<'_, State>) {
        let mut st = st;
        if let Some(event) = bump_event(&mut st) {
            drop(st);
            std::panic::panic_any(CrashTripped { event });
        }
    }
}

/// Increments the persistence-event counter; returns `Some(event)` if an
/// armed trip fired (the caller must drop the lock and panic).
fn bump_event(st: &mut State) -> Option<u64> {
    st.events += 1;
    match st.trip_at {
        Some(t) if st.events >= t => Some(st.events),
        _ => None,
    }
}

impl State {
    /// `clflush` of lines `first ..= last`: stages them as one run of the
    /// open fence epoch, counting one media write of wear per line, if
    /// consecutive slots hold them and they are dirty — every one
    /// whole-dirty without an atomic pair when there is more than one.
    /// Returns whether it did; otherwise nothing changed. A range that
    /// one store appended and nothing touched since matches its record
    /// and skips the checks.
    fn stage_run(&mut self, first: usize, last: usize) -> bool {
        let slot = match self.index[first] {
            0 => return false,
            s => s as usize - 1,
        };
        let len = last - first + 1;
        if len > 1 && self.take_appended(first, slot, len) {
            self.stage_slots(first, slot, len, u8::MAX, 0);
            return true;
        }
        let Some(slots) = self.slots.get(slot..slot + len) else {
            return false;
        };
        let (dirty, pair_lead) = (slots[0].dirty, slots[0].pair_lead);
        let held = (self.index[first..=last].iter())
            .zip(slot as u32 + 1..)
            .all(|(&s, want)| s == want);
        let whole = || slots.iter().all(|s| s.dirty == u8::MAX && s.pair_lead == 0);
        if !held || dirty == 0 || (len > 1 && !whole()) {
            return false;
        }
        self.drop_appended(slot, len);
        self.stage_slots(first, slot, len, dirty, pair_lead);
        true
    }

    /// Stages lines `first ..` from slots `slot .. slot + len` as one run
    /// whose lines carry the word masks `dirty` and `pair_lead`, and
    /// counts one media write of wear per line.
    fn stage_slots(&mut self, first: usize, slot: usize, len: usize, dirty: u8, pair_lead: u8) {
        for s in &mut self.slots[slot..slot + len] {
            s.dirty = 0;
            s.pair_lead = 0;
            s.staged = true;
        }
        self.wear.count_run(first, len);
        self.epoch.push(Run {
            line: first,
            slot,
            len,
            dirty,
            pair_lead,
        });
    }

    /// Removes and confirms the record of a store that appended exactly
    /// lines `first .. first + len` into slots from `slot`.
    fn take_appended(&mut self, first: usize, slot: usize, len: usize) -> bool {
        let i = self.appended.partition_point(|r| r.slot < slot);
        let matched = self
            .appended
            .get(i)
            .is_some_and(|r| r.slot == slot && r.line == first && r.len == len);
        if matched {
            self.appended.remove(i);
        }
        matched
    }

    /// Drops the record of every append that owns a slot among
    /// `slot .. slot + len`, before those slots change.
    fn drop_appended(&mut self, slot: usize, len: usize) {
        let lo = self.appended.partition_point(|r| r.slot + r.len <= slot);
        let n = (self.appended[lo..].iter())
            .take_while(|r| r.slot < slot + len)
            .count();
        self.appended.drain(lo..lo + n);
    }

    /// Makes a new slot holding `data` the live copy of `slot.line`;
    /// returns the slot.
    fn push_slot(&mut self, slot: Slot, data: [u8; CACHE_LINE]) -> usize {
        self.index[slot.line as usize] = self.slots.len() as u32 + 1;
        self.slots.push(slot);
        self.bytes.push(data);
        self.slots.len() - 1
    }

    /// The slot a partial store to `line` writes: the line's live copy,
    /// read in clean from the persistent image on first touch, and copied
    /// to a fresh slot while the open epoch reads it (copy-on-write).
    fn writable_slot(&mut self, line: usize) -> usize {
        let data = match self.index[line] {
            0 => {
                let base = line * CACHE_LINE;
                let image = &self.persistent[base..base + CACHE_LINE];
                *image.first_chunk().expect("a whole line")
            }
            s => {
                let slot = s as usize - 1;
                if !self.slots[slot].staged {
                    self.drop_appended(slot, 1);
                    return slot;
                }
                telemetry::mark(STORE_COW_MARK, 1);
                self.slots[slot].orphan = true;
                self.bytes[slot]
            }
        };
        self.push_slot(Slot::clean(line), data)
    }

    /// A plain store over all of `line`, which is cached: its live copy
    /// becomes `data`, every word dirty and no atomic pair left — what a
    /// copy plus [`Slot::mark_dirty_words`] over the whole line leaves — in
    /// one copy, into a fresh slot while the open epoch reads the old one.
    fn store_whole_line(&mut self, line: usize, data: &[u8; CACHE_LINE]) {
        let slot = self.index[line] as usize - 1;
        if self.slots[slot].staged {
            telemetry::mark(STORE_COW_MARK, 1);
            self.slots[slot].orphan = true;
            self.push_slot(Slot::whole(line), *data);
        } else {
            self.drop_appended(slot, 1);
            self.slots[slot] = Slot::whole(line);
            self.bytes[slot] = *data;
        }
    }

    /// Plain stores over whole lines `first ..`, none of them cached:
    /// `data` (whole lines) becomes their live copies, every word dirty, in
    /// fresh slots taken with one extend, recorded as appended when there
    /// is more than one.
    fn append_whole_lines(&mut self, first: usize, data: &[u8]) {
        let (lines, _) = data.as_chunks::<CACHE_LINE>();
        let base = self.slots.len();
        if lines.len() > 1 {
            self.appended.push(Appended {
                line: first,
                slot: base,
                len: lines.len(),
            });
        }
        self.bytes.extend_from_slice(lines);
        self.slots
            .extend((first..first + lines.len()).map(Slot::whole));
        let index = &mut self.index[first..first + lines.len()];
        for (entry, slot) in index.iter_mut().zip(base as u32 + 1..) {
            *entry = slot;
        }
    }

    /// Writes the open epoch back as a fence does: every staged word, one
    /// copy per whole-dirty run. The epoch and its slots' `staged` marks
    /// stay for the caller to drop.
    fn fence_epoch(&mut self) {
        for run in &self.epoch {
            let base = run.line * CACHE_LINE;
            let src = self.bytes[run.slot..run.slot + run.len].as_flattened();
            write_words(&mut self.persistent[base..base + src.len()], src, run.dirty);
        }
    }

    /// Drains the open epoch in staging order, line by line within a run,
    /// writing back the words of each line that `keep_mask(line, run)`
    /// selects.
    fn crash_epoch(&mut self, mut keep_mask: impl FnMut(usize, &Run) -> u8) {
        for run in std::mem::take(&mut self.epoch) {
            for k in 0..run.len {
                let keep = keep_mask(run.line + k, &run) & run.dirty;
                self.write_back(run.line + k, run.slot + k, keep);
            }
        }
    }

    /// Applies the words of slot `slot` selected by `keep` to `line`'s
    /// persistent image.
    fn write_back(&mut self, line: usize, slot: usize, keep: u8) {
        let base = line * CACHE_LINE;
        let image = &mut self.persistent[base..base + CACHE_LINE];
        write_words(image, &self.bytes[slot], keep);
    }

    /// Ends the epoch's hold on its slots while they stay cached (`clwb`):
    /// staged copies become plain clean ones, and the orphans leave.
    fn unstage(&mut self) {
        let mut orphans = false;
        for run in &self.epoch {
            for slot in &mut self.slots[run.slot..run.slot + run.len] {
                slot.staged = false;
                orphans |= slot.orphan;
            }
        }
        if orphans {
            self.retain_slots(|_| true);
        }
    }

    /// Drops every clean slot, as a fence with an invalidating flush
    /// leaves the overlay. When the epoch staged every slot, which a
    /// writer that flushes all it stores before each fence always
    /// leaves, that empties the overlay: each run's lines leave the index
    /// at once, and no slot is read.
    fn drop_clean(&mut self, staged_lines: usize) {
        if staged_lines == self.slots.len() {
            for run in &self.epoch {
                self.index[run.line..run.line + run.len].fill(0);
            }
            self.slots.clear();
            self.bytes.clear();
            self.appended.clear();
        } else {
            self.retain_slots(|slot| slot.dirty != 0);
        }
    }

    /// Keeps the live copies `keep` selects, compacted to the front of the
    /// overlay in their existing order; the others leave the line index,
    /// and every orphan (which the index does not name) goes. Compaction
    /// moves slots, so every append record goes too.
    fn retain_slots(&mut self, keep: impl Fn(&Slot) -> bool) {
        self.appended.clear();
        let mut kept = 0usize;
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            let line = slot.line as usize;
            if slot.orphan {
                continue;
            }
            if !keep(&slot) {
                self.index[line] = 0;
                continue;
            }
            if kept != i {
                self.slots[kept] = slot;
                self.bytes[kept] = self.bytes[i];
            }
            kept += 1;
            self.index[line] = kept as u32;
        }
        self.slots.truncate(kept);
        self.bytes.truncate(kept);
    }

    /// Empties the overlay and the open epoch (a crash loses the CPU cache).
    fn drop_overlay(&mut self) {
        self.retain_slots(|_| false);
        self.epoch.clear();
    }
}

/// Copies `src` into `dst` (equal lengths): all of it when `mask` is
/// `u8::MAX`, otherwise — `src` is one line — the words `mask` selects.
fn write_words(dst: &mut [u8], src: &[u8], mask: u8) {
    if mask == u8::MAX {
        dst.copy_from_slice(src);
        return;
    }
    for w in 0..WORDS_PER_LINE {
        if mask & (1 << w) != 0 {
            let o = w * WORD_SIZE;
            dst[o..o + WORD_SIZE].copy_from_slice(&src[o..o + WORD_SIZE]);
        }
    }
}

/// Chooses, per dirty word, whether it persists — honouring 16-byte atomic
/// pairs (both words share one coin flip).
fn random_keep_mask(rng: &mut StdRng, dirty: u8, pair_lead: u8) -> u8 {
    let mut keep = 0u8;
    let mut w = 0;
    while w < WORDS_PER_LINE {
        let bit = 1u8 << w;
        if dirty & bit == 0 {
            w += 1;
            continue;
        }
        if pair_lead & bit != 0 {
            if rng.gen::<bool>() {
                keep |= bit | (bit << 1);
            }
            w += 2;
        } else {
            if rng.gen::<bool>() {
                keep |= bit;
            }
            w += 1;
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmTech;

    fn dev() -> Nvm {
        NvmDevice::new(NvmConfig::new(4096, NvmTech::Pcm), SimClock::new())
    }

    #[test]
    fn diverted_charges_land_on_the_private_clock() {
        let d = dev();
        let shared_before = d.clock().now_ns();
        let private = SimClock::new();
        private.advance_to(shared_before);
        {
            let _scope = divert_charges(private.clone());
            d.write(0, &[0xAA; 64]);
            d.clflush(0, 64);
        }
        // State changed, events counted, but the shared clock stood still.
        assert_eq!(d.clock().now_ns(), shared_before);
        assert!(private.now_ns() > shared_before, "staging time was charged");
        assert!(d.events() > 0, "flush still counted as a persistence event");
        // Outside the scope, charging reverts to the shared clock.
        d.sfence();
        assert!(d.clock().now_ns() > shared_before);
        let mut b = [0u8; 64];
        d.read(0, &mut b);
        assert_eq!(b, [0xAA; 64]);
    }

    #[test]
    fn divert_scopes_nest_innermost_wins() {
        let d = dev();
        let outer = SimClock::new();
        let inner = SimClock::new();
        let _o = divert_charges(outer.clone());
        {
            let _i = divert_charges(inner.clone());
            d.write(0, &[1u8; 64]);
        }
        d.write(64, &[2u8; 64]);
        assert!(inner.now_ns() > 0, "inner scope charged the inner clock");
        assert!(outer.now_ns() > 0, "after pop, outer clock charges resume");
        assert_eq!(d.clock().now_ns(), 0);
    }

    #[test]
    fn read_your_writes_before_flush() {
        let d = dev();
        d.write(100, b"hello");
        let mut b = [0u8; 5];
        d.read(100, &mut b);
        assert_eq!(&b, b"hello");
    }

    #[test]
    fn unflushed_write_lost_on_crash() {
        let d = dev();
        d.write(0, &[0xAA; 64]);
        d.crash(CrashPolicy::LoseVolatile);
        let mut b = [0u8; 64];
        d.read(0, &mut b);
        assert_eq!(b, [0u8; 64]);
    }

    #[test]
    fn flushed_but_unfenced_write_lost_under_lose_volatile() {
        let d = dev();
        d.write(0, &[0xAA; 64]);
        d.clflush(0, 64);
        d.crash(CrashPolicy::LoseVolatile);
        let mut b = [0u8; 64];
        d.read(0, &mut b);
        assert_eq!(b, [0u8; 64]);
    }

    #[test]
    fn fenced_write_survives_any_crash() {
        for policy in [
            CrashPolicy::LoseVolatile,
            CrashPolicy::PersistAll,
            CrashPolicy::Random(7),
        ] {
            let d = dev();
            d.write(0, &[0xAB; 64]);
            d.persist(0, 64);
            d.crash(policy);
            let mut b = [0u8; 64];
            d.read(0, &mut b);
            assert_eq!(b, [0xAB; 64]);
        }
    }

    #[test]
    fn persist_all_keeps_unflushed_stores() {
        let d = dev();
        d.write(128, &[0x11; 8]);
        d.crash(CrashPolicy::PersistAll);
        assert_eq!(d.read_u64(128), u64::from_le_bytes([0x11; 8]));
    }

    #[test]
    fn atomic_u128_never_tears() {
        let old: u128 = 0x1111_1111_1111_1111_2222_2222_2222_2222;
        let new: u128 = 0x3333_3333_3333_3333_4444_4444_4444_4444;
        for seed in 0..64 {
            let d = dev();
            d.write(0, &old.to_le_bytes());
            d.persist(0, 16);
            d.atomic_write_u128(0, new);
            d.clflush(0, 16);
            // Crash before the fence: the store may or may not persist,
            // but must never be half-applied.
            d.crash(CrashPolicy::Random(seed));
            let got = d.read_u128(0);
            assert!(
                got == old || got == new,
                "torn 16B atomic: {got:#x} (seed {seed})"
            );
        }
    }

    #[test]
    fn plain_16_byte_write_can_tear() {
        let old = [0u8; 16];
        let new = [0xFFu8; 16];
        let mut torn = false;
        for seed in 0..256 {
            let d = dev();
            d.write(0, &old);
            d.persist(0, 16);
            d.write(0, &new);
            d.clflush(0, 16);
            d.crash(CrashPolicy::Random(seed));
            let mut got = [0u8; 16];
            d.read(0, &mut got);
            if got != old && got != new {
                torn = true;
                break;
            }
        }
        assert!(torn, "expected some seed to tear a plain 16B write");
    }

    #[test]
    fn fence_orders_epochs() {
        // Epoch 1 is fenced, epoch 2 is not: after an adversarial crash the
        // first write must survive even though the second is lost.
        let d = dev();
        d.write(0, &[1u8; 8]);
        d.persist(0, 8);
        d.write(64, &[2u8; 8]);
        d.clflush(64, 8);
        d.crash(CrashPolicy::LoseVolatile);
        assert_eq!(d.read_u64(0), u64::from_le_bytes([1; 8]));
        assert_eq!(d.read_u64(64), 0);
    }

    #[test]
    fn rewrite_after_flush_keeps_flushed_version_on_fence() {
        let d = dev();
        d.write(0, &[1u8; 8]);
        d.clflush(0, 8);
        d.write(0, &[2u8; 8]); // dirty again, newer value volatile
        d.sfence(); // applies the flushed snapshot (value 1)
        d.crash(CrashPolicy::LoseVolatile);
        assert_eq!(d.read_u64(0), u64::from_le_bytes([1; 8]));
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let d = dev();
        d.write(0, &[7u8; 256]);
        d.clflush(0, 256); // 4 lines, all dirty
        d.sfence();
        d.clflush(0, 256); // 4 lines, now clean
        let s = d.stats();
        assert_eq!(s.clflush, 8);
        assert_eq!(s.lines_written, 4);
        assert_eq!(s.sfence, 1);
        assert_eq!(s.bytes_stored, 256);
    }

    #[test]
    fn only_a_flush_over_whole_dirty_lines_in_consecutive_slots_stages_one_run() {
        let runs = |d: &Nvm| {
            let st = d.state.lock();
            st.epoch.iter().map(|run| run.len).collect::<Vec<_>>()
        };
        let d = dev();
        d.write(0, &[1u8; 256]);
        d.clflush(0, 256);
        assert_eq!(runs(&d), [4], "one store over four lines");
        d.sfence();
        d.write(64, &[2u8; 64]);
        d.write(0, &[2u8; 64]);
        d.clflush(0, 128);
        assert_eq!(runs(&d), [1, 1], "slots out of line order");
        d.sfence();
        d.write(0, &[3u8; 64]);
        d.write(64, &[3u8; 8]);
        d.clflush(0, 128);
        assert_eq!(runs(&d), [1, 1], "a partly dirty line");
        d.sfence();
        d.write(0, &[4u8; 128]);
        d.atomic_write_u128(64, 4);
        d.clflush(0, 128);
        assert_eq!(runs(&d), [1, 1], "an atomic pair");
        let t = traced_dev();
        t.write(0, &[5u8; 256]);
        t.clflush(0, 256);
        assert_eq!(
            runs(&t),
            [1, 1, 1, 1],
            "a traced device stages line by line"
        );
    }

    #[test]
    fn a_flush_over_an_appended_run_stages_it_from_its_record_and_the_fence_empties_the_overlay() {
        let d = dev();
        let records = |d: &Nvm| d.state.lock().appended.len();
        d.write(0, &[1u8; 256]);
        d.write(512, &[2u8; 64]);
        assert_eq!(records(&d), 1, "only a multi-line store is recorded");
        d.clflush(0, 256);
        assert_eq!(records(&d), 0, "the flush took the record");
        d.clflush(512, 64);
        d.sfence();
        let st = d.state.lock();
        assert!(st.slots.is_empty() && st.bytes.is_empty());
        assert!(st.index.iter().all(|&slot| slot == 0));
        drop(st);
        assert_eq!((d.wear_of(0), d.wear_of(192), d.wear_of(256)), (1, 1, 0));
        // A store into the run before its flush drops the record.
        d.write(0, &[3u8; 256]);
        d.atomic_write_u64(64, 7);
        assert_eq!(records(&d), 0);
    }

    #[test]
    fn clean_flush_is_cheaper() {
        let d = dev();
        d.write(0, &[1u8; 64]);
        let t0 = d.clock().now_ns();
        d.clflush(0, 64);
        let dirty_cost = d.clock().now_ns() - t0;
        d.sfence();
        let t1 = d.clock().now_ns();
        d.clflush(0, 64);
        let clean_cost = d.clock().now_ns() - t1;
        assert!(dirty_cost > clean_cost);
    }

    #[test]
    fn trip_fires_at_exact_event() {
        let d = dev();
        d.write(0, &[1u8; 64]);
        d.set_trip(Some(2)); // 1st event: clflush below; 2nd: sfence
        d.clflush(0, 64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.sfence()));
        let err = r.expect_err("trip should fire");
        let t = err.downcast_ref::<CrashTripped>().expect("payload type");
        assert_eq!(t.event, 2);
        // Events fire after the instruction takes effect, so the fence has
        // already made the write durable; the device stays usable.
        d.crash(CrashPolicy::LoseVolatile);
        assert_eq!(d.read_u64(0), u64::from_le_bytes([1; 8]));
    }

    #[test]
    fn read_persistent_bypasses_overlay() {
        let d = dev();
        d.write(0, &[9u8; 8]);
        let mut b = [1u8; 8];
        d.read_persistent(0, &mut b);
        assert_eq!(b, [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let d = dev();
        d.write(4090, &[0u8; 16]);
    }

    #[test]
    fn wear_counts_media_writes_per_line() {
        let d = dev();
        d.write(0, &[1u8; 64]);
        d.persist(0, 64);
        d.write(0, &[2u8; 64]);
        d.persist(0, 64);
        d.write(128, &[3u8; 64]);
        d.persist(128, 64);
        assert_eq!(d.wear_of(0), 2);
        assert_eq!(d.wear_of(130), 1);
        assert_eq!(d.wear_of(64), 0);
        let w = d.wear_summary();
        assert_eq!(w.total_line_writes, 3);
        assert_eq!(w.max_line_writes, 2);
        assert_eq!(w.hottest_line_addr, 0);
        assert_eq!(w.lines_touched, 2);
    }

    #[test]
    fn clwb_keeps_lines_cached_for_fast_rereads() {
        use crate::FlushInstr;
        let mk = |instr: FlushInstr| {
            let cfg = NvmConfig::new(4096, NvmTech::Pcm).with_flush_instr(instr);
            NvmDevice::new(cfg, SimClock::new())
        };
        // clflush: after persist, the re-read pays media latency.
        let d = mk(FlushInstr::Clflush);
        d.write(0, &[1u8; 64]);
        d.persist(0, 64);
        let r0 = d.stats().lines_read;
        let mut b = [0u8; 64];
        d.read(0, &mut b);
        assert_eq!(d.stats().lines_read - r0, 1, "clflush evicts → media read");
        // clwb: the line stays cached.
        let d = mk(FlushInstr::Clwb);
        d.write(0, &[1u8; 64]);
        d.persist(0, 64);
        let r0 = d.stats().lines_read;
        d.read(0, &mut b);
        assert_eq!(d.stats().lines_read - r0, 0, "clwb retains → cache read");
        // Durability is identical.
        d.crash(CrashPolicy::LoseVolatile);
        d.read(0, &mut b);
        assert_eq!(b, [1u8; 64]);
    }

    fn traced_dev() -> Nvm {
        NvmDevice::new(
            NvmConfig::new(4096, NvmTech::Pcm).with_tracing(),
            SimClock::new(),
        )
    }

    #[test]
    fn tracing_off_records_nothing() {
        let d = dev();
        d.write(0, &[1u8; 64]);
        d.persist(0, 64);
        d.note_commit(0, 8);
        assert!(d.take_trace().is_empty());
    }

    #[test]
    fn trace_records_event_stream_in_order() {
        use crate::TraceEvent as E;
        let d = traced_dev();
        d.write(0, &[1u8; 64]);
        d.clflush(0, 64);
        d.sfence();
        d.atomic_write_u64(64, 7);
        d.note_commit(64, 8);
        let t = d.take_trace();
        let kinds: Vec<_> = t.iter().map(|op| op.event.kind()).collect();
        assert_eq!(
            kinds,
            ["store", "clflush", "sfence", "atomic-store", "commit"]
        );
        assert_eq!(t[0].seq, 0);
        assert_eq!(t[4].seq, 4);
        assert_eq!(
            t[1].event,
            E::Clflush {
                line: 0,
                staged: true
            }
        );
        assert_eq!(t[2].event, E::Sfence { staged_lines: 1 });
        assert_eq!(t[4].event, E::Commit { addr: 64, len: 8 });
    }

    #[test]
    fn trace_marks_clean_flushes_and_empty_fences() {
        use crate::TraceEvent as E;
        let d = traced_dev();
        d.write(0, &[1u8; 64]);
        d.persist(0, 64);
        d.clflush(0, 64); // clean: nothing to stage
        d.sfence(); // empty epoch
        let t = d.take_trace();
        assert_eq!(
            t[3].event,
            E::Clflush {
                line: 0,
                staged: false
            }
        );
        assert_eq!(t[4].event, E::Sfence { staged_lines: 0 });
    }

    #[test]
    fn trace_survives_crash_and_tags_recovery_reads() {
        use crate::TraceEvent as E;
        let d = traced_dev();
        d.write(0, &[1u8; 8]);
        d.persist(0, 8);
        d.crash(CrashPolicy::LoseVolatile);
        let _ = d.read_u64(0); // recovery inspecting survivor state
        d.note_commit(0, 8); // recovery done
        let _ = d.read_u64(0); // normal read: not traced
        let t = d.take_trace();
        let kinds: Vec<_> = t.iter().map(|op| op.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "store",
                "clflush",
                "sfence",
                "crash",
                "read-after-recovery",
                "commit"
            ]
        );
        assert_eq!(t[4].event, E::ReadAfterRecovery { addr: 0, len: 8 });
    }

    #[test]
    fn trace_seq_keeps_increasing_across_drains() {
        let d = traced_dev();
        d.write(0, &[1u8; 8]);
        let a = d.take_trace();
        d.sfence();
        let b = d.take_trace();
        assert_eq!(a[0].seq, 0);
        assert_eq!((a.len(), b.len()), (1, 1));
        assert_eq!(b[0].seq, 1);
    }

    #[test]
    fn tracing_does_not_change_time_stats_or_events() {
        let run = |d: Nvm| {
            d.write(0, &[5u8; 128]);
            d.persist(0, 128);
            d.atomic_write_u64(256, 9);
            d.persist(256, 8);
            d.note_commit(256, 8);
            (d.clock().now_ns(), d.events(), d.stats())
        };
        let (t0, e0, s0) = run(dev());
        let (t1, e1, s1) = run(traced_dev());
        assert_eq!(t0, t1, "tracing must not change simulated time");
        assert_eq!(e0, e1, "tracing must not change persistence-event count");
        assert_eq!(s0.clflush, s1.clflush);
        assert_eq!(s0.sfence, s1.sfence);
        assert_eq!(s0.bytes_stored, s1.bytes_stored);
    }

    #[test]
    fn sync_notes_are_traced_with_provenance() {
        use crate::TraceEvent as E;
        crate::set_trace_thread(3);
        let d = traced_dev();
        d.note_lock_acquire(10);
        {
            let _t = crate::txn_scope(77);
            d.write(0, &[1u8; 8]);
        }
        d.note_lock_release(10);
        d.note_atomic_store_release(11);
        d.note_atomic_load_acquire(11);
        let t = d.take_trace();
        let kinds: Vec<_> = t.iter().map(|op| op.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "lock-acquire",
                "store",
                "lock-release",
                "atomic-store-release",
                "atomic-load-acquire"
            ]
        );
        assert_eq!(t[0].event, E::LockAcquire { obj: 10 });
        assert!(t[0].event.is_sync());
        assert!(!t[1].event.is_sync());
        assert_eq!(t[1].txn, Some(77), "store inside the txn scope is tagged");
        assert_eq!(t[2].txn, None, "scope closed before the release");
        for op in &t {
            assert_eq!(op.thread, 3);
        }
    }

    #[test]
    fn sync_notes_are_pure_annotations() {
        let d = dev();
        let t0 = d.clock().now_ns();
        let (s0, e0) = (d.stats(), d.events());
        d.note_lock_acquire(1);
        d.note_lock_release(1);
        d.note_atomic_load_acquire(2);
        d.note_atomic_store_release(2);
        assert_eq!(d.clock().now_ns(), t0);
        assert_eq!(d.stats(), s0);
        assert_eq!(d.events(), e0);
        assert!(d.take_trace().is_empty(), "tracing off records nothing");
    }

    #[test]
    fn crash_frontier_persists_exactly_the_kept_lines() {
        use std::collections::HashSet;
        let d = dev();
        d.write(0, &[1u8; 64]);
        d.write(64, &[2u8; 64]);
        d.write(128, &[3u8; 64]);
        d.clflush(0, 192); // three lines staged in the open epoch
        d.write(256, &[4u8; 64]); // dirty, never flushed
        let keep: HashSet<usize> = [0usize, 2].into_iter().collect();
        d.crash_frontier(&keep);
        assert_eq!(d.read_u64(0), u64::from_le_bytes([1; 8]), "kept");
        assert_eq!(d.read_u64(64), 0, "staged but dropped");
        assert_eq!(d.read_u64(128), u64::from_le_bytes([3; 8]), "kept");
        assert_eq!(d.read_u64(256), 0, "dirty overlay always lost");
    }

    #[test]
    fn crash_frontier_applies_same_line_records_in_order() {
        use std::collections::HashSet;
        let d = dev();
        d.write(0, &[1u8; 8]);
        d.clflush(0, 8);
        d.write(0, &[2u8; 8]);
        d.clflush(0, 8); // second record for the same line, later in epoch
        let keep: HashSet<usize> = [0usize].into_iter().collect();
        d.crash_frontier(&keep);
        assert_eq!(
            d.read_u64(0),
            u64::from_le_bytes([2; 8]),
            "later staging wins"
        );
    }

    #[test]
    fn crash_frontier_full_keep_matches_fence() {
        use std::collections::HashSet;
        let d = dev();
        d.write(0, &[7u8; 128]);
        d.clflush(0, 128);
        let keep: HashSet<usize> = [0usize, 1].into_iter().collect();
        d.crash_frontier(&keep);
        let d2 = dev();
        d2.write(0, &[7u8; 128]);
        d2.persist(0, 128);
        d2.crash(CrashPolicy::LoseVolatile);
        let (mut a, mut b) = ([0u8; 128], [0u8; 128]);
        d.read(0, &mut a);
        d2.read(0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn clock_charges_media_latency_on_flush() {
        let d = dev();
        d.write(0, &[1u8; 64]);
        let t0 = d.clock().now_ns();
        d.clflush(0, 64);
        // PCM write = 240ns + 40ns overhead
        assert_eq!(d.clock().now_ns() - t0, 280);
    }
}
