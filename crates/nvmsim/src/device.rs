//! The NVM device: a persistent image plus a volatile CPU-cache overlay.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::line::{FlushRecord, LineBuf, CACHE_LINE, WORDS_PER_LINE, WORD_SIZE};
use crate::trace::TraceBuf;
use crate::{NvmConfig, NvmStats, SimClock, TraceEvent, TracedOp, WearSummary};

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
    /// Dense line index into the overlay: `index[line]` is the line's slot
    /// in `slab` plus one, 0 while the line is not cached. One `u32` per
    /// line (`capacity / 16` bytes, zero pages until touched) buys a
    /// hash-free lookup on every stored, loaded and flushed line.
    index: Vec<u32>,
    /// The volatile overlay ("the CPU cache"): cached lines in first-touch
    /// order, each tagged with its line number. `sfence` sweeps out the
    /// clean ones when the flush instruction invalidates.
    slab: Vec<(u32, LineBuf)>,
    epoch: Vec<FlushRecord>,
    stats: NvmStats,
    /// Media writes per cache line (endurance accounting — the paper's
    /// lifetime argument for avoiding double writes, §1/§3.1).
    wear: Vec<u32>,
    events: u64,
    trip_at: Option<u64>,
    /// Event recorder for persist-order analysis; `None` unless
    /// [`NvmConfig::trace_events`] is set.
    trace: Option<TraceBuf>,
    /// True between a crash and the next commit annotation; reads in this
    /// window are traced as [`TraceEvent::ReadAfterRecovery`].
    in_recovery: bool,
    /// Media-fault hook: line indices whose persistent image is "poisoned"
    /// (uncorrectable media error). Loads still return the stored bytes —
    /// the simulator does not corrupt data — but callers that opt in via
    /// [`NvmDevice::check_poison`] can observe the fault and take a
    /// degraded-mode path. A media write to the line scrubs the poison,
    /// as rewriting a failed line does on real NVDIMMs.
    poison: HashSet<usize>,
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
                slab: Vec::new(),
                epoch: Vec::new(),
                stats: NvmStats::default(),
                wear: vec![0; lines],
                events: 0,
                trip_at: None,
                trace,
                in_recovery: false,
                poison: HashSet::new(),
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
            let lb = match buf[pos..pos + n].first_chunk::<CACHE_LINE>() {
                // A store over a whole line not in the overlay has no use
                // for the line's persistent bytes.
                Some(whole) if st.index[line] == 0 => insert_line(&mut st, line, *whole),
                _ => cached_line(&mut st, line),
            };
            lb.data[off..off + n].copy_from_slice(&buf[pos..pos + n]);
            let first_w = off / WORD_SIZE;
            let last_w = (off + n - 1) / WORD_SIZE;
            lb.mark_dirty_words(first_w, last_w);
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
                    let lb = &st.slab[slot as usize - 1].1;
                    buf[pos..pos + n].copy_from_slice(&lb.data[off..off + n]);
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
        let lb = cached_line(&mut st, line);
        lb.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        let w = off / WORD_SIZE;
        lb.mark_dirty_words(w, w);
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
        let lb = cached_line(&mut st, line);
        lb.data[off..off + 16].copy_from_slice(&value.to_le_bytes());
        lb.mark_atomic_pair(off / WORD_SIZE);
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
        let (mut dirty, mut clean) = (0u64, 0u64);
        let mut tripped = None;
        for line in first..=last {
            let staged = match st.index[line] {
                0 => false,
                slot => {
                    let lb = &mut st.slab[slot as usize - 1].1;
                    let staged = !lb.is_clean();
                    if staged {
                        st.epoch.push(FlushRecord::take(line, lb));
                        st.wear[line] += 1;
                    }
                    staged
                }
            };
            record(st, || TraceEvent::Clflush { line, staged });
            if staged {
                dirty += 1;
            } else {
                clean += 1;
            }
            tripped = bump_event(st);
            if tripped.is_some() {
                break;
            }
        }
        st.stats.clflush += dirty + clean;
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
        let staged_lines = st.epoch.len();
        if staged_lines == 0 {
            telemetry::mark(telemetry::phase::NVM_FENCE_EMPTY, 1);
        }
        record(&mut st, || TraceEvent::Sfence { staged_lines });
        st.write_back_epoch(|_| u8::MAX);
        // With an invalidating flush (clflush/clflushopt) the written-back
        // lines leave the CPU cache: drop the clean overlay copies (this
        // also bounds overlay memory). `clwb` keeps them cached, so later
        // reads stay at cache speed.
        if self.cfg.flush_instr.invalidates() {
            st.evict_clean_lines();
        }
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
        if matches!(policy, CrashPolicy::LoseVolatile) {
            st.epoch.clear();
        } else {
            let mut rng = match policy {
                CrashPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
                _ => None,
            };
            let mut keep_mask = |rec: &FlushRecord| {
                rng.as_mut()
                    .map_or(u8::MAX, |rng| random_keep_mask(rng, rec))
            };
            // The order is part of the contract (a crash seed names one
            // exact surviving image): the RNG is consumed over the open
            // fence epoch in staging order, then over the dirty overlay
            // lines in ascending line order.
            st.write_back_epoch(&mut keep_mask);
            st.slab.sort_unstable_by_key(|&(line, _)| line);
            let State {
                slab,
                persistent,
                poison,
                ..
            } = &mut *st;
            for (line, lb) in slab.iter_mut().filter(|(_, lb)| !lb.is_clean()) {
                let rec = FlushRecord::take(*line as usize, lb);
                write_back(persistent, poison, &rec, keep_mask(&rec));
            }
        }
        st.drop_overlay();
        st.trip_at = None;
    }

    /// Endurance summary: media writes per line across the device.
    pub fn wear_summary(&self) -> WearSummary {
        let st = self.state.lock();
        let mut max = 0u32;
        let mut hottest = 0usize;
        let mut touched = 0u64;
        let mut total = 0u64;
        for (i, &w) in st.wear.iter().enumerate() {
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
            lines_total: st.wear.len() as u64,
        }
    }

    /// Media writes so far to the line containing `addr`.
    pub fn wear_of(&self, addr: usize) -> u32 {
        self.state.lock().wear[addr / CACHE_LINE]
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
        for i in lo..hi {
            let w = st.wear[i];
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
            lines_total: (hi - lo) as u64,
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
    /// flush records staged in the currently open fence epoch, exactly
    /// those whose line is in `keep` persist (in staging order); the rest
    /// drop, along with all dirty overlay lines. This is the primitive the
    /// crash-frontier enumerator uses to visit every reachable crash state
    /// between two fences, instead of sampling one with
    /// [`CrashPolicy::Random`]. Like [`Self::crash`], the device keeps
    /// running on the surviving image and any armed trip is cleared.
    pub fn crash_frontier(&self, keep: &HashSet<usize>) {
        let mut st = self.state.lock();
        record(&mut st, || TraceEvent::Crash);
        st.in_recovery = true;
        st.write_back_epoch(|rec| if keep.contains(&rec.line) { u8::MAX } else { 0 });
        st.drop_overlay();
        st.trip_at = None;
    }

    /// Marks the cache line containing `addr` as a media fault: the line's
    /// persistent image is "poisoned" (uncorrectable error). Fault
    /// injection hook for crash/fault campaigns; no clock or stats side
    /// effects.
    pub fn poison(&self, addr: usize) {
        self.check_range(addr, 1);
        self.state.lock().poison.insert(addr / CACHE_LINE);
    }

    /// Clears a poison mark set by [`Self::poison`] without writing the
    /// line (models an explicit management-level scrub).
    pub fn clear_poison(&self, addr: usize) {
        self.state.lock().poison.remove(&(addr / CACHE_LINE));
    }

    /// Returns the base address of the first poisoned line overlapping
    /// `[addr, addr + len)`, or `None` if the range is healthy. Readers
    /// that care about media faults call this before trusting a load.
    pub fn check_poison(&self, addr: usize, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        self.check_range(addr, len);
        let st = self.state.lock();
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        (first..=last)
            .find(|line| st.poison.contains(line))
            .map(|line| line * CACHE_LINE)
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_lines(&self) -> usize {
        self.state.lock().poison.len()
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

/// The overlay copy of `line`, pulled in clean from the persistent image on
/// first touch.
fn cached_line(st: &mut State, line: usize) -> &mut LineBuf {
    match st.index[line] {
        0 => {
            let base = line * CACHE_LINE;
            let mut data = [0u8; CACHE_LINE];
            data.copy_from_slice(&st.persistent[base..base + CACHE_LINE]);
            insert_line(st, line, data)
        }
        slot => &mut st.slab[slot as usize - 1].1,
    }
}

/// Adds `line`, absent from the overlay, as a clean line holding `data`.
fn insert_line(st: &mut State, line: usize, data: [u8; CACHE_LINE]) -> &mut LineBuf {
    st.slab.push((line as u32, LineBuf::clean(data)));
    let slot = st.slab.len();
    st.index[line] = slot as u32;
    &mut st.slab[slot - 1].1
}

impl State {
    /// Drains the open fence epoch in staging order, writing back the words
    /// of each record that `keep_mask` selects (`u8::MAX` = the whole
    /// record, as a fence does). Keeps the epoch's allocation.
    fn write_back_epoch(&mut self, mut keep_mask: impl FnMut(&FlushRecord) -> u8) {
        for rec in &self.epoch {
            write_back(&mut self.persistent, &mut self.poison, rec, keep_mask(rec));
        }
        self.epoch.clear();
    }

    /// Drops the clean lines from the overlay, compacting the dirty ones to
    /// the front of the slab in their existing order.
    fn evict_clean_lines(&mut self) {
        let mut kept = 0usize;
        for i in 0..self.slab.len() {
            let line = self.slab[i].0 as usize;
            if self.slab[i].1.is_clean() {
                self.index[line] = 0;
            } else {
                self.slab.swap(kept, i);
                kept += 1;
                self.index[line] = kept as u32;
            }
        }
        self.slab.truncate(kept);
    }

    /// Empties the overlay (a crash loses the CPU cache).
    fn drop_overlay(&mut self) {
        for (line, _) in self.slab.drain(..) {
            self.index[line as usize] = 0;
        }
    }
}

/// Applies the words of `rec` selected by `keep & rec.dirty` to the image;
/// a media write that lands at least one word scrubs the line's poison.
fn write_back(persistent: &mut [u8], poison: &mut HashSet<usize>, rec: &FlushRecord, keep: u8) {
    let base = rec.line * CACHE_LINE;
    let mask = rec.dirty & keep;
    if mask == u8::MAX {
        persistent[base..base + CACHE_LINE].copy_from_slice(&rec.data);
    } else {
        for w in 0..WORDS_PER_LINE {
            if mask & (1 << w) != 0 {
                let o = w * WORD_SIZE;
                persistent[base + o..base + o + WORD_SIZE]
                    .copy_from_slice(&rec.data[o..o + WORD_SIZE]);
            }
        }
    }
    if mask != 0 && !poison.is_empty() {
        poison.remove(&rec.line);
    }
}

/// Chooses, per dirty word, whether it persists — honouring 16-byte atomic
/// pairs (both words share one coin flip).
fn random_keep_mask(rng: &mut StdRng, rec: &FlushRecord) -> u8 {
    let mut keep = 0u8;
    let mut w = 0;
    while w < WORDS_PER_LINE {
        let bit = 1u8 << w;
        if rec.dirty & bit == 0 {
            w += 1;
            continue;
        }
        if rec.pair_lead & bit != 0 {
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
    fn poison_marks_lines_and_check_finds_first() {
        let d = dev();
        assert_eq!(d.poisoned_lines(), 0);
        d.poison(130); // line 2 (bytes 128..192)
        assert_eq!(d.poisoned_lines(), 1);
        assert_eq!(d.check_poison(0, 64), None);
        assert_eq!(d.check_poison(100, 64), Some(128), "range touches line 2");
        assert_eq!(d.check_poison(128, 64), Some(128));
        assert_eq!(d.check_poison(192, 64), None);
        assert_eq!(d.check_poison(128, 0), None, "empty range is healthy");
        d.clear_poison(191);
        assert_eq!(d.check_poison(0, 4096), None);
    }

    #[test]
    fn media_write_scrubs_poison() {
        let d = dev();
        d.poison(64);
        d.write(64, &[0xEE; 64]);
        assert_eq!(
            d.check_poison(64, 64),
            Some(64),
            "volatile store does not scrub"
        );
        d.persist(64, 64);
        assert_eq!(d.check_poison(64, 64), None, "media write-back scrubs");
        // Crash-applied dirty lines scrub too.
        d.poison(0);
        d.write(0, &[0x11; 64]);
        d.crash(CrashPolicy::PersistAll);
        assert_eq!(d.check_poison(0, 64), None);
    }

    #[test]
    fn poison_does_not_corrupt_data_or_charge_time() {
        let d = dev();
        d.write(0, &[0x42; 64]);
        d.persist(0, 64);
        let t0 = d.clock().now_ns();
        let (s0, e0) = (d.stats(), d.events());
        d.poison(0);
        let _ = d.check_poison(0, 64);
        assert_eq!(d.clock().now_ns(), t0);
        assert_eq!(d.stats(), s0);
        assert_eq!(d.events(), e0);
        let mut b = [0u8; 64];
        d.read(0, &mut b);
        assert_eq!(b, [0x42; 64], "loads still see stored bytes");
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
