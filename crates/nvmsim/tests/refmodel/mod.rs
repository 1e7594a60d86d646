//! Reference model of [`nvmsim::NvmDevice`]: the device's line state as it
//! was before the dense line index — a `HashMap<usize, LineBuf>` overlay,
//! one latency charge per flushed line, word-by-word write-back — kept as a
//! test oracle. It is deliberately the slow, obvious formulation; the
//! differential property test drives it and the real device with the same
//! script and requires every observable to agree.
//!
//! Differences from the device are confined to plumbing: an armed trip is
//! *returned* (`Some(event)`) instead of thrown, the diversion clock is a
//! field instead of a thread-local scope, and there is no mutex.

use std::collections::{HashMap, HashSet};

use nvmsim::{
    trace_thread, trace_txn, CrashPolicy, NvmConfig, NvmStats, SimClock, TraceEvent, TracedOp,
    CACHE_LINE, WORDS_PER_LINE, WORD_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct LineBuf {
    data: [u8; CACHE_LINE],
    dirty: u8,
    pair_lead: u8,
}

impl LineBuf {
    fn mark_dirty_words(&mut self, first: usize, last: usize) {
        for w in first..=last {
            self.dirty |= 1 << w;
            self.pair_lead &= !(1u8 << w);
            if w > 0 {
                self.pair_lead &= !(1u8 << (w - 1));
            }
        }
    }

    fn mark_atomic_pair(&mut self, w: usize) {
        self.dirty |= (1 << w) | (1 << (w + 1));
        self.pair_lead |= 1 << w;
        self.pair_lead &= !(1u8 << (w + 1));
    }
}

struct FlushRecord {
    line: usize,
    data: [u8; CACHE_LINE],
    dirty: u8,
    pair_lead: u8,
}

pub struct RefDevice {
    cfg: NvmConfig,
    clock: SimClock,
    /// Where latency lands while set; models an open `divert_charges` scope.
    pub diverted: Option<SimClock>,
    persistent: Vec<u8>,
    overlay: HashMap<usize, LineBuf>,
    epoch: Vec<FlushRecord>,
    stats: NvmStats,
    wear: Vec<u32>,
    events: u64,
    trip_at: Option<u64>,
    trace: Option<Vec<TracedOp>>,
    trace_base: u64,
    in_recovery: bool,
}

impl RefDevice {
    pub fn new(cfg: NvmConfig, clock: SimClock) -> Self {
        RefDevice {
            persistent: vec![0; cfg.capacity],
            wear: vec![0; cfg.capacity / CACHE_LINE],
            trace: cfg.trace_events.then(Vec::new),
            cfg,
            clock,
            diverted: None,
            overlay: HashMap::new(),
            epoch: Vec::new(),
            stats: NvmStats::default(),
            events: 0,
            trip_at: None,
            trace_base: 0,
            in_recovery: false,
        }
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    pub fn stats(&self) -> NvmStats {
        self.stats
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    pub fn set_trip(&mut self, events_from_now: Option<u64>) {
        self.trip_at = events_from_now.map(|n| self.events + n);
    }

    fn charge(&self, ns: u64) {
        self.diverted.as_ref().unwrap_or(&self.clock).advance(ns);
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(TracedOp {
                seq: self.trace_base + t.len() as u64,
                thread: trace_thread(),
                txn: trace_txn(),
                device: 0,
                event,
            });
        }
    }

    fn bump_event(&mut self) -> Option<u64> {
        self.events += 1;
        match self.trip_at {
            Some(t) if self.events >= t => Some(self.events),
            _ => None,
        }
    }

    fn overlay_line(&mut self, line: usize) -> &mut LineBuf {
        let persistent = &self.persistent;
        self.overlay.entry(line).or_insert_with(|| {
            let base = line * CACHE_LINE;
            let mut data = [0u8; CACHE_LINE];
            data.copy_from_slice(&persistent[base..base + CACHE_LINE]);
            LineBuf {
                data,
                dirty: 0,
                pair_lead: 0,
            }
        })
    }

    pub fn write(&mut self, addr: usize, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        self.record(TraceEvent::Store {
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
            let lb = self.overlay_line(line);
            lb.data[off..off + n].copy_from_slice(&buf[pos..pos + n]);
            lb.mark_dirty_words(off / WORD_SIZE, (off + n - 1) / WORD_SIZE);
            pos += n;
            lines += 1;
        }
        self.stats.bytes_stored += buf.len() as u64;
        self.charge(self.cfg.store_ns * lines);
    }

    pub fn read(&mut self, addr: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        if self.in_recovery {
            self.record(TraceEvent::ReadAfterRecovery {
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
            if let Some(lb) = self.overlay.get(&line) {
                buf[pos..pos + n].copy_from_slice(&lb.data[off..off + n]);
                cached_lines += 1;
            } else {
                let base = line * CACHE_LINE;
                buf[pos..pos + n].copy_from_slice(&self.persistent[base + off..base + off + n]);
                media_lines += 1;
            }
            pos += n;
        }
        self.stats.bytes_read += buf.len() as u64;
        self.stats.lines_read += media_lines;
        self.charge(self.cfg.tech.read_ns() * media_lines + self.cfg.store_ns * cached_lines);
    }

    pub fn atomic_write_u64(&mut self, addr: usize, value: u64) -> Option<u64> {
        self.record(TraceEvent::AtomicStore { addr, len: 8 });
        let off = addr % CACHE_LINE;
        let lb = self.overlay_line(addr / CACHE_LINE);
        lb.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        lb.mark_dirty_words(off / WORD_SIZE, off / WORD_SIZE);
        self.stats.atomic_stores += 1;
        self.stats.bytes_stored += 8;
        self.charge(self.cfg.atomic_store_ns);
        self.bump_event()
    }

    pub fn atomic_write_u128(&mut self, addr: usize, value: u128) -> Option<u64> {
        self.record(TraceEvent::AtomicStore { addr, len: 16 });
        let off = addr % CACHE_LINE;
        let lb = self.overlay_line(addr / CACHE_LINE);
        lb.data[off..off + 16].copy_from_slice(&value.to_le_bytes());
        lb.mark_atomic_pair(off / WORD_SIZE);
        self.stats.atomic_stores += 1;
        self.stats.bytes_stored += 16;
        self.charge(self.cfg.atomic_store_ns);
        self.bump_event()
    }

    pub fn clflush(&mut self, addr: usize, len: usize) -> Option<u64> {
        if len == 0 {
            return None;
        }
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        for line in first..=last {
            self.stats.clflush += 1;
            let rec = match self.overlay.get_mut(&line) {
                Some(lb) if lb.dirty != 0 => {
                    let rec = FlushRecord {
                        line,
                        data: lb.data,
                        dirty: lb.dirty,
                        pair_lead: lb.pair_lead,
                    };
                    lb.dirty = 0;
                    lb.pair_lead = 0;
                    Some(rec)
                }
                _ => None,
            };
            self.record(TraceEvent::Clflush {
                line,
                staged: rec.is_some(),
            });
            if let Some(rec) = rec {
                self.epoch.push(rec);
                self.stats.lines_written += 1;
                self.wear[line] += 1;
                self.charge(self.cfg.flush_dirty_ns());
            } else {
                self.charge(self.cfg.clflush_clean_ns);
            }
            if let Some(event) = self.bump_event() {
                return Some(event);
            }
        }
        None
    }

    pub fn sfence(&mut self) -> Option<u64> {
        self.record(TraceEvent::Sfence {
            staged_lines: self.epoch.len(),
        });
        for rec in std::mem::take(&mut self.epoch) {
            apply_record(&mut self.persistent, &rec, u8::MAX);
        }
        if self.cfg.flush_instr.invalidates() {
            self.overlay.retain(|_, lb| lb.dirty != 0);
        }
        self.stats.sfence += 1;
        self.charge(self.cfg.sfence_ns);
        self.bump_event()
    }

    pub fn crash(&mut self, policy: CrashPolicy) {
        self.record(TraceEvent::Crash);
        self.in_recovery = true;
        let mut rng = match policy {
            CrashPolicy::LoseVolatile => {
                self.overlay.clear();
                self.epoch.clear();
                self.trip_at = None;
                return;
            }
            CrashPolicy::PersistAll => None,
            CrashPolicy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        };
        let mut records = std::mem::take(&mut self.epoch);
        let mut lines: Vec<usize> = self.overlay.keys().copied().collect();
        lines.sort_unstable();
        for line in lines {
            let lb = &self.overlay[&line];
            if lb.dirty != 0 {
                records.push(FlushRecord {
                    line,
                    data: lb.data,
                    dirty: lb.dirty,
                    pair_lead: lb.pair_lead,
                });
            }
        }
        for rec in records {
            let keep = rng
                .as_mut()
                .map_or(u8::MAX, |rng| random_keep_mask(rng, &rec));
            apply_record(&mut self.persistent, &rec, keep);
        }
        self.overlay.clear();
        self.trip_at = None;
    }

    pub fn crash_frontier(&mut self, keep: &HashSet<usize>) {
        self.record(TraceEvent::Crash);
        self.in_recovery = true;
        for rec in std::mem::take(&mut self.epoch) {
            if keep.contains(&rec.line) {
                apply_record(&mut self.persistent, &rec, u8::MAX);
            }
        }
        self.overlay.clear();
        self.trip_at = None;
    }

    /// Lines with a record staged in the open fence epoch, in staging order.
    pub fn staged_lines(&self) -> Vec<usize> {
        self.epoch.iter().map(|r| r.line).collect()
    }

    pub fn wear_of(&self, addr: usize) -> u32 {
        self.wear[addr / CACHE_LINE]
    }

    pub fn read_persistent(&self, addr: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.persistent[addr..addr + buf.len()]);
    }

    pub fn note_commit(&mut self, addr: usize, len: usize) {
        if self.trace.is_none() {
            return;
        }
        self.record(TraceEvent::Commit { addr, len });
        self.in_recovery = false;
    }

    pub fn take_trace(&mut self) -> Vec<TracedOp> {
        let Some(t) = &mut self.trace else {
            return Vec::new();
        };
        self.trace_base += t.len() as u64;
        std::mem::take(t)
    }

    pub fn trace_snapshot(&self) -> Vec<TracedOp> {
        self.trace.clone().unwrap_or_default()
    }
}

fn apply_record(persistent: &mut [u8], rec: &FlushRecord, keep: u8) {
    let base = rec.line * CACHE_LINE;
    let mask = rec.dirty & keep;
    for w in 0..WORDS_PER_LINE {
        if mask & (1 << w) != 0 {
            let o = w * WORD_SIZE;
            persistent[base + o..base + o + WORD_SIZE].copy_from_slice(&rec.data[o..o + WORD_SIZE]);
        }
    }
}

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
