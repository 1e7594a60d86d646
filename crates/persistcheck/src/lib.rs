//! # persistcheck — persist-ordering analysis over nvmsim traces
//!
//! A `pmemcheck`-style rule engine: replay an [`nvmsim`] event trace
//! (recorded with [`NvmConfig::with_tracing`](nvmsim::NvmConfig)) and
//! report stores that a crash could expose as lost, reordered, or torn —
//! plus persistence-instruction waste.
//!
//! ## Rules
//!
//! Correctness (any hit fails the check):
//!
//! * **missing-flush** — a line stored inside the commit window (since the
//!   previous commit/crash) is still dirty when the commit record
//!   persists: a crash right after the commit point can lose data the
//!   commit record claims durable.
//! * **flush-without-fence** — a commit-window line was flushed but only
//!   became durable on the *same* `sfence` as the commit record itself.
//!   Within one fence epoch write-backs are unordered, so a crash inside
//!   that epoch can persist the commit record without the data. (With
//!   [`CheckConfig::strict`], a fence epoch still open at a crash or at
//!   the end of the trace is also flagged; shadow-mode checking leaves
//!   this off because crash injection legitimately trips mid-epoch.)
//! * **torn-update** — a plain multi-word store to a single metadata cache
//!   line that was durable before: plain stores only have 8-byte failure
//!   atomicity, so recovery can observe the line half-updated. Metadata
//!   updates must go through `atomic_write_u64`/`atomic_write_u128`.
//!
//! Concurrency rules (the *persistrace* engine, in the `race` module):
//! driven by the thread/txn provenance and sync annotations on each
//! [`TracedOp`], a vector-clock happens-before engine with an
//! Eraser-style lockset fallback. All three are correctness rules; none
//! can fire on a single-threaded trace (it is totally ordered).
//!
//! * **persist-race** — two threads' unfenced stores to the same cache
//!   line with no happens-before edge.
//! * **unordered-commit** — a commit annotation not HB-after the fence
//!   that made the data it covers durable.
//! * **cross-thread-flush-dependency** — thread A's durability depends on
//!   a flush only thread B issues, with no sync edge A→B.
//!
//! Performance lints (reported separately, never fail the check):
//!
//! * **redundant-flush** — `clflush` of a clean line: costs latency,
//!   persists nothing.
//! * **fence-without-flush** — `sfence` with an empty flush epoch: orders
//!   nothing.
//!
//! The analyzer is protocol-agnostic: it keys on
//! [`TraceEvent::Commit`](nvmsim::TraceEvent) annotations emitted by the
//! commit path ([`NvmDevice::note_commit`](nvmsim::NvmDevice)) and on the
//! caller-declared metadata address ranges in [`CheckConfig`].
//!
//! ## Multi-device (merged) traces
//!
//! Every [`TracedOp`] names its originating device; a single device
//! records `0`, and [`nvmsim::merge_shard_traces`] stamps each op with
//! its shard index. Fence epochs, fence counters, and commit windows are
//! kept **per device**: an `sfence` on shard A orders only shard A's
//! write-backs, and a commit record judges only the stores of its own
//! device. The happens-before engine, by contrast, is pool-global — it
//! follows threads and sync objects across devices, which is exactly
//! what lets the race rules see a thread hand work between shards.

mod race;

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use nvmsim::{TraceEvent, TracedOp, CACHE_LINE, WORD_SIZE};
use race::RaceEngine;
use telemetry::Json;

/// How many example event ordinals each perf-lint counter retains.
const LINT_EXAMPLES: usize = 8;

/// Analyzer configuration.
#[derive(Clone, Debug, Default)]
pub struct CheckConfig {
    /// Byte ranges holding crash-critical metadata (headers, ring slots,
    /// entry tables). The torn-update rule only fires inside these ranges;
    /// bulk data regions are exempt because block payloads are guarded by
    /// the commit protocol, not by store atomicity.
    pub metadata_ranges: Vec<Range<usize>>,
    /// Also flag fence epochs left open at a crash or at the end of the
    /// trace as flush-without-fence. Off in shadow mode: injected crashes
    /// land mid-epoch by design.
    pub strict: bool,
}

impl CheckConfig {
    /// Config with the given metadata ranges, non-strict.
    pub fn with_metadata(metadata_ranges: Vec<Range<usize>>) -> Self {
        CheckConfig {
            metadata_ranges,
            strict: false,
        }
    }

    fn overlaps_metadata(&self, start: usize, end: usize) -> bool {
        self.metadata_ranges
            .iter()
            .any(|r| start < r.end && r.start < end)
    }
}

/// The analyzer rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    MissingFlush,
    FlushWithoutFence,
    TornUpdate,
    PersistRace,
    UnorderedCommit,
    CrossThreadFlushDependency,
    RedundantFlush,
    FenceWithoutFlush,
}

impl Rule {
    /// Every rule, correctness first, in report order.
    pub const ALL: [Rule; 8] = [
        Rule::MissingFlush,
        Rule::FlushWithoutFence,
        Rule::TornUpdate,
        Rule::PersistRace,
        Rule::UnorderedCommit,
        Rule::CrossThreadFlushDependency,
        Rule::RedundantFlush,
        Rule::FenceWithoutFlush,
    ];

    /// Stable kebab-case rule name, as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::MissingFlush => "missing-flush",
            Rule::FlushWithoutFence => "flush-without-fence",
            Rule::TornUpdate => "torn-update",
            Rule::PersistRace => "persist-race",
            Rule::UnorderedCommit => "unordered-commit",
            Rule::CrossThreadFlushDependency => "cross-thread-flush-dependency",
            Rule::RedundantFlush => "redundant-flush",
            Rule::FenceWithoutFlush => "fence-without-flush",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One correctness violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    /// Base address of the affected cache line.
    pub addr: usize,
    /// Trace ordinals of the responsible events (e.g. the store and the
    /// commit that exposed it).
    pub events: Vec<u64>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let evs: Vec<String> = self.events.iter().map(|e| format!("#{e}")).collect();
        write!(
            f,
            "{} @ {:#x} [{}]: {}",
            self.rule.name(),
            self.addr,
            evs.join(", "),
            self.detail
        )
    }
}

/// Analysis result: correctness violations plus perf-lint counters.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Correctness violations (missing-flush, flush-without-fence,
    /// torn-update), in trace order.
    pub violations: Vec<Violation>,
    /// Number of clean-line `clflush`es (redundant-flush lint).
    pub redundant_flushes: u64,
    /// First few trace ordinals of redundant flushes.
    pub redundant_flush_events: Vec<u64>,
    /// Number of no-op `sfence`s (fence-without-flush lint).
    pub empty_fences: u64,
    /// First few trace ordinals of no-op fences.
    pub empty_fence_events: Vec<u64>,
    /// Commit annotations seen.
    pub commits: u64,
    /// Crashes seen.
    pub crashes: u64,
    /// Events analyzed.
    pub events: u64,
}

impl Report {
    /// True when no correctness violation was found (perf lints may
    /// still be non-zero).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of correctness violations of `rule`.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// Names of the rules that fired, deduplicated, in trace order.
    pub fn fired_rules(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for v in &self.violations {
            if !out.contains(&v.rule.name()) {
                out.push(v.rule.name());
            }
        }
        out
    }

    /// Machine-readable report. The schema is stable — downstream tooling
    /// parses it — and versioned by the `schema` field:
    ///
    /// ```json
    /// {"schema":1,"events":N,"commits":N,"crashes":N,"clean":bool,
    ///  "counts":{"<rule-name>":N, ...},                 // all 8 rules, always present
    ///  "violations":[{"rule":"...","addr":N,"events":[N,...],"detail":"..."}],
    ///  "redundant_flush_events":[N,...],"empty_fence_events":[N,...]}
    /// ```
    pub fn to_json(&self) -> Json {
        let ordinals = |evs: &[u64]| Json::Arr(evs.iter().map(|&e| Json::U64(e)).collect());
        let counts = Rule::ALL
            .iter()
            .map(|&r| {
                let n = match r {
                    Rule::RedundantFlush => self.redundant_flushes,
                    Rule::FenceWithoutFlush => self.empty_fences,
                    _ => self.count(r) as u64,
                };
                (r.name().to_string(), Json::U64(n))
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::U64(1)),
            ("events", Json::U64(self.events)),
            ("commits", Json::U64(self.commits)),
            ("crashes", Json::U64(self.crashes)),
            ("clean", Json::Bool(self.is_clean())),
            ("counts", Json::Obj(counts)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("rule", v.rule.name().into()),
                                ("addr", Json::U64(v.addr as u64)),
                                ("events", ordinals(&v.events)),
                                ("detail", v.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "redundant_flush_events",
                ordinals(&self.redundant_flush_events),
            ),
            ("empty_fence_events", ordinals(&self.empty_fence_events)),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "persistcheck: {} events, {} commits, {} crashes",
            self.events, self.commits, self.crashes
        )?;
        writeln!(f, "  correctness violations: {}", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "    {v}")?;
        }
        let fmt_examples = |evs: &[u64]| -> String {
            if evs.is_empty() {
                String::new()
            } else {
                let s: Vec<String> = evs.iter().map(|e| format!("#{e}")).collect();
                format!(" (first at {})", s.join(", "))
            }
        };
        writeln!(
            f,
            "  redundant-flush      : {} clean-line clflush{}{}",
            self.redundant_flushes,
            if self.redundant_flushes == 1 {
                ""
            } else {
                "es"
            },
            fmt_examples(&self.redundant_flush_events)
        )?;
        writeln!(
            f,
            "  fence-without-flush  : {} no-op sfence{}{}",
            self.empty_fences,
            if self.empty_fences == 1 { "" } else { "s" },
            fmt_examples(&self.empty_fence_events)
        )?;
        write!(
            f,
            "verdict: {}",
            if self.is_clean() { "CLEAN" } else { "FAIL" }
        )
    }
}

/// Per-cache-line analyzer state.
#[derive(Clone, Copy, Debug, Default)]
struct LineState {
    /// Stored since last flush.
    dirty: bool,
    /// Flushed into the currently open fence epoch.
    staged: bool,
    /// Ordinal of the most recent flush of this line.
    last_flush_seq: u64,
    /// Fence epoch (1-based per-device sfence count) at which the line
    /// last became durable; 0 = never fenced.
    last_fence: u64,
    /// Ever made durable by a fence (used as the torn-update
    /// precondition: formatting fresh, never-persisted space with plain
    /// stores is fine).
    durable_once: bool,
    /// Device the line belongs to. Devices of a merged shard trace never
    /// share lines (shard addresses are rebased to disjoint ranges), so
    /// stamping on every touch is stable.
    device: u32,
}

/// Per-device fence-pipeline state. A single-device trace (`device == 0`
/// on every op) uses exactly one of these; a merged shard trace
/// ([`nvmsim::merge_shard_traces`]) gets one per shard, because an
/// `sfence` orders only the write-backs of its own device and a commit
/// record only judges the commit window of the device it was written to.
#[derive(Debug, Default)]
struct DevState {
    /// Lines flushed into this device's currently open fence epoch.
    epoch_lines: Vec<usize>,
    /// Lines stored on this device since its last commit/crash →
    /// ordinal of the latest store.
    window: HashMap<usize, u64>,
    /// sfences seen on this device so far (1-based epoch ids).
    fences: u64,
}

/// Incremental trace analyzer. Feed events with [`Checker::push`] (in
/// trace order, possibly across multiple drains of the device trace), then
/// read [`Checker::report`] or call [`Checker::finish`].
#[derive(Debug)]
pub struct Checker {
    cfg: CheckConfig,
    lines: HashMap<usize, LineState>,
    /// Fence/commit pipeline state, keyed by originating device (ordered
    /// so strict end-of-trace sweeps report deterministically).
    devs: std::collections::BTreeMap<u32, DevState>,
    last_seq: Option<u64>,
    /// Happens-before + lockset state for the concurrency rules.
    race: RaceEngine,
    report: Report,
}

impl Checker {
    pub fn new(cfg: CheckConfig) -> Self {
        Checker {
            cfg,
            lines: HashMap::new(),
            devs: std::collections::BTreeMap::new(),
            last_seq: None,
            race: RaceEngine::default(),
            report: Report::default(),
        }
    }

    /// Feeds one event. Events must arrive in `seq` order.
    pub fn push(&mut self, op: &TracedOp) {
        if let Some(prev) = self.last_seq {
            debug_assert!(
                op.seq > prev,
                "trace events out of order: {} after {prev}",
                op.seq
            );
        }
        self.last_seq = Some(op.seq);
        self.report.events += 1;
        let t = op.thread;
        let d = op.device;
        self.race.begin(t);
        match op.event {
            TraceEvent::Store { addr, len } => self.on_store(t, d, op.seq, addr, len, false),
            TraceEvent::AtomicStore { addr, len } => self.on_store(t, d, op.seq, addr, len, true),
            TraceEvent::Clflush { line, staged } => self.on_clflush(t, d, op.seq, line, staged),
            TraceEvent::Sfence { staged_lines } => self.on_sfence(t, d, op.seq, staged_lines),
            TraceEvent::Commit { addr, len } => self.on_commit(t, d, op.seq, addr, len),
            TraceEvent::Crash => self.on_crash(d, op.seq),
            TraceEvent::ReadAfterRecovery { .. } => {}
            TraceEvent::LockAcquire { obj } => self.race.acquire(t, obj),
            TraceEvent::LockRelease { obj } => self.race.release(t, obj),
            TraceEvent::AtomicLoadAcquire { obj } => self.race.load_acquire(t, obj),
            TraceEvent::AtomicStoreRelease { obj } => self.race.store_release(t, obj),
        }
    }

    /// Feeds a batch of events.
    pub fn push_all(&mut self, ops: &[TracedOp]) {
        for op in ops {
            self.push(op);
        }
    }

    /// Snapshot of the findings so far (strict end-of-trace checks not
    /// applied — use [`Checker::finish`] for those).
    pub fn report(&self) -> Report {
        self.report.clone()
    }

    /// Consumes the checker, applying strict end-of-trace checks when
    /// configured, and returns the final report.
    pub fn finish(mut self) -> Report {
        if self.cfg.strict {
            let seq = self.last_seq.map_or(0, |s| s + 1);
            let devices: Vec<u32> = self.devs.keys().copied().collect();
            for d in devices {
                self.flag_open_epoch(d, seq, "end of trace");
            }
        }
        self.report
    }

    fn on_store(&mut self, t: u32, d: u32, seq: u64, addr: usize, len: usize, atomic: bool) {
        if len == 0 {
            return;
        }
        let first = addr / CACHE_LINE;
        let last = (addr + len - 1) / CACHE_LINE;
        self.race
            .store(t, seq, first..=last, &mut self.report.violations);
        for line in first..=last {
            let base = line * CACHE_LINE;
            let start = addr.max(base);
            let end = (addr + len).min(base + CACHE_LINE);
            let ls = self.lines.entry(line).or_default();
            let words = (end - 1) / WORD_SIZE - start / WORD_SIZE + 1;
            if !atomic && words >= 2 && ls.durable_once && self.cfg.overlaps_metadata(start, end) {
                self.report.violations.push(Violation {
                    rule: Rule::TornUpdate,
                    addr: base,
                    events: vec![seq],
                    detail: format!(
                        "plain store of {} bytes ({words} words) to durable metadata line \
                         {base:#x}; only 8-byte atomicity — use atomic_write_u64/u128",
                        end - start
                    ),
                });
            }
            let ls = self.lines.entry(line).or_default();
            ls.dirty = true;
            ls.device = d;
            self.devs.entry(d).or_default().window.insert(line, seq);
        }
    }

    fn on_clflush(&mut self, t: u32, d: u32, seq: u64, line: usize, staged: bool) {
        if staged {
            self.race.flush(t, seq, line, &mut self.report.violations);
            let ls = self.lines.entry(line).or_default();
            ls.dirty = false;
            ls.device = d;
            if !ls.staged {
                ls.staged = true;
                self.devs.entry(d).or_default().epoch_lines.push(line);
            }
            ls.last_flush_seq = seq;
        } else {
            self.report.redundant_flushes += 1;
            if self.report.redundant_flush_events.len() < LINT_EXAMPLES {
                self.report.redundant_flush_events.push(seq);
            }
        }
    }

    fn on_sfence(&mut self, t: u32, d: u32, seq: u64, staged_lines: usize) {
        let dev = self.devs.entry(d).or_default();
        dev.fences += 1;
        if staged_lines == 0 {
            self.report.empty_fences += 1;
            if self.report.empty_fence_events.len() < LINT_EXAMPLES {
                self.report.empty_fence_events.push(seq);
            }
        }
        let fences = dev.fences;
        for line in dev.epoch_lines.drain(..) {
            if let Some(ls) = self.lines.get_mut(&line) {
                ls.staged = false;
                ls.last_fence = fences;
                ls.durable_once = true;
                self.race.fence_line(t, seq, line, ls.dirty);
            }
        }
    }

    fn on_commit(&mut self, t: u32, d: u32, seq: u64, addr: usize, len: usize) {
        self.report.commits += 1;
        let rec_first = addr / CACHE_LINE;
        let rec_last = if len == 0 {
            rec_first
        } else {
            (addr + len - 1) / CACHE_LINE
        };
        let dev = self.devs.entry(d).or_default();
        let dev_fences = dev.fences;
        // Deterministic report order: judge window lines oldest-store first.
        let mut entries: Vec<(usize, u64)> = dev.window.drain().collect();
        entries.sort_by_key(|&(l, s)| (s, l));
        for (line, store_seq) in entries {
            if (rec_first..=rec_last).contains(&line) {
                continue; // the commit record itself
            }
            let Some(ls) = self.lines.get(&line) else {
                continue;
            };
            let base = line * CACHE_LINE;
            if ls.dirty {
                self.report.violations.push(Violation {
                    rule: Rule::MissingFlush,
                    addr: base,
                    events: vec![store_seq, seq],
                    detail: format!(
                        "line {base:#x} stored at #{store_seq} never flushed before the \
                         commit record persisted at #{seq}; a crash now loses committed data"
                    ),
                });
            } else if ls.last_fence == dev_fences {
                self.report.violations.push(Violation {
                    rule: Rule::FlushWithoutFence,
                    addr: base,
                    events: vec![ls.last_flush_seq, seq],
                    detail: format!(
                        "line {base:#x} flushed at #{} but only fenced together with the \
                         commit record at #{seq}; within one fence epoch write-backs are \
                         unordered, so the commit record can persist first",
                        ls.last_flush_seq
                    ),
                });
            } else if ls.last_fence != 0 {
                // Durable in an earlier epoch: the data is safe, but the
                // commit must still be ordered after the fence that made
                // it so — another thread's fence needs a sync edge.
                self.race
                    .commit_check(t, seq, line, &mut self.report.violations);
            }
        }
    }

    fn on_crash(&mut self, d: u32, seq: u64) {
        self.report.crashes += 1;
        self.race.crash();
        if self.cfg.strict {
            self.flag_open_epoch(d, seq, "crash");
        }
        // The crashed device drops its volatile state; mirror it. Other
        // devices of a merged trace keep theirs — power is per device.
        for ls in self.lines.values_mut() {
            if ls.device == d {
                ls.dirty = false;
                ls.staged = false;
            }
        }
        if let Some(dev) = self.devs.get_mut(&d) {
            dev.epoch_lines.clear();
            dev.window.clear();
        }
    }

    fn flag_open_epoch(&mut self, d: u32, seq: u64, at: &str) {
        let open = match self.devs.get_mut(&d) {
            Some(dev) => std::mem::take(&mut dev.epoch_lines),
            None => return,
        };
        for line in open {
            let Some(ls) = self.lines.get(&line) else {
                continue;
            };
            if !ls.staged {
                continue;
            }
            let base = line * CACHE_LINE;
            self.report.violations.push(Violation {
                rule: Rule::FlushWithoutFence,
                addr: base,
                events: vec![ls.last_flush_seq, seq],
                detail: format!(
                    "line {base:#x} flushed at #{} but its fence epoch was still open at \
                     {at} (#{seq}); the write-back was not yet ordered durable",
                    ls.last_flush_seq
                ),
            });
        }
    }
}

/// One-shot analysis of a complete trace.
pub fn check(trace: &[TracedOp], cfg: CheckConfig) -> Report {
    let mut c = Checker::new(cfg);
    c.push_all(trace);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    /// A traced 4 KiB device; metadata = first 256 bytes.
    fn traced() -> (nvmsim::Nvm, CheckConfig) {
        let dev = NvmDevice::new(
            NvmConfig::new(4096, NvmTech::Pcm).with_tracing(),
            SimClock::new(),
        );
        let meta = 0..256;
        (dev, CheckConfig::with_metadata(vec![meta]))
    }

    #[test]
    fn clean_commit_protocol_passes() {
        let (d, cfg) = traced();
        // data → persist → commit record → persist → commit note.
        d.write(1024, &[7u8; 128]);
        d.persist(1024, 128);
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        assert!(r.is_clean(), "unexpected violations: {r}");
        assert_eq!(r.commits, 1);
    }

    #[test]
    fn missing_flush_detected() {
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 128]); // never flushed
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        assert_eq!(
            r.count(Rule::MissingFlush),
            2,
            "one violation per dirty line: {r}"
        );
        assert_eq!(r.fired_rules(), ["missing-flush"]);
        // Events name the store and the commit.
        let v = &r.violations[0];
        assert_eq!(v.events.len(), 2);
        assert_eq!(v.addr, 1024);
    }

    #[test]
    fn flush_without_fence_detected_at_commit() {
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 64]);
        d.clflush(1024, 64); // flushed, but no sfence of its own…
        d.atomic_write_u64(0, 1);
        d.persist(0, 8); // …the commit's fence carries it
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        assert_eq!(r.count(Rule::FlushWithoutFence), 1, "{r}");
        assert_eq!(r.fired_rules(), ["flush-without-fence"]);
    }

    #[test]
    fn strict_flags_epoch_open_at_crash() {
        let (d, mut cfg) = traced();
        d.write(1024, &[7u8; 64]);
        d.clflush(1024, 64);
        d.crash(nvmsim::CrashPolicy::LoseVolatile);
        cfg.strict = true;
        let r = check(&d.take_trace(), cfg.clone());
        assert_eq!(r.count(Rule::FlushWithoutFence), 1);
        // Non-strict shadow mode tolerates it (crash injection trips
        // mid-epoch by design).
        let (d2, _) = traced();
        d2.write(1024, &[7u8; 64]);
        d2.clflush(1024, 64);
        d2.crash(nvmsim::CrashPolicy::LoseVolatile);
        cfg.strict = false;
        assert!(check(&d2.take_trace(), cfg).is_clean());
    }

    #[test]
    fn torn_update_detected_on_durable_metadata() {
        let (d, cfg) = traced();
        // Make the metadata line durable first (e.g. formatted earlier).
        d.write(64, &[0u8; 16]);
        d.persist(64, 16);
        // Now a plain two-word update — recovery could see it half-done.
        d.write(64, &[9u8; 16]);
        let r = check(&d.take_trace(), cfg);
        assert_eq!(r.count(Rule::TornUpdate), 1, "{r}");
        assert_eq!(r.fired_rules(), ["torn-update"]);
    }

    #[test]
    fn torn_update_not_flagged_for_atomic_or_fresh_or_data() {
        let (d, cfg) = traced();
        // 16-byte atomic to durable metadata: fine.
        d.write(64, &[0u8; 16]);
        d.persist(64, 16);
        d.atomic_write_u128(64, 42);
        // Plain multi-word to *fresh* metadata (formatting): fine.
        d.write(128, &[0u8; 64]);
        // Plain multi-word outside metadata ranges (bulk data): fine.
        d.write(2048, &[5u8; 512]);
        let r = check(&d.take_trace(), cfg);
        assert_eq!(r.count(Rule::TornUpdate), 0, "{r}");
    }

    #[test]
    fn redundant_flush_counted_not_failed() {
        let (d, cfg) = traced();
        d.write(1024, &[1u8; 64]);
        d.persist(1024, 64);
        d.clflush(1024, 64); // clean line
        d.clflush(1024, 64); // again
        let r = check(&d.take_trace(), cfg);
        assert!(r.is_clean());
        assert_eq!(r.redundant_flushes, 2);
        assert_eq!(r.redundant_flush_events.len(), 2);
    }

    #[test]
    fn fence_without_flush_counted_not_failed() {
        let (d, cfg) = traced();
        d.sfence();
        d.write(1024, &[1u8; 8]);
        d.persist(1024, 8);
        d.sfence();
        let r = check(&d.take_trace(), cfg);
        assert!(r.is_clean());
        assert_eq!(r.empty_fences, 2);
    }

    #[test]
    fn rewrite_after_flush_is_missing_flush() {
        let (d, cfg) = traced();
        d.write(1024, &[1u8; 8]);
        d.persist(1024, 8);
        d.write(1024, &[2u8; 8]); // re-dirtied, never re-flushed
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        assert_eq!(r.count(Rule::MissingFlush), 1, "{r}");
    }

    #[test]
    fn crash_clears_commit_window() {
        let (d, cfg) = traced();
        d.write(1024, &[1u8; 8]); // dirty…
        d.crash(nvmsim::CrashPolicy::LoseVolatile); // …but lost with the crash
        let _ = d.read_u64(0); // recovery looks around
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8); // recovery's closing commit
        let r = check(&d.take_trace(), cfg);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.crashes, 1);
    }

    #[test]
    fn incremental_drains_match_one_shot() {
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 64]);
        let part1 = d.take_trace();
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let part2 = d.take_trace();
        let mut c = Checker::new(cfg.clone());
        c.push_all(&part1);
        c.push_all(&part2);
        let inc = c.finish();

        let (d2, _) = traced();
        d2.write(1024, &[7u8; 64]);
        d2.atomic_write_u64(0, 1);
        d2.persist(0, 8);
        d2.note_commit(0, 8);
        let whole = check(&d2.take_trace(), cfg);
        assert_eq!(
            inc.count(Rule::MissingFlush),
            whole.count(Rule::MissingFlush)
        );
        assert_eq!(inc.events, whole.events);
    }

    #[test]
    fn report_display_names_rules() {
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 64]);
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        let text = r.to_string();
        assert!(text.contains("missing-flush"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    // ---- persistrace fixtures: hand-built multi-thread traces ----------
    //
    // The analyzer is pure, so deliberately-racy interleavings are easiest
    // to pin down as synthetic `TracedOp` streams with explicit thread
    // tags — no real threads, fully deterministic ordinals.

    use nvmsim::TraceEvent as E;

    fn op(seq: u64, thread: u32, event: E) -> TracedOp {
        TracedOp::on_thread(seq, thread, event)
    }

    #[test]
    fn persist_race_fires_with_ordinals_and_edge() {
        // Two threads store into line 0 while it is unfenced, no sync.
        let trace = [
            op(0, 0, E::Store { addr: 0, len: 8 }),
            op(1, 1, E::Store { addr: 8, len: 8 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::PersistRace), 1, "{r}");
        let v = &r.violations[0];
        assert_eq!(v.addr, 0);
        assert_eq!(v.events, [0, 1], "cites both store ordinals");
        assert!(
            v.detail.contains("t0#0 -> t1#1"),
            "names the missing edge: {}",
            v.detail
        );
    }

    #[test]
    fn persist_race_reported_once_per_line_and_pair() {
        let trace = [
            op(0, 0, E::Store { addr: 0, len: 8 }),
            op(1, 1, E::Store { addr: 8, len: 8 }),
            op(2, 0, E::Store { addr: 16, len: 8 }),
            op(3, 1, E::Store { addr: 24, len: 8 }),
            op(4, 1, E::Store { addr: 64, len: 8 }), // different line, alone
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::PersistRace), 1, "deduplicated: {r}");
    }

    #[test]
    fn lock_edge_suppresses_persist_race() {
        // Proper release→acquire: the second store is ordered after the
        // first through lock 1.
        let trace = [
            op(0, 0, E::LockAcquire { obj: 1 }),
            op(1, 0, E::Store { addr: 0, len: 8 }),
            op(2, 0, E::LockRelease { obj: 1 }),
            op(3, 1, E::LockAcquire { obj: 1 }),
            op(4, 1, E::Store { addr: 8, len: 8 }),
            op(5, 1, E::LockRelease { obj: 1 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn lockset_fallback_suppresses_without_hb_edge() {
        // Both threads hold lock 1 per the lockset, but the release that
        // would order them was elided from the trace: no HB edge exists,
        // yet the Eraser fallback suppresses the report.
        let trace = [
            op(0, 0, E::LockAcquire { obj: 1 }),
            op(1, 1, E::LockAcquire { obj: 1 }),
            op(2, 0, E::Store { addr: 0, len: 8 }),
            op(3, 1, E::Store { addr: 8, len: 8 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::PersistRace), 0, "{r}");
    }

    #[test]
    fn atomic_release_acquire_creates_edge() {
        let trace = [
            op(0, 0, E::Store { addr: 0, len: 8 }),
            op(1, 0, E::AtomicStoreRelease { obj: 9 }),
            op(2, 1, E::AtomicLoadAcquire { obj: 9 }),
            op(3, 1, E::Store { addr: 8, len: 8 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn cross_thread_flush_dependency_fires() {
        // t1 flushes the line t0 stored, with no edge from the store.
        let trace = [
            op(0, 0, E::Store { addr: 0, len: 8 }),
            op(
                1,
                1,
                E::Clflush {
                    line: 0,
                    staged: true,
                },
            ),
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::CrossThreadFlushDependency), 1, "{r}");
        let v = &r.violations[0];
        assert_eq!(v.events, [0, 1]);
        assert!(v.detail.contains("t0#0 -> t1#1"), "{}", v.detail);
        // With a sync edge between store and flush: clean.
        let ok = [
            op(0, 0, E::Store { addr: 0, len: 8 }),
            op(1, 0, E::LockRelease { obj: 2 }),
            op(2, 1, E::LockAcquire { obj: 2 }),
            op(
                3,
                1,
                E::Clflush {
                    line: 0,
                    staged: true,
                },
            ),
        ];
        assert!(check(&ok, CheckConfig::default()).is_clean());
    }

    /// t0 persists data; t1 persists its own commit record and annotates
    /// the commit — without ever synchronizing with t0's fence.
    fn unordered_commit_trace(with_lock: bool) -> Vec<TracedOp> {
        let mut t = Vec::new();
        let mut seq = 0u64;
        let mut push = |thread: u32, e: E, t: &mut Vec<TracedOp>| {
            t.push(op(seq, thread, e));
            seq += 1;
        };
        if with_lock {
            push(0, E::LockAcquire { obj: 1 }, &mut t);
        }
        push(0, E::Store { addr: 64, len: 8 }, &mut t);
        push(
            0,
            E::Clflush {
                line: 1,
                staged: true,
            },
            &mut t,
        );
        push(0, E::Sfence { staged_lines: 1 }, &mut t);
        if with_lock {
            push(0, E::LockRelease { obj: 1 }, &mut t);
            push(1, E::LockAcquire { obj: 1 }, &mut t);
        }
        push(1, E::AtomicStore { addr: 0, len: 8 }, &mut t);
        push(
            1,
            E::Clflush {
                line: 0,
                staged: true,
            },
            &mut t,
        );
        push(1, E::Sfence { staged_lines: 1 }, &mut t);
        push(1, E::Commit { addr: 0, len: 8 }, &mut t);
        if with_lock {
            push(1, E::LockRelease { obj: 1 }, &mut t);
        }
        t
    }

    #[test]
    fn unordered_commit_fires_without_sync_edge() {
        let r = check(&unordered_commit_trace(false), CheckConfig::default());
        assert_eq!(r.count(Rule::UnorderedCommit), 1, "{r}");
        assert_eq!(r.fired_rules(), ["unordered-commit"]);
        let v = &r.violations[0];
        assert_eq!(v.addr, 64, "cites the data line");
        assert_eq!(v.events, [2, 6], "cites t0's fence and t1's commit");
        assert!(v.detail.contains("t0#2 -> t1#6"), "{}", v.detail);
    }

    #[test]
    fn unordered_commit_clean_under_lock_handoff() {
        let r = check(&unordered_commit_trace(true), CheckConfig::default());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn single_threaded_traces_never_race() {
        // The whole existing corpus runs on one thread; spot-check that a
        // gnarly single-thread interleaving stays race-free.
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 64]);
        d.clflush(1024, 64);
        d.write(1024, &[8u8; 64]);
        d.sfence();
        d.persist(1024, 64);
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let r = check(&d.take_trace(), cfg);
        for rule in [
            Rule::PersistRace,
            Rule::UnorderedCommit,
            Rule::CrossThreadFlushDependency,
        ] {
            assert_eq!(r.count(rule), 0, "{r}");
        }
    }

    #[test]
    fn mutex_serialized_multi_thread_commits_are_clean() {
        // The pool's current commit discipline, in miniature: each thread
        // takes the shard lock, stores/persists data and its commit
        // record, annotates, releases. Two threads, same lines.
        let mut trace = Vec::new();
        let mut seq = 0u64;
        for thread in [0u32, 1, 0, 1] {
            for e in [
                E::LockAcquire { obj: 7 },
                E::Store { addr: 512, len: 64 },
                E::Clflush {
                    line: 8,
                    staged: true,
                },
                E::Sfence { staged_lines: 1 },
                E::AtomicStore { addr: 0, len: 8 },
                E::Clflush {
                    line: 0,
                    staged: true,
                },
                E::Sfence { staged_lines: 1 },
                E::Commit { addr: 0, len: 8 },
                E::LockRelease { obj: 7 },
            ] {
                trace.push(op(seq, thread, e));
                seq += 1;
            }
        }
        let r = check(&trace, CheckConfig::default());
        assert!(r.is_clean(), "{r}");
    }

    // ---- multi-device (merged shard) traces ----------------------------

    fn on_device(seq: u64, thread: u32, device: u32, event: E) -> TracedOp {
        let mut o = op(seq, thread, event);
        o.device = device;
        o
    }

    #[test]
    fn fences_and_commits_are_scoped_per_device() {
        // Round-robin merge of two clean single-shard commit protocols:
        // device 1's sfence interleaves into device 0's open epoch and
        // vice versa. With per-device epochs this is clean; a global
        // epoch would let each shard's fence drain the other's lines and
        // flag flush-without-fence / missing-flush everywhere.
        let proto = |d: u32| {
            vec![
                E::Store {
                    addr: 1024,
                    len: 64,
                },
                E::Clflush {
                    line: 16,
                    staged: true,
                },
                E::Sfence { staged_lines: 1 },
                E::AtomicStore { addr: 0, len: 8 },
                E::Clflush {
                    line: 0,
                    staged: true,
                },
                E::Sfence { staged_lines: 1 },
                E::Commit { addr: 0, len: 8 },
            ]
            .into_iter()
            .map(move |e| {
                // Rebase device 1 like merge_shard_traces would.
                let base = d as usize * 4096;
                match e {
                    E::Store { addr, len } => E::Store {
                        addr: addr + base,
                        len,
                    },
                    E::AtomicStore { addr, len } => E::AtomicStore {
                        addr: addr + base,
                        len,
                    },
                    E::Clflush { line, staged } => E::Clflush {
                        line: line + base / CACHE_LINE,
                        staged,
                    },
                    E::Commit { addr, len } => E::Commit {
                        addr: addr + base,
                        len,
                    },
                    other => other,
                }
            })
        };
        let mut trace = Vec::new();
        let mut seq = 0u64;
        for (a, b) in proto(0).zip(proto(1)) {
            trace.push(on_device(seq, 0, 0, a));
            trace.push(on_device(seq + 1, 1, 1, b));
            seq += 2;
        }
        let r = check(&trace, CheckConfig::default());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.commits, 2);
    }

    #[test]
    fn commit_judges_only_its_own_devices_window() {
        // Device 1 has a dirty, never-flushed line in flight when device
        // 0's commit lands: not device 0's problem. Device 1's own commit
        // later must still flag it.
        let trace = [
            on_device(0, 1, 1, E::Store { addr: 4096, len: 8 }),
            on_device(1, 0, 0, E::AtomicStore { addr: 0, len: 8 }),
            on_device(
                2,
                0,
                0,
                E::Clflush {
                    line: 0,
                    staged: true,
                },
            ),
            on_device(3, 0, 0, E::Sfence { staged_lines: 1 }),
            on_device(4, 0, 0, E::Commit { addr: 0, len: 8 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::MissingFlush), 0, "{r}");

        let mut with_d1_commit = trace.to_vec();
        with_d1_commit.extend([
            on_device(5, 1, 1, E::AtomicStore { addr: 4160, len: 8 }),
            on_device(
                6,
                1,
                1,
                E::Clflush {
                    line: 65,
                    staged: true,
                },
            ),
            on_device(7, 1, 1, E::Sfence { staged_lines: 1 }),
            on_device(8, 1, 1, E::Commit { addr: 4160, len: 8 }),
        ]);
        let r = check(&with_d1_commit, CheckConfig::default());
        assert_eq!(r.count(Rule::MissingFlush), 1, "{r}");
        assert_eq!(r.violations[0].addr, 4096);
    }

    #[test]
    fn crash_clears_only_the_crashed_device() {
        // Device 0 crashes with device 1's store in flight; device 1's
        // commit must still see its own dirty line.
        let trace = [
            on_device(0, 1, 1, E::Store { addr: 4096, len: 8 }),
            on_device(1, 0, 0, E::Store { addr: 64, len: 8 }),
            on_device(2, 0, 0, E::Crash),
            on_device(3, 1, 1, E::AtomicStore { addr: 4160, len: 8 }),
            on_device(
                4,
                1,
                1,
                E::Clflush {
                    line: 65,
                    staged: true,
                },
            ),
            on_device(5, 1, 1, E::Sfence { staged_lines: 1 }),
            on_device(6, 1, 1, E::Commit { addr: 4160, len: 8 }),
        ];
        let r = check(&trace, CheckConfig::default());
        assert_eq!(r.count(Rule::MissingFlush), 1, "{r}");
        assert_eq!(r.violations[0].addr, 4096);
        assert_eq!(r.crashes, 1);
    }

    // ---- JSON schema stability -----------------------------------------

    #[test]
    fn json_schema_is_stable() {
        let (d, cfg) = traced();
        d.write(1024, &[7u8; 128]); // 2 lines, never flushed
        d.atomic_write_u64(0, 1);
        d.persist(0, 8);
        d.note_commit(0, 8);
        let j = check(&d.take_trace(), cfg).to_json().render();
        // Top-level keys, in order.
        assert!(j.starts_with(r#"{"schema":1,"events":5,"commits":1,"crashes":0,"clean":false,"#));
        // The counts object always lists every rule by its stable name.
        assert!(
            j.contains(
                r#""counts":{"missing-flush":2,"flush-without-fence":0,"torn-update":0,"persist-race":0,"unordered-commit":0,"cross-thread-flush-dependency":0,"redundant-flush":0,"fence-without-flush":0}"#
            ),
            "{j}"
        );
        // Violations carry rule name, line address, and ordinal citations.
        assert!(
            j.contains(r#""rule":"missing-flush","addr":1024,"events":[0,4]"#),
            "{j}"
        );
        assert!(j.contains(r#""redundant_flush_events":[]"#), "{j}");
        assert!(j.contains(r#""empty_fence_events":[]"#), "{j}");
    }

    #[test]
    fn json_counts_race_rules() {
        let r = check(&unordered_commit_trace(false), CheckConfig::default());
        let j = r.to_json().render();
        assert!(j.contains(r#""unordered-commit":1"#), "{j}");
        assert!(j.contains(r#""clean":false"#), "{j}");
        assert!(j.contains(r#""events":[2,6]"#), "{j}");
    }
}
