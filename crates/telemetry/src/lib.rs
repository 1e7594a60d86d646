//! Simulated-time observability: spans, counters, gauges, latency
//! histograms, and machine-readable exporters — all driven by the shared
//! [`SimClock`], never wall time, so recordings are fully deterministic.
//!
//! # Design
//!
//! - **Zero-cost when disabled.** Every facade call first does one relaxed
//!   atomic load; with no recorder installed anywhere
//!   that's the entire cost. Spans only *read* the clock — they never
//!   advance it — so enabling telemetry cannot change any simulated
//!   result: stats, figure outputs, and crash behaviour stay bit-for-bit
//!   identical.
//! - **Thread-local recording.** [`record`] arms the calling thread;
//!   other threads (e.g. I/O worker pools) see no recorder and no-op.
//!   The global counter only gates the fast path.
//! - **Phase tree.** [`span`] guards nest; simulated ns are attributed to
//!   `(parent, name)` nodes, and [`charge`] attributes device-charged ns
//!   to a leaf without opening a span. `total − Σ children` is a node's
//!   unattributed *self* time, which the bench harness gates on.
//!
//! # Quick start
//!
//! ```
//! use telemetry::{Config, SimClock};
//!
//! let clock = SimClock::new();
//! let (result, report) = telemetry::record(&clock, Config::default(), || {
//!     let _commit = telemetry::span(telemetry::phase::COMMIT);
//!     {
//!         let _stage = telemetry::span(telemetry::phase::COMMIT_STAGE);
//!         clock.advance(700); // a device charging modelled latency
//!     }
//!     clock.advance(300);
//!     42
//! });
//! assert_eq!(result, 42);
//! let commit = report.find("commit").unwrap();
//! assert_eq!(commit.total_ns, 1000);
//! assert_eq!(report.find("commit/commit.stage").unwrap().total_ns, 700);
//! println!("{}", report.phase_report());
//! ```

mod clock;
mod counters;
mod hist;
mod json;
pub mod phase;
mod recorder;
mod report;

pub use clock::SimClock;
pub use hist::Histogram;
pub use json::{Expected, Json, JsonError};
pub use recorder::{Config, Event};
pub use report::{PhaseNode, TelemetryReport};

use std::cell::RefCell;

use recorder::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of threads with an installed recorder. Zero ⇒ the facade's fast
/// path is one relaxed load and an immediate return.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// True if *any* thread currently records (cheap pre-filter; per-thread
/// state still decides whether this thread's calls do anything).
#[inline]
fn is_enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Arms telemetry on the calling thread, attributing simulated ns read
/// from `clock`. Replaces any recorder already installed on this thread
/// (discarding its data).
fn install(clock: &SimClock, cfg: Config) {
    RECORDER.with(|r| {
        let prev = r.borrow_mut().replace(Recorder::new(clock.clone(), cfg));
        if prev.is_none() {
            INSTALLED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Disarms the calling thread and returns its finished report (`None` if
/// nothing was installed).
fn uninstall() -> Option<TelemetryReport> {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take()?;
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
        Some(rec.finish())
    })
}

/// Rebinds this thread's recorder to a different clock (crash campaigns
/// rebuild the stack — and its clock — per seed). No-op when disabled.
/// Must not be called with spans open.
pub fn swap_clock(clock: &SimClock) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.swap_clock(clock);
        }
    });
}

/// An RAII span guard: attribution runs from construction to drop.
#[must_use = "a span attributes time until dropped; binding it to _ ends it immediately"]
pub struct Span {
    active: bool,
}

/// Opens a span named `name` (from the [`phase`] taxonomy) under the
/// current span. Returns an inert guard when telemetry is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { active: false };
    }
    let active = RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.enter(name);
            true
        } else {
            false
        }
    });
    Span { active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.exit();
            }
        });
    }
}

/// Attributes `ns` already-charged simulated nanoseconds to leaf phase
/// `cat` under the current span (for one-shot device charge points).
#[inline]
pub fn charge(cat: &'static str, ns: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.charge(cat, ns);
        }
    });
}

/// Bumps leaf phase `name` under the current span by `n` occurrences
/// without attributing simulated time (per-phase event tallies such as
/// flush/fence waste marks).
#[inline]
pub fn mark(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.mark(name, n);
        }
    });
}

/// Adds `n` to counter `name`.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.count(name, n);
        }
    });
}

/// Sets gauge `name` to `v`.
#[inline]
pub fn gauge(name: &'static str, v: i64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.gauge(name, v);
        }
    });
}

/// Records sample `v` into histogram `name`.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.observe(name, v);
        }
    });
}

/// Runs `f` with telemetry armed on this thread and returns its result
/// together with the report. The recorder is disarmed even if `f` panics.
pub fn record<T>(clock: &SimClock, cfg: Config, f: impl FnOnce() -> T) -> (T, TelemetryReport) {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            let _ = uninstall();
        }
    }
    install(clock, cfg);
    let guard = Disarm;
    let out = f();
    std::mem::forget(guard);
    let report = uninstall().expect("recorder installed above and not removed");
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        // No recorder on this thread (other test threads may have one, so
        // don't assert the global flag): every call must be a no-op.
        let _s = span("commit");
        charge("nvm.flush", 100);
        count("x", 1);
        observe("h", 5);
        assert!(uninstall().is_none());
    }

    #[test]
    fn spans_attribute_to_a_tree() {
        let clock = SimClock::new();
        let ((), report) = record(&clock, Config::default(), || {
            let _c = span("commit");
            {
                let _s = span("commit.stage");
                clock.advance(700);
                charge("nvm.flush", 100);
                clock.advance(100);
            }
            {
                let _p = span("commit.point");
                clock.advance(50);
            }
            clock.advance(150);
        });
        assert_eq!(report.total_ns, 1000);
        assert_eq!(report.find("commit").unwrap().total_ns, 1000);
        assert_eq!(report.find("commit/commit.stage").unwrap().total_ns, 800);
        assert_eq!(
            report
                .find("commit/commit.stage/nvm.flush")
                .unwrap()
                .total_ns,
            100
        );
        assert_eq!(report.find("commit/commit.point").unwrap().total_ns, 50);
        let commit_idx = report
            .phases
            .iter()
            .position(|p| p.path == "commit")
            .unwrap();
        assert_eq!(report.self_ns(commit_idx), 150);
        let f = report.attributed_fraction("commit").unwrap();
        assert!((f - 0.85).abs() < 1e-9);
    }

    #[test]
    fn repeated_spans_accumulate_and_feed_histograms() {
        let clock = SimClock::new();
        let ((), report) = record(&clock, Config::default(), || {
            for i in 0..10u64 {
                let _c = span("commit");
                clock.advance(100 + i);
            }
        });
        let commit = report.find("commit").unwrap();
        assert_eq!(commit.count, 10);
        assert_eq!(commit.total_ns, 10 * 100 + 45);
        let h = &report.hists["commit"];
        assert_eq!(h.count(), 10);
        assert!(h.p50().unwrap() >= 100);
    }

    #[test]
    fn counters_gauges_and_events() {
        let clock = SimClock::new();
        let ((), report) = record(&clock, Config::with_events(), || {
            count("commits", 3);
            count("commits", 2);
            gauge("dirty", 7);
            gauge("dirty", 4);
            let _s = span("commit");
            clock.advance(10);
        });
        assert_eq!(report.counters["commits"], 5);
        assert_eq!(report.gauges["dirty"], 4);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "commit");
        assert_eq!(report.events[0].end_ns - report.events[0].start_ns, 10);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn event_cap_drops_beyond_max() {
        let clock = SimClock::new();
        let cfg = Config {
            record_events: true,
            max_events: 3,
        };
        let ((), report) = record(&clock, cfg, || {
            for _ in 0..5 {
                let _s = span("op");
                clock.advance(1);
            }
        });
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.dropped_events, 2);
        // Phase totals are unaffected by the event cap.
        assert_eq!(report.find("op").unwrap().count, 5);
    }

    #[test]
    fn swap_clock_keeps_attributing() {
        let a = SimClock::new();
        let ((), report) = record(&a, Config::default(), || {
            {
                let _s = span("crash.seed");
                a.advance(100);
            }
            let b = SimClock::new();
            swap_clock(&b);
            {
                let _s = span("crash.seed");
                b.advance(40);
            }
        });
        let seed = report.find("crash.seed").unwrap();
        assert_eq!(seed.count, 2);
        assert_eq!(seed.total_ns, 140);
    }

    #[test]
    fn record_disarms_on_panic() {
        let clock = SimClock::new();
        let caught = std::panic::catch_unwind(|| {
            record(&clock, Config::default(), || {
                let _s = span("commit");
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert!(uninstall().is_none(), "recorder leaked past the panic");
    }
}
