//! Simulated time source shared by all devices of one storage stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone simulated-nanosecond clock.
///
/// Every simulated device (NVM, disk, network) charges its modelled latency
/// against one shared `SimClock`, so `ops / clock.now()` yields a simulated
/// throughput that is independent of host speed and deterministic across
/// runs. Cloning is cheap (`Arc` internally) and all methods take `&self`,
/// so a clock can be shared freely across the layers of a stack.
///
/// The telemetry recorder reads (never advances) this clock: spans and
/// charges attribute the nanoseconds the devices charge, so recording is
/// invisible to the simulation itself.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at t = 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances simulated time by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Advances simulated time to `target_ns` if that is ahead of now;
    /// a no-op when the clock already passed it (time never runs
    /// backwards). Returns the nanoseconds actually advanced. Open-loop
    /// drivers use this to let idle time pass up to an op's arrival
    /// instant, so background-lane deadlines expire during load gaps.
    pub fn advance_to(&self, target_ns: u64) -> u64 {
        let mut now = self.ns.load(Ordering::Relaxed);
        loop {
            if target_ns <= now {
                return 0;
            }
            match self.ns.compare_exchange_weak(
                now,
                target_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return target_ns - now,
                Err(seen) => now = seen,
            }
        }
    }

    /// Resets the clock to zero (for reuse between experiment phases).
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(100);
        c.advance(23);
        assert_eq!(c.now_ns(), 123);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let d = c.clone();
        c.advance(7);
        assert_eq!(d.now_ns(), 7);
        d.advance(3);
        assert_eq!(c.now_ns(), 10);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        assert_eq!(c.advance_to(500), 500);
        assert_eq!(c.now_ns(), 500);
        assert_eq!(c.advance_to(300), 0, "never runs backwards");
        assert_eq!(c.now_ns(), 500);
        assert_eq!(c.advance_to(500), 0, "equal target is a no-op");
        assert_eq!(c.advance_to(750), 250);
        assert_eq!(c.now_ns(), 750);
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClock::new();
        c.advance(55);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn concurrent_advance_is_lossless() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1);
                    }
                });
            }
        });
        assert_eq!(c.now_ns(), 4000);
    }
}
