//! What only the traced run can measure: the recorded NVM event stream is
//! audited by `persistcheck` and re-issued against a fresh device to price
//! the simulator's own host cost, and the product's `telemetry` phase tree
//! gives its self-reported commit phases.

use std::time::Instant;

use nvmsim::{Nvm, NvmDevice, SimClock, TraceEvent, CACHE_LINE};
use persistcheck::{CheckConfig, Checker};
use telemetry::TelemetryReport;

use crate::metrics::Metrics;
use crate::util::ratio;

/// Drains device traces in chunks, so the in-memory trace stays small, and
/// feeds each chunk to a per-device checker and a per-device replay target.
pub struct NvmAudit {
    checkers: Vec<Checker>,
    replays: Vec<Nvm>,
    zeros: Vec<u8>,
    pub events: u64,
    pub check_host_ns: u64,
    pub replay_events: u64,
    pub replay_host_ns: u64,
}

impl NvmAudit {
    /// One checker and one fresh replay device (same config, tracing off)
    /// per traced device.
    pub fn new(devices: &[Nvm]) -> NvmAudit {
        NvmAudit {
            checkers: devices
                .iter()
                .map(|_| Checker::new(CheckConfig::default()))
                .collect(),
            replays: devices
                .iter()
                .map(|d| {
                    let mut cfg = d.config().clone();
                    cfg.trace_events = false;
                    NvmDevice::new(cfg, SimClock::new())
                })
                .collect(),
            zeros: Vec::new(),
            events: 0,
            check_host_ns: 0,
            replay_events: 0,
            replay_host_ns: 0,
        }
    }

    /// Drops what the devices recorded so far (warm-up).
    pub fn discard(devices: &[Nvm]) {
        for d in devices {
            drop(d.take_trace());
        }
    }

    pub fn drain(&mut self, devices: &[Nvm]) {
        for (i, d) in devices.iter().enumerate() {
            let trace = d.take_trace();
            self.events += trace.len() as u64;

            let t = Instant::now();
            self.checkers[i].push_all(&trace);
            self.check_host_ns += t.elapsed().as_nanos() as u64;

            let longest = trace
                .iter()
                .map(|op| match op.event {
                    TraceEvent::Store { len, .. } => len,
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            if self.zeros.len() < longest {
                self.zeros.resize(longest, 0);
            }
            let target = &self.replays[i];
            let t = Instant::now();
            for op in &trace {
                match op.event {
                    TraceEvent::Store { addr, len } => target.write(addr, &self.zeros[..len]),
                    TraceEvent::AtomicStore { addr, len: 16 } => target.atomic_write_u128(addr, 0),
                    TraceEvent::AtomicStore { addr, .. } => target.atomic_write_u64(addr, 0),
                    TraceEvent::Clflush { line, .. } => {
                        target.clflush(line * CACHE_LINE, CACHE_LINE);
                    }
                    TraceEvent::Sfence { .. } => target.sfence(),
                    _ => continue,
                }
                self.replay_events += 1;
            }
            self.replay_host_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Ends the audit; returns the number of correctness violations.
    pub fn finish(self, m: &mut Metrics) -> u64 {
        let violations: u64 = self
            .checkers
            .into_iter()
            .map(|c| c.finish().violations.len() as u64)
            .sum();
        m.set("persistcheck.violations", violations as f64);
        m.set(
            "persistcheck.host_ns_per_event",
            ratio(self.check_host_ns as f64, self.events as f64),
        );
        m.set(
            "nvmsim.replay_host_ns_per_event",
            ratio(self.replay_host_ns as f64, self.replay_events as f64),
        );
        violations
    }
}

/// Simulated ns the phase tree attributes to every node called `name`,
/// wherever it sits; a phase that no longer exists contributes nothing.
fn phase_total(report: &TelemetryReport, name: &str) -> (u64, u64) {
    report
        .phases
        .iter()
        .filter(|p| p.name == name)
        .fold((0, 0), |(ns, n), p| (ns + p.total_ns, n + p.count))
}

/// The product's self-reported commit phases, per transaction (`txns`) and
/// per op (`ops`) of the traced run.
pub fn phase_metrics(report: &TelemetryReport, txns: u64, ops: u64, m: &mut Metrics) {
    for (metric, phase) in [
        ("core.phase.commit.stage_ns_per_txn", "commit.stage"),
        ("core.phase.commit.entry_ns_per_txn", "commit.entry"),
        ("core.phase.commit.ring_ns_per_txn", "commit.ring"),
        ("core.phase.commit.point_ns_per_txn", "commit.point"),
        ("core.phase.commit.spanning_ns_per_txn", "commit.spanning"),
    ] {
        m.set(
            metric,
            ratio(phase_total(report, phase).0 as f64, txns as f64),
        );
    }
    m.set(
        "core.phase.destage.drain_ns_per_op",
        ratio(phase_total(report, "destage.drain").0 as f64, ops as f64),
    );
    // Share of commit time the tree attributes to named child phases,
    // over every `commit` node (top level and under a spanning commit).
    let (mut total, mut own) = (0u64, 0u64);
    for (i, p) in report.phases.iter().enumerate() {
        if p.name == "commit" {
            total += p.total_ns;
            own += report.self_ns(i);
        }
    }
    m.set(
        "core.phase.attributed_share",
        ratio(total.saturating_sub(own) as f64, total as f64),
    );
}
