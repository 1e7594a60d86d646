//! Telemetry must be observationally free: running the same workload with
//! the recorder installed may not perturb a single simulated-time or
//! device counter. Spans only *read* the shared clock, so the disabled
//! and enabled runs must be bit-for-bit identical in everything the
//! figures report.

use bench::figs::local_cfg;
use fssim::stack::{build, System};
use workloads::fio::{Fio, FioSpec};
use workloads::report::RunReport;

/// A scaled-down Fig. 7 cell (Tinca, R/W 3/7) — the commit-heavy mix,
/// which exercises the most heavily instrumented path in the stack.
fn fig7_cell() -> RunReport {
    let mut cfg = local_cfg(System::Tinca, true);
    cfg.nvm_bytes = 4 << 20; // keep the test < 1 s
    let mut stack = build(&cfg).unwrap();
    let mut fio = Fio::new(FioSpec::paper(30, cfg.nvm_bytes, 1_500, 0x07));
    fio.setup(&mut stack);
    fio.run(&mut stack)
}

/// Every figure-visible number — sim time, NVM line/flush/fence counts,
/// disk read/write counts, FS stats, cache hit/miss counters — rendered
/// to one comparable string. `RunReport` is a plain data struct, so its
/// `Debug` form covers every field bit-for-bit.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "{:?} iops={} clflush={} diskw={}",
        r,
        r.ops_per_sec(),
        r.clflush_per_op(),
        r.disk_writes_per_op()
    )
}

#[test]
fn telemetry_off_and_on_are_bit_identical() {
    // Baseline: no recorder installed.
    let off = fingerprint(&fig7_cell());

    // Same workload under a recording session. The workload builds its
    // own stack/clock, so record() gets a throwaway clock — what matters
    // is that the instrumentation fires (the phase tree is non-trivial)
    // while the measured run stays untouched.
    let probe = telemetry::SimClock::new();
    let (on, report) = telemetry::record(&probe, telemetry::Config::with_events(), || {
        fingerprint(&fig7_cell())
    });

    assert!(
        report.phases.len() > 1,
        "instrumentation did not fire — the enabled run measured nothing"
    );
    assert_eq!(
        off, on,
        "telemetry perturbed the workload: device/FS counters diverged"
    );

    // And the baseline itself is deterministic, so the comparison above
    // is meaningful (a flaky workload would make any diff ambiguous).
    let off2 = fingerprint(&fig7_cell());
    assert_eq!(off, off2, "workload is not deterministic run-to-run");
}
