//! Shadow persist-order analysis of the paper's commit-path workloads.
//!
//! Replays a Fig. 3(b)/Fig. 4-style Fio write workload (random 4 KB
//! writes, periodic fsync — every fsync is a Tinca transaction commit)
//! with NVM event tracing enabled, feeds the trace to the `persistcheck`
//! analyzer, and prints per-system reports: correctness violations
//! (missing-flush / flush-without-fence / torn-update) plus the flush-
//! hygiene lints (redundant clflushes of clean lines, empty sfences).
//!
//! Each system is also run untraced with identical inputs to show that
//! tracing is observation-only: the simulated clock must agree to the
//! nanosecond. Fails on any correctness violation or clock difference.

use fssim::stack::{build, StackConfig, System};
use nvmsim::NvmConfig;
use persistcheck::{check, CheckConfig, Report};
use workloads::fio::{Fio, FioSpec};

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, write_csv};

/// Runs the commit-path workload on one stack; returns the final
/// simulated time and, when tracing, the analyzer's report.
fn run_one(mut cfg: StackConfig, ops: u64, traced: bool) -> (u64, Option<Report>) {
    if traced {
        let nvm = cfg
            .nvm_override
            .take()
            .unwrap_or_else(|| NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech));
        cfg.nvm_override = Some(nvm.with_tracing());
    }
    let mut stack = build(&cfg).unwrap();
    let mut fio = Fio::new(FioSpec::paper(0, cfg.nvm_bytes, ops, 0x04));
    fio.setup(&mut stack);
    let _ = fio.run(&mut stack);
    let now = stack.clock.now_ns();
    let report = traced.then(|| {
        let ranges = stack.fs.backend().metadata_ranges();
        check(&stack.nvm.take_trace(), CheckConfig::with_metadata(ranges))
    });
    (now, report)
}

/// Runs the analysis on every system and writes the CSV.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "persistcheck",
        "Persist-order analysis of the commit path (Fio random writes, fsync every 64)",
        "zero correctness violations; flush coalescing trades fences for staged flushes",
    );
    let ops: u64 = if quick { 2_000 } else { 10_000 };
    let systems = [
        System::Tinca,
        System::TincaNoRoleSwitch,
        System::Classic,
        System::Ubj,
    ];
    let mut t = Table::new(&[
        "System",
        "events",
        "commits",
        "violations",
        "redundant clflush",
        "empty sfence",
        "verdict",
    ]);
    let mut failed = Vec::new();
    for sys in systems {
        let cfg = local_cfg(sys, quick);
        let (traced_ns, report) = run_one(cfg.clone(), ops, true);
        let (plain_ns, _) = run_one(cfg, ops, false);
        if traced_ns != plain_ns {
            failed.push(format!("{}: tracing changed simulated time", sys.name()));
        }
        let r = report.unwrap();
        if !r.is_clean() {
            failed.push(format!("{}: persist-order violations", sys.name()));
            println!("--- {} ---\n{r}", sys.name());
        }
        t.row(vec![
            sys.name().into(),
            r.events.to_string(),
            r.commits.to_string(),
            r.violations.len().to_string(),
            r.redundant_flushes.to_string(),
            r.empty_fences.to_string(),
            if r.is_clean() {
                "CLEAN".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    t.print();
    write_csv("persistcheck", &t.headers(), t.rows());
    failed
}
