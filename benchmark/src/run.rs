//! What every workload shares: the arguments of a run, the repetition loop
//! of the end-to-end run with its two clocks, and the determinism check.

use std::time::Instant;

use crate::metrics::{json_map, json_num, Metrics, Outcome};
use crate::spans;
use crate::traced::{phase_metrics, NvmAudit};
use crate::util::{median, peak_rss_mb, percentile, ratio, sorted, Fingerprint};

pub struct Ctx {
    pub seed: u64,
    /// Host seconds the repetitions of the end-to-end run may fill.
    pub seconds: f64,
    /// Tiny op counts: exercises every path, measures nothing.
    pub smoke: bool,
}

impl Ctx {
    /// Full size, for generating a load outside a run.
    pub fn full(seed: u64) -> Ctx {
        Ctx {
            seed,
            seconds: 0.0,
            smoke: false,
        }
    }

    /// Picks the full or the smoke size of an op count.
    pub fn size(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Result of crash + recovery + read-back after a measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verify {
    pub recover_sim_ns: u64,
    pub recover_host_ns: u64,
    pub revoked_blocks: u64,
    /// Acknowledged writes that did not read back.
    pub lost: u64,
    pub consistent: bool,
}

/// One repetition: the stack is rebuilt from the seed, warmed, and the
/// measured phase runs once.
pub struct Rep {
    pub setup_s: f64,
    pub host_wall_s: f64,
    /// Every simulated number and exact counter of the measured phase.
    /// Must be identical on every repetition.
    pub sim: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub verify: Option<Verify>,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Fingerprint of the first `ops` ops of the full-size load for `seed`.
    fn load_fingerprint(&self, seed: u64, ops: u64) -> u64;

    /// What the workload is expected to exercise and to bypass, judged on
    /// the traced run's metrics. Reported, never an exit code: a later
    /// legitimate change must not wedge a benchmark it may not edit.
    fn predictions(&self, m: &Metrics) -> Vec<(&'static str, bool)>;

    /// Open loop only: the highest sustainable rate (simulated clock only,
    /// so it runs once per run, not once per repetition).
    fn knee(&self, _ctx: &Ctx) -> Option<f64> {
        None
    }

    fn rep(&self, ctx: &Ctx, verify: bool) -> Rep;

    /// The traced run: every per-layer metric.
    fn traced(&self, ctx: &Ctx) -> Outcome;
}

pub fn sim_fingerprint(sim: &Metrics) -> u64 {
    let mut f = Fingerprint::new();
    for (k, v) in &sim.0 {
        f.bytes(k.as_bytes());
        f.word(v.to_bits());
    }
    f.finish()
}

/// Repetitions of one run: at least three, then as many as fit in the
/// `--seconds` budget. Host metrics are medians over them.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;

pub fn end_to_end(w: &dyn Workload, ctx: &Ctx) -> Outcome {
    let started = Instant::now();
    let knee = w.knee(ctx);
    let knee_s = started.elapsed().as_secs_f64();

    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    let mut peak_rss = 0.0;
    // A smoke run does two repetitions, enough to compare fingerprints.
    let (min_reps, max_reps) = if ctx.smoke {
        (2, 2)
    } else {
        (MIN_REPS, MAX_REPS)
    };
    while reps.len() < min_reps || (spent < ctx.seconds && reps.len() < max_reps) {
        let r = w.rep(ctx, reps.is_empty());
        spent += r.setup_s + r.host_wall_s;
        reps.push(r);
        // Peak memory of the knee search plus one repetition with its
        // read-back: later repetitions rebuild the same stack and add only
        // allocator noise.
        if reps.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }

    let first = &reps[0];
    let fp = sim_fingerprint(&first.sim);
    let repeatable = reps.iter().all(|r| sim_fingerprint(&r.sim) == fp);
    let verify = first.verify.unwrap_or_default();

    let mut out = Outcome {
        attempted: first.attempted,
        failed: first.failed + verify.lost,
        ..Outcome::default()
    };
    out.correct = repeatable && verify.consistent && out.failed == 0;

    let m = &mut out.metrics;
    m.0.extend(first.sim.0.iter().map(|(k, v)| (*k, *v)));
    if let Some(k) = knee {
        m.set("sim_ops_per_s", k);
    }
    m.set("recover_sim_us", verify.recover_sim_ns as f64 / 1e3);
    let walls: Vec<f64> = reps.iter().map(|r| r.host_wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall = median(&walls);
    m.set("setup_s", median(&setups));
    m.set("host_wall_s", wall);
    m.set(
        "host_ns_per_sim_event",
        wall * 1e9 / first.sim.get("sim_events").max(1.0),
    );
    m.set("host_peak_rss_mb", peak_rss);

    // A fingerprint over the simulated end-to-end metrics as well, so that
    // the knee and the recovery time are covered.
    let mut all_sim = first.sim.clone();
    all_sim.set("sim_ops_per_s", out.metrics.get("sim_ops_per_s"));
    all_sim.set("recover_sim_us", out.metrics.get("recover_sim_us"));
    out.note(
        "sim_fingerprint",
        format!("\"{:016x}\"", sim_fingerprint(&all_sim)),
    );
    out.note("sim_repeats_across_reps", repeatable.to_string());
    out.note("reps", reps.len().to_string());
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",")
        )
    };
    out.note("rep_host_wall_s", list(&walls));
    out.note("rep_setup_s", list(&setups));
    out.note(
        "host_s",
        json_map([
            ("knee", json_num(knee_s)),
            ("reps", json_num(spent)),
            ("total", json_num(started.elapsed().as_secs_f64())),
        ]),
    );
    out.note(
        "failed_op_share",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    out.note("consistent_after_recovery", verify.consistent.to_string());
    out.note(
        "sim",
        json_map(first.sim.0.iter().map(|(k, v)| (*k, json_num(*v)))),
    );
    out
}

/// Simulated device events of a phase: the exact count that host time is
/// divided by.
fn sim_events(nvm: &nvmsim::NvmStats, disk: &blockdev::DiskStats) -> u64 {
    nvm.clflush
        + nvm.sfence
        + nvm.atomic_stores
        + nvm.lines_written
        + nvm.lines_read
        + disk.reads
        + disk.writes
}

/// Device work of a measured phase, normalised by completed write ops (the
/// paper's Fig. 7(b)/(c) normalisation) and by user payload bytes.
pub fn device_metrics(
    m: &mut Metrics,
    nvm: &nvmsim::NvmStats,
    disk: &blockdev::DiskStats,
    write_ops: u64,
    user_bytes: u64,
) {
    let w = write_ops as f64;
    m.set("clflush_per_op", ratio(nvm.clflush as f64, w));
    m.set("nvmsim.sfence_per_op", ratio(nvm.sfence as f64, w));
    m.set(
        "nvmsim.atomic_stores_per_op",
        ratio(nvm.atomic_stores as f64, w),
    );
    m.set(
        "nvmsim.lines_written_per_op",
        ratio(nvm.lines_written as f64, w),
    );
    m.set("nvmsim.lines_read_per_op", ratio(nvm.lines_read as f64, w));
    m.set("blockdev.disk_writes_per_op", ratio(disk.writes as f64, w));
    m.set(
        "device_bytes_per_user_byte",
        ratio(
            (nvm.lines_written * 64 + disk.writes * blockdev::BLOCK_SIZE as u64) as f64,
            user_bytes as f64,
        ),
    );
    m.set("sim_events", sim_events(nvm, disk) as f64);
}

/// Exact percentiles of the per-op simulated latencies, with their sample
/// counts.
pub fn latency_metrics(m: &mut Metrics, reads: Vec<u64>, writes: Vec<u64>) {
    let reads = sorted(reads);
    let writes = sorted(writes);
    let all = sorted(reads.iter().chain(&writes).copied().collect());
    m.set("sim_p99_ns", percentile(&all, 0.99) as f64);
    m.set("sim_read_p99_ns", percentile(&reads, 0.99) as f64);
    m.set("sim_write_p99_ns", percentile(&writes, 0.99) as f64);
    m.set("workloads.sim_p50_ns", percentile(&all, 0.5) as f64);
    m.set("samples", all.len() as f64);
    m.set("samples_read", reads.len() as f64);
    m.set("samples_write", writes.len() as f64);
}

/// Cache-layer counters of a pool over a measured phase of `ops` ops.
pub fn cache_metrics(m: &mut Metrics, c: &tinca::CacheStats, clflush: u64, ops: u64) {
    let kop = ops as f64 / 1e3;
    m.set(
        "core.read_hit_share",
        ratio(c.read_hits as f64, (c.read_hits + c.read_misses) as f64),
    );
    m.set(
        "core.write_hit_share",
        ratio(c.write_hits as f64, (c.write_hits + c.write_misses) as f64),
    );
    m.set("core.evictions_per_kop", ratio(c.evictions as f64, kop));
    m.set("core.writebacks_per_kop", ratio(c.writebacks as f64, kop));
    m.set(
        "core.destage_blocks_per_batch",
        ratio(c.destage_blocks as f64, c.destage_batches as f64),
    );
    m.set(
        "core.destage_stalls_per_kop",
        ratio(c.destage_stalls as f64, kop),
    );
    m.set(
        "core.group_commit_share",
        ratio(c.group_commits as f64, c.commits as f64),
    );
    m.set(
        "core.coalesced_flush_share",
        ratio(
            c.coalesced_flushes as f64,
            (c.coalesced_flushes + clflush) as f64,
        ),
    );
    m.set("core.failed_commits", c.failed_commits as f64);
}

/// How one pass over a workload's ops is instrumented.
#[derive(Clone, Copy, Default)]
pub struct Mode {
    /// Time the calls into the layers on the host clock.
    pub timed: bool,
    /// NVM tracing, `telemetry::record` and spans on.
    pub traced: bool,
    /// Crash, recover and read everything back afterwards.
    pub verify: bool,
}

/// What a traced pass leaves behind besides its numbers.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<spans::Span>,
    pub telemetry: Option<telemetry::TelemetryReport>,
    pub audit: Option<NvmAudit>,
}

/// Closes a traced run: tracing overhead and simulated-clock parity from the
/// `(host ns, sim ns)` of the untraced and the traced short pass, the
/// product's phase tree per transaction and per op, the NVM audit, and the
/// span tree, which is checked and written out. Returns whether the traced
/// pass found nothing wrong.
pub fn finish_traced(
    out: &mut Outcome,
    workload: &str,
    plain: (u64, u64),
    traced: (u64, u64),
    trace: Trace,
    txns: u64,
    ops: u64,
) -> bool {
    let m = &mut out.metrics;
    m.set(
        "telemetry.trace_overhead_share",
        ratio(traced.0 as f64, plain.0 as f64) - 1.0,
    );
    let parity = traced.1 == plain.1;
    m.set("telemetry.sim_parity", f64::from(u8::from(parity)));
    if let Some(report) = &trace.telemetry {
        phase_metrics(report, txns, ops, m);
    }
    let violations = trace.audit.map_or(0, |a| a.finish(m));

    let tree = spans::summarize(&trace.spans);
    let path = crate::trace_path(workload);
    let written = spans::write_jsonl(&path, &trace.spans);
    let self_ns = |pick: fn(&(u64, u64)) -> u64| {
        tree.as_ref().map_or_else(
            |e| format!("\"{e}\""),
            |t| json_map(t.self_ns.iter().map(|(k, v)| (*k, pick(v).to_string()))),
        )
    };
    out.note(
        "trace",
        json_map([
            ("file", format!("\"{}\"", path.display())),
            ("spans", trace.spans.len().to_string()),
            ("well_formed", tree.is_ok().to_string()),
            ("written", written.is_ok().to_string()),
            ("self_host_ns", self_ns(|v| v.0)),
            ("self_sim_ns", self_ns(|v| v.1)),
        ]),
    );
    parity && violations == 0 && tree.is_ok() && written.is_ok()
}
