//! The metric and workload declarations, mirrored by `BENCHMARK.json` (the
//! smoke test holds the two together), and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Decl {
    e2e(name, unit, higher, 0.0)
}

pub const WORKLOADS: [&str; 5] = [
    "ol_write_hot",
    "ol_mixed_cold",
    "kv_tpcc",
    "fs_fio_tinca",
    "fs_fio_classic",
];

/// Simulated metrics carry `sim_` in their unit: they are the product and
/// repeat bit-for-bit for one seed. The rest is host time or memory.
pub const END_TO_END: [Decl; 11] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("sim_ops_per_s", "1/sim_s", true, 0.1),
    e2e("sim_p99_ns", "sim_ns", false, 0.06),
    e2e("sim_read_p99_ns", "sim_ns", false, 0.25),
    e2e("sim_write_p99_ns", "sim_ns", false, 0.1),
    e2e("clflush_per_op", "count", false, 0.08),
    e2e("device_bytes_per_user_byte", "ratio", false, 0.08),
    e2e("recover_sim_us", "sim_us", false, 0.25),
    e2e("host_wall_s", "s", false, 0.25),
    e2e("host_ns_per_sim_event", "ns", false, 0.25),
    e2e("host_peak_rss_mb", "MB", false, 0.25),
];

pub const PER_LAYER: [Decl; 59] = [
    layer("workloads.sim_p50_ns", "sim_ns", false),
    layer("workloads.queue_wait_p50_ns", "sim_ns", false),
    layer("workloads.queue_wait_p99_ns", "sim_ns", false),
    layer("workloads.service_p50_ns", "sim_ns", false),
    layer("workloads.service_p99_ns", "sim_ns", false),
    layer("workloads.p99_at_r85_ns", "sim_ns", false),
    layer("workloads.shed_share", "ratio", false),
    layer("workloads.step_host_ns_per_op", "ns", false),
    layer("kvdb.pages_per_commit", "count", false),
    layer("kvdb.page_reads_per_txn", "count", false),
    layer("kvdb.spanning_commit_share", "ratio", false),
    layer("kvdb.store_commit_sim_ns_per_txn", "sim_ns", false),
    layer("kvdb.self_host_ns_per_txn", "ns", false),
    layer("fssim.op_sim_ns_per_op", "sim_ns", false),
    layer("fssim.fsync_sim_p99_ns", "sim_ns", false),
    layer("fssim.op_host_ns_per_op", "ns", false),
    layer("fssim.commits_per_kop", "count", false),
    layer("fssim.blocks_per_commit", "count", false),
    layer("fssim.jbd2_log_blocks_per_op", "count", false),
    layer("fssim.jbd2_checkpoint_blocks_per_op", "count", false),
    layer("core.commit_sim_ns_per_txn", "sim_ns", false),
    layer("core.read_sim_ns_per_op", "sim_ns", false),
    layer("core.commit_host_ns_per_txn", "ns", false),
    layer("core.read_host_ns_per_op", "ns", false),
    layer("core.read_hit_share", "ratio", true),
    layer("core.write_hit_share", "ratio", true),
    layer("core.evictions_per_kop", "count", false),
    layer("core.writebacks_per_kop", "count", false),
    layer("core.destage_blocks_per_batch", "count", true),
    layer("core.destage_stalls_per_kop", "count", false),
    layer("core.group_commit_share", "ratio", true),
    layer("core.coalesced_flush_share", "ratio", true),
    layer("core.failed_commits", "count", false),
    layer("core.free_blocks_after_warmup", "count", true),
    layer("core.recover_host_ms", "ms", false),
    layer("core.revoked_blocks_on_recover", "count", false),
    layer("core.phase.commit.stage_ns_per_txn", "sim_ns", false),
    layer("core.phase.commit.entry_ns_per_txn", "sim_ns", false),
    layer("core.phase.commit.ring_ns_per_txn", "sim_ns", false),
    layer("core.phase.commit.point_ns_per_txn", "sim_ns", false),
    layer("core.phase.commit.spanning_ns_per_txn", "sim_ns", false),
    layer("core.phase.destage.drain_ns_per_op", "sim_ns", false),
    layer("core.phase.attributed_share", "ratio", true),
    layer("classic.write_hit_share", "ratio", true),
    layer("classic.writebacks_per_kop", "count", false),
    layer("nvmsim.sfence_per_op", "count", false),
    layer("nvmsim.atomic_stores_per_op", "count", false),
    layer("nvmsim.lines_written_per_op", "count", false),
    layer("nvmsim.lines_read_per_op", "count", false),
    layer("nvmsim.replay_host_ns_per_event", "ns", false),
    layer("blockdev.disk_writes_per_op", "count", false),
    layer("blockdev.fg_busy_share", "ratio", false),
    layer("blockdev.bg_write_share", "ratio", true),
    layer("blockdev.blocks_per_batch", "count", true),
    layer("blockdev.host_ns_per_io", "ns", false),
    layer("telemetry.trace_overhead_share", "ratio", false),
    layer("telemetry.sim_parity", "ratio", true),
    layer("persistcheck.violations", "count", false),
    layer("persistcheck.host_ns_per_event", "ns", false),
];

/// Metric values of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Everything informational: fingerprints, sample counts, predictions.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, json_value: String) {
        self.info.push((key.to_string(), json_value));
    }

    pub fn info_line(&self, workload: &str) -> String {
        let mut s = format!("{{\"info\":{{\"workload\":\"{workload}\"");
        for (k, v) in &self.info {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        s.push_str("}}");
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// declared metrics. A layer the workload does not touch did no work
    /// and reads 0.
    pub fn result_line(&self, decls: &[Decl]) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in decls.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_num(self.metrics.get(d.name)),
                d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A number as measured, with all its digits; JSON has no NaN or infinity.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_map<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        let line = o.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert!(line.contains("\"host_peak_rss_mb\":{\"value\":0,\"unit\":\"MB\"}"));
    }
}
