//! One module per table/figure of the paper's evaluation, and the
//! registry the `bench` binary runs them from.

pub mod degraded;
pub mod destage;
pub mod endurance;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod flush_instr;
pub mod latency_load;
pub mod meta_schemes;
pub mod mw_scaling;
pub mod persistcheck;
pub mod persistrace;
pub mod phases;
pub mod recoverability;
pub mod scaling;
pub mod spanning;
pub mod tables;
pub mod ubj_compare;
pub mod wal_elim;

use crashsim::engine::Audit;
use crashsim::CampaignReport;
use fssim::stack::{build, StackConfig, System};
use tinca::{PoolConfig, TincaConfig};
use workloads::fio::{Fio, FioSpec};
use workloads::RunReport;

use crate::runner::Direction::{self, HigherIsBetter, Info, LowerIsBetter};
use crate::runner::{Figure, Gate};

const fn fig(name: &'static str, run: fn(bool) -> Vec<String>) -> Figure {
    Figure {
        name,
        run,
        gate: None,
    }
}

const fn gated(
    name: &'static str,
    run: fn(bool) -> Vec<String>,
    file: &'static str,
    counters: &'static [(&'static str, Direction)],
) -> Figure {
    Figure {
        name,
        run,
        gate: Some(Gate { file, counters }),
    }
}

/// Every table and figure of the evaluation, in the order `all` runs
/// them, with the gate schema of each `BENCH_N.json`.
pub const REGISTRY: &[Figure] = &[
    fig("table1", |_| tables::table1()),
    fig("table2", |_| tables::table2()),
    fig("fig3a", fig3::fig3a),
    fig("fig3b", fig3::fig3b),
    fig("fig4", fig4::run),
    fig("fig7", fig7::run),
    fig("fig8", fig8::run),
    fig("fig10", fig10::run),
    fig("fig11", fig11::run),
    fig("fig12a", fig12::fig12a),
    fig("fig12b", fig12::fig12b),
    fig("fig12c", fig12::fig12c),
    fig("fig13", fig13::run),
    fig("ubj_compare", ubj_compare::run),
    fig("endurance", endurance::run),
    fig("flush_instr", flush_instr::run),
    fig("meta_schemes", meta_schemes::run),
    fig("recoverability", recoverability::run),
    fig("persistcheck", persistcheck::run),
    fig("degraded", degraded::run),
    fig("destage", destage::run),
    // Flush coalescing and destage batching must keep paying.
    gated(
        "phases",
        phases::run,
        "BENCH_5.json",
        &[
            ("clflush_per_op", LowerIsBetter),
            ("disk_busy_ns", LowerIsBetter),
            ("commit_total_ns", Info),
            ("sim_ns", Info),
        ],
    ),
    fig("persistrace", persistrace::run),
    fig("scaling", scaling::run),
    // The knee must not move down the load axis nor the sub-knee tail
    // inflate; the baseline system's drift is context.
    gated(
        "latency_load",
        latency_load::run,
        "BENCH_6.json",
        &[
            ("tinca_knee_ops_per_sec", HigherIsBetter),
            ("tinca_p99_ns_subknee", LowerIsBetter),
            ("classic_knee_ops_per_sec", Info),
            ("classic_p99_ns_subknee", Info),
        ],
    ),
    // The spanning machinery must never tax the 0 %-spanning fast path.
    gated(
        "spanning",
        spanning::run,
        "BENCH_7.json",
        &[
            ("single_shard_ns_per_txn", LowerIsBetter),
            ("spanning50_ns_per_txn", LowerIsBetter),
            ("spanning_overhead_x", Info),
        ],
    ),
    // The 8-writer speedup must not shrink nor the uncontended ring cost
    // drift.
    gated(
        "mw_scaling",
        mw_scaling::run,
        "BENCH_9.json",
        &[
            ("mw_speedup_x_8w", HigherIsBetter),
            ("mw_ns_per_txn_1w", LowerIsBetter),
            ("mutex_ns_per_txn_8w", Info),
            ("mw_ns_per_txn_8w", Info),
        ],
    ),
    // The no-WAL personality's cost and write volume must not drift; the
    // WAL twins and the ratios are context.
    gated(
        "wal_elim",
        wal_elim::run,
        "BENCH_8.json",
        &[
            ("tinca_ns_per_txn", LowerIsBetter),
            ("tinca_bytes_per_txn", LowerIsBetter),
            ("wal_ns_per_txn", Info),
            ("wal_bytes_per_txn", Info),
            ("speedup_x", Info),
            ("bytes_ratio_x", Info),
        ],
    ),
];

/// The scaled local-machine configuration shared by the local figures
/// (÷256 of the paper's 8 GB NVM / 128 GB SSD testbed, with a 32 MB NVM
/// cache so runs finish in seconds). Quick mode shrinks the cache — all
/// dataset sizes derive from it, so the dataset:cache pressure the paper
/// creates (20 GB : 8 GB etc.) is preserved at every size.
pub fn local_cfg(system: System, quick: bool) -> StackConfig {
    let mut cfg = StackConfig::scaled_local(system);
    cfg.nvm_bytes = if quick { 8 << 20 } else { 32 << 20 };
    // The local figures measure Tinca with the write-behind pipeline
    // (destage daemon + flush coalescing) enabled; the `destage` figure
    // isolates its contribution with an explicit on/off comparison.
    cfg.destage = true;
    cfg
}

/// Builds `cfg`'s stack, lays out the paper's Fio file
/// ([`FioSpec::paper`] over `cfg.nvm_bytes`) and runs `ops` operations.
pub(crate) fn run_fio(cfg: &StackConfig, read_pct: u32, ops: u64, seed: u64) -> RunReport {
    let mut stack = build(cfg).unwrap();
    let mut fio = Fio::new(FioSpec::paper(read_pct, cfg.nvm_bytes, ops, seed));
    fio.setup(&mut stack);
    fio.run(&mut stack)
}

/// The sharded figures' pool: `shards` shards with a 16 KB ring each,
/// everything else default. The figures build it traced through
/// [`crashsim::engine::Rig::new`].
pub(crate) fn sharded_pool(shards: usize) -> PoolConfig {
    PoolConfig {
        shards,
        cache: TincaConfig {
            ring_bytes: 16 << 10,
            ..TincaConfig::default()
        },
        ..PoolConfig::default()
    }
}

/// The correctness violations of `audit`, summed over its views; prints
/// every view one fired on, tagged with `point`.
pub(crate) fn violations(audit: &Audit, point: &str) -> usize {
    audit
        .views()
        .filter(|(_, r)| !r.is_clean())
        .map(|(what, r)| {
            eprintln!("--- {what} ({point}) ---\n{r}");
            r.violations.len()
        })
        .sum()
}

/// Runs the campaign-table entry `name` (crashsim's or kvdb's) at its
/// tier-1 seeds under `--quick`, at its CI seeds in full, and prints its
/// report and every violation.
pub(crate) fn campaign(name: &str, quick: bool) -> CampaignReport {
    let c = crashsim::CAMPAIGNS
        .iter()
        .chain(kvdb::CAMPAIGNS)
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no campaign entry {name:?}"));
    let report = c.report(if quick { c.tier1 } else { c.ci });
    println!("{name}: {report}");
    for v in &report.violations {
        println!("  !! {v}");
    }
    report
}

/// Per-node configuration for the cluster figures (four nodes).
pub fn cluster_cfg(system: System, quick: bool) -> StackConfig {
    let mut cfg = StackConfig::scaled_local(system);
    cfg.nvm_bytes = if quick { 4 << 20 } else { 8 << 20 };
    cfg.max_files = 4 << 10;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_build() {
        let c = local_cfg(System::Tinca, false);
        assert_eq!(c.nvm_bytes, 32 << 20);
        assert!(local_cfg(System::Tinca, true).nvm_bytes < c.nvm_bytes);
        let k = cluster_cfg(System::Classic, false);
        assert_eq!(k.nvm_bytes, 8 << 20);
    }
}
