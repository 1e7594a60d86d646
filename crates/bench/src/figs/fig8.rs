//! Figure 8 — TPC-C workload, Classic vs Tinca across user counts
//! (§5.2.2).

use fssim::stack::{build, Stack, StackConfig, System};
use workloads::tpcc::{Tpcc, TpccSpec};
use workloads::RunReport;

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Runs one TPC-C configuration and returns (report, write hit rate).
pub fn run_one(cfg: &StackConfig, users: u32, txns: u64) -> (RunReport, f64, Stack) {
    let mut stack = build(cfg).unwrap();
    let mut tpcc = Tpcc::new(TpccSpec {
        warehouses: 16,
        warehouse_bytes: (cfg.nvm_bytes as u64 * 4) / 16, // 4:1 dataset:cache
        users,
        txns,
        seed: 0x08C0 + users as u64,
    });
    tpcc.setup(&mut stack);
    let snap0 = stack.fs.backend().cache_snapshot();
    let r = tpcc.run(&mut stack);
    let snap = stack.fs.backend().cache_snapshot().delta(&snap0);
    (r, snap.write_hit_rate().unwrap_or(0.0), stack)
}

/// TPM (a), clflush per transaction (b), disk writes per transaction (c)
/// for 5–60 users. Paper: Tinca ≈ 1.7–1.8× TPM; clflush/txn ≈ 30–36 % of
/// Classic; Classic ≈ 4.2→7.0 blocks/txn vs Tinca 1.9→3.0; both decline
/// with users, Tinca less (−35.3 % vs −41.0 %).
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 8",
        "TPC-C: TPM, clflush/txn, disk writes/txn vs user count",
        "Tinca ~1.7-1.8x TPM; clflush/txn ~30-36% of Classic; Tinca declines less",
    );
    let users_list: &[u32] = if quick {
        &[5, 20]
    } else {
        &[5, 10, 15, 20, 40, 60]
    };
    let txns: u64 = if quick { 600 } else { 3_000 };
    let mut t = Table::new(&[
        "Users",
        "System",
        "TPM",
        "clflush/txn",
        "disk wr/txn",
        "TPM ratio",
    ]);
    for &users in users_list {
        let mut tpm = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let (r, _, _) = run_one(&local_cfg(sys, quick), users, txns);
            tpm.push(r.ops_per_min());
            let ratio = if tpm.len() == 2 {
                format!("{:.2}x", tpm[1] / tpm[0])
            } else {
                String::new()
            };
            t.row(vec![
                users.to_string(),
                sys.name().into(),
                fmt(r.ops_per_min()),
                fmt(r.clflush_per_op()),
                fmt(r.disk_writes_per_op()),
                ratio,
            ]);
        }
    }
    t.print();
    write_csv("fig8", &t.headers(), t.rows());
    Vec::new()
}
