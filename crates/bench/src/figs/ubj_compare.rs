//! §5.4.4 — the Tinca vs UBJ comparison, quantified.
//!
//! The paper argues three structural differences (architecture, the
//! `memcpy`-on-critical-path for frozen blocks, transaction-unit
//! checkpointing) but shows no figure; this harness measures all three on
//! the same Fio write workload over identical devices.

use fssim::stack::{build, System};
use fssim::Backend;
use workloads::fio::{Fio, FioSpec};

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

pub fn run(quick: bool) -> Vec<String> {
    banner(
        "§5.4.4",
        "Tinca vs UBJ: throughput, frozen-block memcpy cost, checkpoint stalls",
        "Tinca avoids UBJ's critical-path memcpy and per-transaction checkpoint stalls",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let mut t = Table::new(&[
        "System",
        "write IOPS",
        "clflush/op",
        "frozen memcpys",
        "memcpy MB",
        "ckpt stalls",
        "stall ms total",
    ]);
    for sys in [System::Ubj, System::Tinca] {
        let cfg = local_cfg(sys, quick);
        let mut stack = build(&cfg).unwrap();
        let mut fio = Fio::new(FioSpec::paper(0, cfg.nvm_bytes, ops, 0x544));
        fio.setup(&mut stack);
        let r = fio.run(&mut stack);
        // UBJ-specific counters, where applicable.
        let (copies, copy_mb, ckpts, stall_ms) = match stack.fs.backend() {
            Backend::Ubj(ubj) => {
                let s = ubj.stats();
                (
                    s.frozen_copies,
                    s.frozen_copy_bytes as f64 / (1 << 20) as f64,
                    s.checkpoints,
                    s.checkpoint_stall_ns as f64 / 1e6,
                )
            }
            _ => (0, 0.0, 0, 0.0),
        };
        t.row(vec![
            sys.name().into(),
            fmt(r.ops_per_sec()),
            fmt(r.clflush_per_op()),
            copies.to_string(),
            fmt(copy_mb),
            ckpts.to_string(),
            fmt(stall_ms),
        ]);
    }
    t.print();
    write_csv("ubj_compare", &t.headers(), t.rows());
    Vec::new()
}
