//! Flush-instruction ablation (§2.1: "New cache line flush instructions
//! (clflushopt and clwb) have been proposed to substitute clflush but
//! still bring in overheads").
//!
//! Runs the same Fio write mix on the Tinca stack under `clflush`,
//! `clflushopt`, and `clwb`. The ordering the paper predicts: each
//! successor is cheaper, but none is free — commit cost stays dominated by
//! the media write itself.

use fssim::stack::System;
use nvmsim::{FlushInstr, NvmConfig};

use crate::figs::{local_cfg, run_fio};
use crate::table::Table;
use crate::{banner, fmt, write_csv};

pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Flush instructions (§2.1)",
        "Tinca under clflush / clflushopt / clwb",
        "successors cheaper but not free; clwb additionally keeps flushed lines readable at cache speed",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let mut t = Table::new(&[
        "Instruction",
        "write IOPS",
        "vs clflush",
        "NVM line reads/op",
    ]);
    let mut base = 0.0f64;
    for instr in [
        FlushInstr::Clflush,
        FlushInstr::Clflushopt,
        FlushInstr::Clwb,
    ] {
        let mut cfg = local_cfg(System::Tinca, quick);
        cfg.nvm_override =
            Some(NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech).with_flush_instr(instr));
        let r = run_fio(&cfg, 30, ops, 0xF1);
        if base == 0.0 {
            base = r.ops_per_sec();
        }
        t.row(vec![
            instr.name().into(),
            fmt(r.ops_per_sec()),
            format!("{:+.1}%", (r.ops_per_sec() / base - 1.0) * 100.0),
            fmt(r.nvm.lines_read as f64 / r.ops as f64),
        ]);
    }
    t.print();
    write_csv("flush_instr", &t.headers(), t.rows());
    Vec::new()
}
