//! Figure 3 — the motivation experiments (§3.1): the cost of journaling's
//! double writes.

use fssim::stack::{build, System};
use nvmsim::NvmConfig;
use workloads::filebench::{Filebench, FilebenchSpec, Personality};
use workloads::measure;

use crate::figs::{local_cfg, run_fio};
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Fig. 3(a): write traffic to the NVM cache with Ext4-journal vs
/// Ext4-no-journal, three Filebench workloads. Paper: journaling causes
/// ≈ 195 %–290 % of the no-journal traffic.
pub fn fig3a(quick: bool) -> Vec<String> {
    banner(
        "Fig 3(a)",
        "Write traffic to NVM cache: Ext4 journal vs no-journal (Filebench)",
        "journal ≈ 1.95–2.9× the no-journal write traffic",
    );
    let ops: u64 = if quick { 1_500 } else { 8_000 };
    let mut t = Table::new(&["Workload", "no-journal MB", "journal MB", "ratio"]);
    for p in [
        Personality::Fileserver,
        Personality::Webproxy,
        Personality::Varmail,
    ] {
        let mut traffic = Vec::new();
        for sys in [System::ClassicNoJournal, System::Classic] {
            let cfg = local_cfg(sys, quick);
            let nfiles = (cfg.nvm_bytes / (64 << 10)).min(1 << 14); // dataset ≈ cache size
            let mut stack = build(&cfg).unwrap();
            let mut fb = Filebench::new(FilebenchSpec {
                personality: p,
                nfiles,
                file_bytes: 64 << 10,
                io_bytes: 16 << 10,
                ops,
                seed: 0x3A,
            });
            fb.setup(&mut stack);
            let m = measure(&stack, p.name());
            let _ = fb.run(&mut stack);
            let r = m.finish(&stack, ops);
            traffic.push(r.nvm_mb_written());
        }
        t.row(vec![
            p.name().into(),
            fmt(traffic[0]),
            fmt(traffic[1]),
            fmt(traffic[1] / traffic[0]),
        ]);
    }
    t.print();
    write_csv("fig3a", &t.headers(), t.rows());
    Vec::new()
}

/// Fig. 3(b): Fio pure-write bandwidth under (i) no journal + no flush
/// cost, (ii) journal + no flush cost, (iii) journal + flush. Paper:
/// journaling −31.5 %, flushes a further −28.3 %.
pub fn fig3b(quick: bool) -> Vec<String> {
    banner(
        "Fig 3(b)",
        "Fio write bandwidth: journaling and clflush/sfence overheads",
        "journal costs ≈ 31.5 %, clflush+sfence a further ≈ 28.3 %",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let variants: [(&str, System, bool); 3] = [
        ("no-journal, no-flush", System::ClassicNoJournal, true),
        ("journal, no-flush", System::Classic, true),
        ("journal, flush", System::Classic, false),
    ];
    let mut t = Table::new(&["Configuration", "Bandwidth MB/s", "vs first"]);
    let mut first = 0.0f64;
    for (name, sys, free_flush) in variants {
        let mut cfg = local_cfg(sys, quick);
        if free_flush {
            let mut nvm = NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech);
            nvm.clflush_overhead_ns = 0;
            nvm.clflush_clean_ns = 0;
            nvm.sfence_ns = 0;
            // "Without clflush" also means stores are not stalled by the
            // medium: persistence is free.
            nvm.tech = nvmsim::NvmTech::Nvdimm;
            cfg.nvm_override = Some(nvm);
        }
        let r = run_fio(&cfg, 0, ops, 0x3B);
        let bw = r.app_write_mb_per_sec();
        if first == 0.0 {
            first = bw;
        }
        t.row(vec![
            name.into(),
            fmt(bw),
            format!("{:.0}%", bw / first * 100.0),
        ]);
    }
    t.print();
    write_csv("fig3b", &t.headers(), t.rows());
    Vec::new()
}
