//! Figure 12 — sensitivity to disk medium, NVM medium, and the resulting
//! cache write hit rates (§5.4.1–5.4.2), all under TPC-C with 20 users.

use blockdev::DiskKind;
use fssim::stack::System;
use nvmsim::NvmTech;

use crate::figs::fig8::run_one;
use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Fig. 12(a): TPM on SSD vs HDD. Paper: both systems drop on HDD
/// (Classic ≈ 5×, Tinca ≈ 3×); the Tinca/Classic gap widens from 1.7× to
/// 2.8× because avoided disk writes matter more on slow disks.
pub fn fig12a(quick: bool) -> Vec<String> {
    banner(
        "Fig 12(a)",
        "TPC-C (20 users) on SSD vs HDD",
        "gap widens on HDD: ~1.7x (SSD) -> ~2.8x (HDD)",
    );
    let txns: u64 = if quick { 400 } else { 2_000 };
    let mut t = Table::new(&["Disk", "System", "TPM", "ratio"]);
    for kind in [DiskKind::Ssd, DiskKind::Hdd] {
        let mut tpm = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let mut cfg = local_cfg(sys, quick);
            cfg.disk_kind = kind;
            let (r, _, _) = run_one(&cfg, 20, txns);
            tpm.push(r.ops_per_min());
            let ratio = if tpm.len() == 2 {
                format!("{:.2}x", tpm[1] / tpm[0])
            } else {
                String::new()
            };
            t.row(vec![
                kind.name().into(),
                sys.name().into(),
                fmt(r.ops_per_min()),
                ratio,
            ]);
        }
    }
    t.print();
    write_csv("fig12a", &t.headers(), t.rows());
    Vec::new()
}

/// Fig. 12(b): TPM on PCM vs NVDIMM vs STT-RAM (SSD disk). Paper: faster
/// NVM lifts both; the gap narrows slightly (1.7× → 1.6×).
pub fn fig12b(quick: bool) -> Vec<String> {
    banner(
        "Fig 12(b)",
        "TPC-C (20 users) on PCM / NVDIMM / STT-RAM",
        "both rise with faster NVM; gap narrows slightly 1.7x -> 1.6x",
    );
    let txns: u64 = if quick { 400 } else { 2_000 };
    let mut t = Table::new(&["NVM", "System", "TPM", "ratio"]);
    for tech in [NvmTech::Pcm, NvmTech::SttRam, NvmTech::Nvdimm] {
        let mut tpm = Vec::new();
        for sys in [System::Classic, System::Tinca] {
            let mut cfg = local_cfg(sys, quick);
            cfg.nvm_tech = tech;
            let (r, _, _) = run_one(&cfg, 20, txns);
            tpm.push(r.ops_per_min());
            let ratio = if tpm.len() == 2 {
                format!("{:.2}x", tpm[1] / tpm[0])
            } else {
                String::new()
            };
            t.row(vec![
                tech.name().into(),
                sys.name().into(),
                fmt(r.ops_per_min()),
                ratio,
            ]);
        }
    }
    t.print();
    write_csv("fig12b", &t.headers(), t.rows());
    Vec::new()
}

/// Fig. 12(c): cache write hit rate under TPC-C (20 users). Paper:
/// Classic 80 %, Tinca 93 % — the double writes waste Classic's cache
/// space.
pub fn fig12c(quick: bool) -> Vec<String> {
    banner(
        "Fig 12(c)",
        "Cache write hit rate, TPC-C 20 users",
        "Classic ~80%, Tinca ~93%",
    );
    let txns: u64 = if quick { 400 } else { 2_000 };
    let mut t = Table::new(&["System", "write hit rate"]);
    for sys in [System::Classic, System::Tinca] {
        let (_, hit, _) = run_one(&local_cfg(sys, quick), 20, txns);
        t.row(vec![sys.name().into(), format!("{:.1}%", hit * 100.0)]);
    }
    t.print();
    write_csv("fig12c", &t.headers(), t.rows());
    Vec::new()
}
