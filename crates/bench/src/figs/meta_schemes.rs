//! Metadata-scheme spectrum (§1 of the paper): Flashcache's synchronous
//! metadata *blocks* vs FlashTier/bcache's metadata *log* vs Tinca's
//! fine-grained 16 B entries — all under the same Fio write workload.
//!
//! The paper's argument: block-format metadata causes "catastrophic" write
//! amplification (§3.2); a log helps but still journals metadata
//! separately from data; Tinca folds metadata persistence into the same
//! atomic entry update that commits the data.

use fssim::stack::System;

use crate::figs::{local_cfg, run_fio};
use crate::table::Table;
use crate::{banner, fmt, write_csv};

pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Metadata schemes (§1/§3.2)",
        "Fio writes: Flashcache sync-block vs FlashTier/bcache log vs Tinca 16B entries",
        "block-format metadata is the most expensive; the log helps; Tinca's entries are cheapest",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let mut t = Table::new(&[
        "System",
        "metadata scheme",
        "write IOPS",
        "clflush/op",
        "vs sync-block",
    ]);
    let mut base = 0.0f64;
    for (sys, scheme) in [
        (System::Classic, "sync metadata blocks"),
        (System::ClassicLogMeta, "metadata log"),
        (System::Tinca, "16B atomic entries"),
    ] {
        let cfg = local_cfg(sys, quick);
        let r = run_fio(&cfg, 0, ops, 0x3E7A);
        if base == 0.0 {
            base = r.ops_per_sec();
        }
        t.row(vec![
            sys.name().into(),
            scheme.into(),
            fmt(r.ops_per_sec()),
            fmt(r.clflush_per_op()),
            format!("{:+.1}%", (r.ops_per_sec() / base - 1.0) * 100.0),
        ]);
    }
    t.print();
    write_csv("meta_schemes", &t.headers(), t.rows());
    Vec::new()
}
