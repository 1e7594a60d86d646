//! NVM endurance — the paper's lifetime motivation, quantified (§1/§3.1:
//! "double writes adversely affect the lifetime of NVM cache" given PCM's
//! 10^6–10^8 write endurance, Table 1).
//!
//! Runs the same Fio write workload on Classic, Tinca, and the
//! role-switch-disabled ablation, and reports media writes per op, the
//! device-wide wear hotspot, and the projected lifetime of the *payload
//! area* on a 10^6-cycle PCM. The device-wide hotspot exposes something
//! the paper does not discuss: Tinca's persistent ring `Head`/`Tail`
//! pointer lines take one media write per committed block and dominate
//! un-levelled wear.

use fssim::stack::{build, System};
use fssim::Backend;
use workloads::fio::{Fio, FioSpec};

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Endurance (§1/§3.1)",
        "NVM media writes per op, wear hotspots, projected PCM payload lifetime",
        "double writes roughly halve payload lifetime; fine-grained metadata avoids meta-block wear",
    );
    let ops: u64 = if quick { 3_000 } else { 20_000 };
    let mut t = Table::new(&[
        "System",
        "media lines/op",
        "mean wear",
        "max wear (all)",
        "max wear (payload)",
        "payload lifetime @1e6",
    ]);
    let mut rows: Vec<(String, f64)> = Vec::new();
    for sys in [System::Classic, System::TincaNoRoleSwitch, System::Tinca] {
        let cfg = local_cfg(sys, quick);
        let mut stack = build(&cfg).unwrap();
        let mut fio = Fio::new(FioSpec::paper(0, cfg.nvm_bytes, ops, 0xED0));
        fio.setup(&mut stack);
        let wear0 = stack.nvm.wear_summary();
        let _ = fio.run(&mut stack);
        let wear = stack.nvm.wear_summary();
        // Payload region: the cache's data-block area, past the pointer /
        // ring / entry metadata whose fixed lines are intrinsically hot.
        let data_off = match stack.fs.backend() {
            Backend::Tinca(pool) => pool.shard_layout(0).data_off,
            Backend::Classic(cache) => cache.layout().data_off,
            _ => 0,
        };
        let payload = stack.nvm.wear_summary_range(data_off, cfg.nvm_bytes);
        let lines_per_op = (wear.total_line_writes - wear0.total_line_writes) as f64
            / fio.write_ops().max(1) as f64;
        let lifetime = payload.lifetime_device_writes(1_000_000);
        rows.push((sys.name().into(), lifetime));
        t.row(vec![
            sys.name().into(),
            fmt(lines_per_op),
            fmt(wear.mean_line_writes()),
            wear.max_line_writes.to_string(),
            payload.max_line_writes.to_string(),
            fmt(lifetime),
        ]);
    }
    t.print();
    if let (Some(classic), Some(tinca)) = (
        rows.iter().find(|(n, _)| n == "Classic"),
        rows.iter().find(|(n, _)| n == "Tinca"),
    ) {
        println!(
            "  payload lifetime ratio Tinca/Classic: {:.2}x",
            tinca.1 / classic.1
        );
        println!("  note: counting ALL lines, Tinca's ring Head/Tail pointer lines are the wear");
        println!("  hotspot (one media write per committed block) — the paper keeps them at fixed");
        println!("  NVM addresses; a deployment would wear-level that cache line.");
    }
    write_csv("endurance", &t.headers(), t.rows());
    Vec::new()
}
