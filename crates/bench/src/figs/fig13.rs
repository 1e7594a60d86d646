//! Figure 13 + §5.4.3 — blocks per committed transaction over time for
//! Fileserver vs Webproxy, and the COW spatial overhead bound.

use blockdev::BLOCK_SIZE;
use fssim::stack::{build, System};
use workloads::filebench::{Filebench, FilebenchSpec, Personality};

use crate::figs::local_cfg;
use crate::table::Table;
use crate::{banner, fmt, write_csv};

/// Runs one personality with timer-style commits (a commit every fixed
/// number of operations, like JBD2's 5-second timer) and returns the
/// per-transaction block counts.
fn txn_sizes(personality: Personality, quick: bool) -> Vec<u32> {
    let mut cfg = local_cfg(System::Tinca, quick);
    // Timer-batched commits: disable size-triggered batching; Fig. 13's
    // transaction sizes then reflect each window's incoming write volume.
    cfg.txn_block_limit = 1 << 20;
    cfg.ring_bytes = 512 << 10;
    let mut stack = build(&cfg).unwrap();
    let ops: u64 = if quick { 2_000 } else { 10_000 };
    let mut fb = Filebench::new(FilebenchSpec {
        personality,
        nfiles: 512,
        file_bytes: 64 << 10,
        io_bytes: 16 << 10,
        ops,
        seed: 0x13,
    });
    fb.setup(&mut stack);
    // Drive the run in fixed windows, committing at each boundary.
    let committed_before = stack.fs.txn_sizes().len();
    // Filebench::run commits internally only on varmail fsyncs and at the
    // end; emulate the timer by splitting into window-sized sub-runs.
    let windows: u64 = if quick { 10 } else { 40 };
    let per_window = ops / windows;
    for w in 0..windows {
        let mut sub = Filebench::new(FilebenchSpec {
            personality,
            nfiles: 512,
            file_bytes: 64 << 10,
            io_bytes: 16 << 10,
            ops: per_window,
            seed: 0x1300 + w,
        });
        let _ = sub.run(&mut stack);
    }
    stack.fs.txn_sizes()[committed_before..].to_vec()
}

/// Prints the per-transaction block-count series (sampled) for both
/// personalities and the worst-case COW overhead (§5.4.3). Paper:
/// fileserver ≈ 2× webproxy blocks/txn; worst-case COW cost ≈ 0.4 % of an
/// 8 GB cache.
pub fn run(quick: bool) -> Vec<String> {
    banner(
        "Fig 13 / §5.4.3",
        "Blocks per committed transaction (fileserver vs webproxy) + COW overhead",
        "fileserver ~2x webproxy blocks/txn; worst-case COW space ~0.4% of cache",
    );
    let fs_sizes = txn_sizes(Personality::Fileserver, quick);
    let wp_sizes = txn_sizes(Personality::Webproxy, quick);
    let mean = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[u32]| v.iter().copied().max().unwrap_or(0);

    let mut t = Table::new(&[
        "Workload",
        "txns",
        "mean blk/txn",
        "max blk/txn",
        "worst COW MB",
        "% of cache",
    ]);
    let cache_bytes = (32 << 20) as f64;
    for (name, sizes) in [("fileserver", &fs_sizes), ("webproxy", &wp_sizes)] {
        let worst = max(sizes) as f64 * BLOCK_SIZE as f64;
        t.row(vec![
            name.into(),
            sizes.len().to_string(),
            fmt(mean(sizes)),
            max(sizes).to_string(),
            fmt(worst / (1 << 20) as f64),
            format!("{:.2}%", worst / cache_bytes * 100.0),
        ]);
    }
    t.print();
    println!(
        "  fileserver/webproxy mean blocks-per-txn ratio: {:.2} (paper: ~2x)",
        mean(&fs_sizes) / mean(&wp_sizes).max(1e-9)
    );
    // Emit the raw series for plotting.
    let series: Vec<Vec<String>> = fs_sizes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            vec![
                i.to_string(),
                v.to_string(),
                wp_sizes.get(i).map(ToString::to_string).unwrap_or_default(),
            ]
        })
        .collect();
    write_csv(
        "fig13_series",
        &["txn", "fileserver_blocks", "webproxy_blocks"],
        &series,
    );
    write_csv("fig13", &t.headers(), t.rows());
    Vec::new()
}
