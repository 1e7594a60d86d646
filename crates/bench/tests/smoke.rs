//! Smoke tests for the harness plumbing (the heavy figure runs are
//! exercised by `bench all`; here we keep the cheap paths under `cargo
//! test`).

#[test]
fn tables_render_and_write_csv() {
    assert!(bench::figs::tables::table1().is_empty());
    assert!(bench::figs::tables::table2().is_empty());
    // CSVs landed: a header plus one line per row.
    let dir = bench::results_dir();
    let lines = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap()
            .lines()
            .count()
    };
    assert_eq!(lines("table1.csv"), 1 + 4, "four NVM technologies");
    assert_eq!(lines("table2.csv"), 1 + 6, "six benchmarks");
}

#[test]
fn fmt_is_compact() {
    assert_eq!(bench::fmt(0.0), "0");
    assert_eq!(bench::fmt(3.46159), "3.46");
    assert_eq!(bench::fmt(42.123), "42.1");
    assert_eq!(bench::fmt(12345.6), "12346");
}

#[test]
fn local_cfgs_scale_down_in_quick_mode() {
    use fssim::stack::System;
    let full = bench::figs::local_cfg(System::Tinca, false);
    let quick = bench::figs::local_cfg(System::Tinca, true);
    assert!(quick.nvm_bytes < full.nvm_bytes);
    let cfull = bench::figs::cluster_cfg(System::Classic, false);
    let cquick = bench::figs::cluster_cfg(System::Classic, true);
    assert!(cquick.nvm_bytes < cfull.nvm_bytes);
}
