//! The refactoring test for the crash campaigns: the exact tally of every
//! entry of `crashsim::CAMPAIGNS` and `kvdb::CAMPAIGNS` at its tier-1
//! seeds.
//!
//! Looser crash tests assert bounds (`crashes > 60`), which a trip drawn
//! from a different RNG draw, a cut resolved with a different seed or an
//! extra persistence event would all slip past. These numbers must not
//! move: every seed keeps its verdict, its trip and its cut. A change that
//! is *meant* to move them (a new script draw, a protocol that spends more
//! persistence events) updates them in the same commit and says why. A new
//! table entry fails here until it is pinned.

use std::collections::BTreeSet;
use std::sync::Mutex;

use tinca_repro::crashsim::{self, Campaign};

/// Each entry's report, as its `Display` prints it.
#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("fs-tinca",                "10 runs, 8 completed, 2 crashed, 0 violations"),
    ("fs-classic",              "10 runs, 1 completed, 9 crashed, 0 violations"),
    ("fs-norole",               "10 runs, 4 completed, 6 crashed, 0 violations"),
    ("fs-ubj",                  "10 runs, 7 completed, 3 crashed, 0 violations"),
    ("fs-logmeta",              "10 runs, 6 completed, 4 crashed, 0 violations"),
    ("fs-tinca-destage",        "10 runs, 7 completed, 3 crashed, 0 violations"),
    ("fs-tinca-coalesced",      "10 runs, 6 completed, 4 crashed, 0 violations"),
    ("fs-tinca-kill",           "10 runs, 7 completed, 3 crashed, 0 violations"),
    ("fs-classic-kill",         "10 runs, 4 completed, 6 crashed, 0 violations"),
    ("fs-tinca-frontier",       "36 epochs (26 exhaustive, 10 capped at 4 states), 94 crash states, 0 violations"),
    ("fs-classic-frontier",     "24 epochs (0 exhaustive, 24 capped at 2 states), 48 crash states, 0 violations"),
    ("pool-1",                  "10 runs, 0 completed, 10 crashed, 0 violations"),
    ("pool-4",                  "24 runs, 7 completed, 17 crashed, 0 violations"),
    ("pool-delta-1",            "24 runs, 0 completed, 24 crashed, 0 violations"),
    ("pool-delta-2",            "24 runs, 3 completed, 21 crashed, 0 violations"),
    ("ring-1",                  "10 runs, 0 completed, 10 crashed, 0 violations"),
    ("ring-2",                  "24 runs, 7 completed, 17 crashed, 0 violations"),
    ("ring-4",                  "10 runs, 8 completed, 2 crashed, 0 violations"),
    ("ring-seeded-2",           "24 runs, 9 completed, 15 crashed, 0 violations"),
    ("ring-frontier",           "38 epochs (33 exhaustive, 5 capped at 4 states), 86 crash states, 0 violations"),
    ("faults-1",                "40 runs, 14 completed, 26 crashed, 0 violations, 0 degraded, 20 transients absorbed over 42 retries, 2 permanent errors"),
    ("faults-2",                "10 runs, 8 completed, 2 crashed, 0 violations, 3 degraded, 15 transients absorbed over 38 retries, 4 permanent errors"),
    ("faults-ring-2",           "10 runs, 5 completed, 5 crashed, 0 violations, 3 degraded, 22 transients absorbed over 42 retries, 8 permanent errors"),
    ("backlog-2",               "10 runs, 6 completed, 4 crashed, 0 violations, 937 shed"),
    ("backlog-4",               "10 runs, 8 completed, 2 crashed, 0 violations, 1211 shed"),
    ("threaded-frontier",       "32 epochs (26 exhaustive, 6 capped at 4 states), 76 crash states, 0 violations"),
    ("spanning-frontier",       "34 epochs (30 exhaustive, 4 capped at 4 states), 76 crash states, 0 violations"),
    ("spanning-delta-frontier", "68 epochs (60 exhaustive, 8 capped at 4 states), 152 crash states, 0 violations"),
    ("spanning-coalesced-frontier", "26 epochs (22 exhaustive, 4 capped at 4 states), 60 crash states, 0 violations"),
    ("kv-wal-pull",             "6 runs, 2 completed, 4 crashed, 0 violations"),
    ("kv-wal-kill",             "4 runs, 3 completed, 1 crashed, 0 violations"),
    ("kv-tinca-pull",           "12 runs, 7 completed, 5 crashed, 0 violations"),
    ("kv-tinca-kill",           "8 runs, 5 completed, 3 crashed, 0 violations"),
    ("kv-wal-frontier",         "12 epochs (0 exhaustive, 12 capped at 2 states), 24 crash states, 0 violations"),
    ("kv-tinca-frontier",       "8 epochs (6 exhaustive, 2 capped at 4 states), 20 crash states, 0 violations"),
];

fn table() -> Vec<&'static Campaign> {
    crashsim::CAMPAIGNS.iter().chain(kvdb::CAMPAIGNS).collect()
}

#[test]
fn every_campaign_is_pinned_once() {
    let names: Vec<&str> = table().iter().map(|c| c.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a table name repeats: {names:?}");
    let pinned: BTreeSet<&str> = PINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(pinned.len(), PINS.len(), "a pin repeats");
    assert_eq!(pinned, unique, "pinned names and table names differ");
}

/// Runs every entry at its tier-1 seeds, one worker per core, and
/// compares each report with its pin.
#[test]
fn every_campaign_keeps_its_tally() {
    let todo = Mutex::new(table());
    let moved = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(c) = todo.lock().unwrap().pop() else {
                    return;
                };
                let report = (c.run)(c.tier1.clone());
                let pin = PINS.iter().find(|(name, _)| *name == c.name);
                let got = report.to_string();
                if pin.map(|(_, want)| *want) != Some(got.as_str()) {
                    let mut line = format!("{}: {got}", c.name);
                    for v in &report.violations {
                        line += &format!("\n  {v}");
                    }
                    moved.lock().unwrap().push(line);
                }
            });
        }
    });
    let moved = moved.into_inner().unwrap();
    assert!(moved.is_empty(), "tallies moved:\n{}", moved.join("\n"));
}
