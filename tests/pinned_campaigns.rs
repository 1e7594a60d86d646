//! The refactoring test for the crash campaigns: the exact tally of every
//! entry of `crashsim::CAMPAIGNS` and `kvdb::CAMPAIGNS` at its tier-1
//! seeds, and, in CI's release build, at its CI seeds (200 a sweep, 4 a
//! frontier).
//!
//! These numbers must not move: every seed keeps its verdict, its trip
//! and its cut. A change that is *meant* to move them (a new script draw,
//! a protocol that spends more persistence events) updates them in the
//! same commit and says why. A new table entry fails here until it is
//! pinned at both sizes.

use std::collections::BTreeSet;
use std::sync::Mutex;

use tinca_repro::crashsim::{self, Campaign};

/// An entry's name and its report at its `tier1` and at its `ci` seeds,
/// as its `Display` prints it.
type Pin = (&'static str, &'static str, &'static str);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("fs-tinca",                    "10 runs, 8 completed, 2 crashed, 0 violations",                                    "200 runs, 155 completed, 45 crashed, 0 violations"),
    ("fs-classic",                  "10 runs, 1 completed, 9 crashed, 0 violations",                                    "200 runs, 84 completed, 116 crashed, 0 violations"),
    ("fs-norole",                   "10 runs, 4 completed, 6 crashed, 0 violations",                                    "200 runs, 133 completed, 67 crashed, 0 violations"),
    ("fs-ubj",                      "10 runs, 7 completed, 3 crashed, 0 violations",                                    "200 runs, 148 completed, 52 crashed, 0 violations"),
    ("fs-logmeta",                  "10 runs, 6 completed, 4 crashed, 0 violations",                                    "200 runs, 141 completed, 59 crashed, 0 violations"),
    ("fs-tinca-destage",            "10 runs, 7 completed, 3 crashed, 0 violations",                                    "200 runs, 161 completed, 39 crashed, 0 violations"),
    ("fs-tinca-coalesced",          "10 runs, 6 completed, 4 crashed, 0 violations",                                    "200 runs, 166 completed, 34 crashed, 0 violations"),
    ("fs-tinca-kill",               "10 runs, 7 completed, 3 crashed, 0 violations",                                    "200 runs, 165 completed, 35 crashed, 0 violations"),
    ("fs-classic-kill",             "10 runs, 4 completed, 6 crashed, 0 violations",                                    "200 runs, 104 completed, 96 crashed, 0 violations"),
    ("fs-tinca-frontier",           "36 epochs (26 exhaustive, 10 capped at 4 states), 94 crash states, 0 violations",  "68 epochs (49 exhaustive, 19 capped at 4 states), 178 crash states, 0 violations"),
    ("fs-classic-frontier",         "24 epochs (0 exhaustive, 24 capped at 2 states), 48 crash states, 0 violations",   "46 epochs (0 exhaustive, 46 capped at 2 states), 92 crash states, 0 violations"),
    ("pool-1",                      "10 runs, 0 completed, 10 crashed, 0 violations",                                   "200 runs, 0 completed, 200 crashed, 0 violations"),
    ("pool-4",                      "24 runs, 7 completed, 17 crashed, 0 violations",                                   "200 runs, 98 completed, 102 crashed, 0 violations"),
    ("pool-delta-1",                "24 runs, 0 completed, 24 crashed, 0 violations",                                   "200 runs, 0 completed, 200 crashed, 0 violations"),
    ("pool-delta-2",                "24 runs, 3 completed, 21 crashed, 0 violations",                                   "200 runs, 39 completed, 161 crashed, 0 violations"),
    ("ring-1",                      "10 runs, 0 completed, 10 crashed, 0 violations",                                   "200 runs, 0 completed, 200 crashed, 0 violations"),
    ("ring-2",                      "24 runs, 7 completed, 17 crashed, 0 violations",                                   "200 runs, 87 completed, 113 crashed, 0 violations"),
    ("ring-4",                      "10 runs, 8 completed, 2 crashed, 0 violations",                                    "200 runs, 143 completed, 57 crashed, 0 violations"),
    ("ring-seeded-1",               "10 runs, 0 completed, 10 crashed, 0 violations",                                   "200 runs, 0 completed, 200 crashed, 0 violations"),
    ("ring-seeded-2",               "24 runs, 9 completed, 15 crashed, 0 violations",                                   "200 runs, 73 completed, 127 crashed, 0 violations"),
    ("ring-seeded-4",               "10 runs, 8 completed, 2 crashed, 0 violations",                                    "200 runs, 141 completed, 59 crashed, 0 violations"),
    ("ring-frontier",               "40 epochs (35 exhaustive, 5 capped at 4 states), 90 crash states, 0 violations",   "145 epochs (125 exhaustive, 20 capped at 4 states), 342 crash states, 0 violations"),
    ("ring-seeded-frontier",        "44 epochs (38 exhaustive, 6 capped at 4 states), 100 crash states, 0 violations",  "153 epochs (131 exhaustive, 22 capped at 4 states), 362 crash states, 0 violations"),
    ("faults-1",                    "40 runs, 14 completed, 26 crashed, 0 violations, 0 degraded, 20 transients absorbed over 42 retries, 2 permanent errors", "200 runs, 68 completed, 132 crashed, 0 violations, 13 degraded, 122 transients absorbed over 247 retries, 27 permanent errors"),
    ("faults-2",                    "10 runs, 8 completed, 2 crashed, 0 violations, 3 degraded, 15 transients absorbed over 38 retries, 4 permanent errors", "200 runs, 125 completed, 75 crashed, 0 violations, 25 degraded, 249 transients absorbed over 524 retries, 42 permanent errors"),
    ("faults-ring-2",               "10 runs, 5 completed, 5 crashed, 0 violations, 3 degraded, 22 transients absorbed over 42 retries, 8 permanent errors", "200 runs, 139 completed, 61 crashed, 0 violations, 26 degraded, 250 transients absorbed over 493 retries, 64 permanent errors"),
    ("backlog-2",                   "10 runs, 6 completed, 4 crashed, 0 violations, 937 shed",                          "200 runs, 148 completed, 52 crashed, 0 violations, 23607 shed"),
    ("backlog-4",                   "10 runs, 8 completed, 2 crashed, 0 violations, 1211 shed",                         "200 runs, 152 completed, 48 crashed, 0 violations, 22903 shed"),
    ("threaded-frontier",           "34 epochs (28 exhaustive, 6 capped at 4 states), 80 crash states, 0 violations",   "136 epochs (112 exhaustive, 24 capped at 4 states), 320 crash states, 0 violations"),
    ("threaded-delta-frontier",     "50 epochs (41 exhaustive, 9 capped at 4 states), 118 crash states, 0 violations",  "196 epochs (161 exhaustive, 35 capped at 4 states), 462 crash states, 0 violations"),
    ("spanning-frontier",           "36 epochs (32 exhaustive, 4 capped at 4 states), 80 crash states, 0 violations",   "144 epochs (128 exhaustive, 16 capped at 4 states), 320 crash states, 0 violations"),
    ("spanning-delta-frontier",     "70 epochs (62 exhaustive, 8 capped at 4 states), 156 crash states, 0 violations",  "280 epochs (248 exhaustive, 32 capped at 4 states), 624 crash states, 0 violations"),
    ("spanning-coalesced-frontier", "28 epochs (24 exhaustive, 4 capped at 4 states), 68 crash states, 0 violations",   "112 epochs (96 exhaustive, 16 capped at 4 states), 272 crash states, 0 violations"),
    ("kv-wal-pull",                 "6 runs, 2 completed, 4 crashed, 0 violations",                                     "200 runs, 84 completed, 116 crashed, 0 violations"),
    ("kv-wal-kill",                 "4 runs, 3 completed, 1 crashed, 0 violations",                                     "200 runs, 85 completed, 115 crashed, 0 violations"),
    ("kv-tinca-pull",               "12 runs, 7 completed, 5 crashed, 0 violations",                                    "200 runs, 119 completed, 81 crashed, 0 violations"),
    ("kv-tinca-kill",               "8 runs, 5 completed, 3 crashed, 0 violations",                                     "200 runs, 119 completed, 81 crashed, 0 violations"),
    ("kv-wal-frontier",             "12 epochs (0 exhaustive, 12 capped at 2 states), 24 crash states, 0 violations",   "48 epochs (0 exhaustive, 48 capped at 2 states), 96 crash states, 0 violations"),
    ("kv-tinca-frontier",           "8 epochs (6 exhaustive, 2 capped at 4 states), 20 crash states, 0 violations",     "24 epochs (18 exhaustive, 6 capped at 4 states), 60 crash states, 0 violations"),
];

fn table() -> Vec<&'static Campaign> {
    crashsim::CAMPAIGNS.iter().chain(kvdb::CAMPAIGNS).collect()
}

#[test]
fn every_campaign_is_pinned_once() {
    let names: Vec<&str> = table().iter().map(|c| c.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a table name repeats: {names:?}");
    let pinned: BTreeSet<&str> = PINS.iter().map(|(name, ..)| *name).collect();
    assert_eq!(pinned.len(), PINS.len(), "a pin repeats");
    assert_eq!(pinned, unique, "pinned names and table names differ");
}

/// Runs every entry over its first `seeds(entry)` seeds, one worker per
/// core, and compares each report with the pin `want` picks.
fn keeps_tallies(seeds: fn(&Campaign) -> u64, want: fn(&Pin) -> &'static str) {
    let todo = Mutex::new(table());
    let moved = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(c) = todo.lock().unwrap().pop() else {
                    return;
                };
                let report = c.report(seeds(c));
                let pin = PINS.iter().find(|(name, ..)| *name == c.name);
                let got = report.to_string();
                if pin.map(want) != Some(got.as_str()) {
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

#[test]
fn every_campaign_keeps_its_tally() {
    keeps_tallies(|c| c.tier1, |pin| pin.1);
}

#[test]
#[ignore = "CI size, about 25 s optimised: run via cargo test --release --test pinned_campaigns -- --ignored"]
fn every_campaign_keeps_its_ci_tally() {
    keeps_tallies(|c| c.ci, |pin| pin.2);
}
