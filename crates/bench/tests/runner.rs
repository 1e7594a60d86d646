//! The registry runner and its gate: verdicts count, failures never stop
//! the figures after them, and the gate compares like with like.

use std::process::Command;
use std::sync::Mutex;

use bench::runner::{compare, run, Direction, Figure};
use telemetry::Json;

fn summary(quick: bool, gate: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("bench", "t".into()),
        ("quick", quick.into()),
        ("gate", Json::obj(gate)),
    ])
}

/// Compares one counter moving from 100 to `now`.
fn verdict(dir: Direction, now: f64) -> Vec<String> {
    let old = summary(true, vec![("c", Json::U64(100))]);
    let new = summary(true, vec![("c", now.into())]);
    compare(&[("c", dir)], &old, &new).unwrap()
}

#[test]
fn lower_is_better_fails_past_five_percent_growth() {
    assert_eq!(verdict(Direction::LowerIsBetter, 106.0).len(), 1);
    assert!(verdict(Direction::LowerIsBetter, 104.0).is_empty());
    assert!(verdict(Direction::LowerIsBetter, 50.0).is_empty());
}

#[test]
fn higher_is_better_fails_past_five_percent_shrinkage() {
    assert_eq!(verdict(Direction::HigherIsBetter, 94.0).len(), 1);
    assert!(verdict(Direction::HigherIsBetter, 96.0).is_empty());
    assert!(verdict(Direction::HigherIsBetter, 200.0).is_empty());
}

#[test]
fn info_counters_never_fail() {
    for now in [0.0, 1.0, 1e9] {
        assert!(verdict(Direction::Info, now).is_empty());
    }
}

#[test]
fn missing_or_non_numeric_counter_is_an_error() {
    let old = summary(true, vec![("c", Json::U64(100))]);
    let counters = [("c", Direction::Info)];
    let missing = summary(true, vec![("other", Json::U64(100))]);
    assert!(compare(&counters, &old, &missing).is_err());
    assert!(compare(&counters, &missing, &old).is_err());
    let text = summary(true, vec![("c", "100".into())]);
    assert!(compare(&counters, &old, &text).is_err());
}

#[test]
fn quick_and_full_runs_are_never_compared() {
    let quick = summary(true, vec![("c", Json::U64(100))]);
    let full = summary(false, vec![("c", Json::U64(1_000))]);
    let counters = [("c", Direction::LowerIsBetter)];
    assert_eq!(compare(&counters, &quick, &full), Ok(Vec::new()));
    // Not even read: a full summary without the counter is no error.
    let bare = summary(false, vec![]);
    assert_eq!(compare(&counters, &quick, &bare), Ok(Vec::new()));
}

static RAN: Mutex<Vec<&str>> = Mutex::new(Vec::new());

fn ran(name: &'static str) {
    RAN.lock().unwrap().push(name);
}

#[test]
fn a_failing_figure_is_reported_by_name_and_the_rest_still_run() {
    let registry = [
        Figure {
            name: "first",
            run: |_| {
                ran("first");
                Vec::new()
            },
            gate: None,
        },
        Figure {
            name: "broken",
            run: |_| {
                ran("broken");
                vec!["overhead out of hand".into()]
            },
            gate: None,
        },
        Figure {
            name: "last",
            run: |quick| {
                ran(if quick { "last" } else { "last (full)" });
                Vec::new()
            },
            gate: None,
        },
    ];
    let failed = run(&registry, &["all"], true).unwrap();
    assert_eq!(failed, vec!["broken: overhead out of hand".to_string()]);
    assert_eq!(*RAN.lock().unwrap(), ["first", "broken", "last"]);
    assert!(run(&registry, &["first", "nosuch"], true).is_err());
    assert!(run(&registry, &[], true).is_err());
}

#[test]
fn the_binary_rejects_unknown_figures_and_flags() {
    for args in [&["nosuch"][..], &["fig7", "--full"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench"));
    }
}
