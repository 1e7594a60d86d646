//! Runs every workload at tiny op counts and holds `BENCHMARK.json`, the
//! metric tables and the printed result lines together.

use std::collections::BTreeSet;
use std::process::Command;

use benchmark::json::Json;
use benchmark::metrics::{Decl, END_TO_END, PER_LAYER, WORKLOADS};

/// One smoke run; returns its info and result lines, parsed.
fn run(workload: &str, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result is JSON");
    let info = Json::parse(lines.next().expect("an info line")).expect("info is JSON");
    (info, result)
}

/// The result line has exactly the contract's keys and every declared
/// metric, each with its unit.
fn check_result(workload: &str, result: &Json, decls: &[Decl]) {
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::num),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0);
    let printed = result.get("metrics").expect("metrics").fields();
    assert_eq!(printed.len(), decls.len(), "{workload}");
    for d in decls {
        let m = result.at(&["metrics", d.name]).unwrap_or_else(|| {
            panic!("{workload}: metric {} is not printed", d.name);
        });
        assert_eq!(
            m.get("unit").and_then(Json::str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert!(m.get("value").and_then(Json::num).is_some(), "{}", d.name);
    }
}

#[test]
fn every_workload_prints_every_declared_metric_and_repeats() {
    for w in WORKLOADS {
        let (info, result) = run(w, false);
        check_result(w, &result, &END_TO_END);
        assert_eq!(
            info.at(&["info", "failed_op_share"]).and_then(Json::num),
            Some(0.0)
        );
        let fingerprint = |info: &Json| {
            info.at(&["info", "sim_fingerprint"])
                .and_then(Json::str)
                .map(str::to_string)
                .expect("a sim_fingerprint")
        };
        let (again, _) = run(w, false);
        assert_eq!(
            fingerprint(&info),
            fingerprint(&again),
            "{w} does not repeat"
        );

        let (info, result) = run(w, true);
        check_result(w, &result, &PER_LAYER);
        let value = |name: &str| result.at(&["metrics", name, "value"]).and_then(Json::num);
        assert_eq!(value("persistcheck.violations"), Some(0.0), "{w}");
        assert_eq!(value("telemetry.sim_parity"), Some(1.0), "{w}");
        assert_eq!(
            info.at(&["info", "trace", "well_formed"]),
            Some(&Json::Bool(true)),
            "{w}"
        );
        assert!(!info
            .at(&["info", "predictions"])
            .expect("predictions")
            .fields()
            .is_empty());
    }
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let b = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: BTreeSet<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let names = |key: &str| -> Vec<String> {
        b.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for (key, decls) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = b.get(key).expect(key).items();
        assert_eq!(declared.len(), decls.len(), "{key}");
        for (j, d) in declared.iter().zip(decls) {
            assert_eq!(j.get("name").and_then(Json::str), Some(d.name));
            assert_eq!(
                j.get("unit").and_then(Json::str),
                Some(d.unit),
                "{}",
                d.name
            );
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                j.get("better").and_then(Json::str),
                Some(better),
                "{}",
                d.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    j.get("bound").and_then(Json::num),
                    Some(d.bound),
                    "{}",
                    d.name
                );
            } else {
                assert!(j.get("bound").is_none(), "{}", d.name);
            }
        }
    }
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
}
