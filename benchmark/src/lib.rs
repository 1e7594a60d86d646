//! The repo benchmark. See `README.md` beside this crate's `Cargo.toml`.
//!
//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload once and prints its result as the last line of standard output.
//! Without `--workload` the program re-executes itself once per workload,
//! one child at a time, for the end-to-end and then the traced run, and
//! prints the paper reference block; `--check-repeat` runs two full sets and
//! compares them.

mod decor;
mod fio;
pub mod json;
mod kv;
mod load;
pub mod metrics;
mod openloop;
mod run;
mod spans;
mod traced;
mod util;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{json_map, json_num, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, Workload};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;

/// Where the traced run writes its spans (git-ignored).
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace.{workload}.jsonl"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn workload(name: &str) -> &'static dyn Workload {
    match name {
        "ol_write_hot" => &openloop::WRITE_HOT,
        "ol_mixed_cold" => &openloop::MIXED_COLD,
        "kv_tpcc" => &kv::KvTpcc,
        "fs_fio_tinca" => &fio::TINCA,
        _ => &fio::CLASSIC,
    }
}

/// Runs one workload in this process and prints its info and result lines.
fn run_one(name: &str, a: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
    };
    let w = workload(name);
    let frozen = load::check_frozen(w);
    let mut out: Outcome = if a.trace {
        let mut out = w.traced(&ctx);
        let verdicts = w.predictions(&out.metrics);
        out.note(
            "predictions",
            json_map(
                verdicts
                    .iter()
                    .map(|(k, ok)| (*k, format!("\"{}\"", if *ok { "pass" } else { "fail" }))),
            ),
        );
        out
    } else {
        run::end_to_end(w, &ctx)
    };
    match &frozen {
        Ok(f) => out.note("load_reference_fingerprint", format!("\"{f:016x}\"")),
        Err(e) => {
            out.correct = false;
            out.note("load_error", format!("\"{e}\""));
        }
    }
    out.note(
        "load_fingerprint",
        format!("\"{:016x}\"", w.load_fingerprint(a.seed, 20_000)),
    );
    out.note("seed", a.seed.to_string());
    println!("{}", out.info_line(name));
    println!(
        "{}",
        out.result_line(if a.trace { &PER_LAYER } else { &END_TO_END })
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {name}: outputs are not correct (see the info line)");
        ExitCode::FAILURE
    }
}

/// The parsed output of one child run.
struct Child {
    info: Json,
    result: Json,
}

/// Re-executes this program for one workload and returns what it printed.
fn child(name: &str, a: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}) failed: {}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or(""))?;
    let info = Json::parse(lines.next().unwrap_or(""))?;
    Ok(Child { info, result })
}

fn metric(c: &Child, name: &str) -> f64 {
    c.result
        .at(&["metrics", name, "value"])
        .and_then(Json::num)
        .unwrap_or(0.0)
}

/// The paper's Fig. 7 R/W 3/7 figures beside what the two fio workloads
/// give. Informational: it is the model's error against the paper, not a
/// gate.
fn reference_block(tinca: &Child, classic: &Child) -> String {
    let sim = |c: &Child, k: &str| {
        c.info
            .at(&["info", "sim", k])
            .and_then(Json::num)
            .unwrap_or(0.0)
    };
    let cut = |k: &str| (sim(tinca, k) / sim(classic, k) - 1.0) * 100.0;
    let iops = sim(tinca, "sim_write_ops_per_s") / sim(classic, "sim_write_ops_per_s");
    json_map([
        (
            "source",
            "\"paper Fig. 7, Fio 4 KB random R/W 3/7\"".to_string(),
        ),
        (
            "write_iops_ratio",
            json_map([
                ("paper", "2.5".to_string()),
                ("measured", json_num(iops)),
                ("error_pct", json_num((iops / 2.5 - 1.0) * 100.0)),
            ]),
        ),
        (
            "clflush_per_op_change_pct",
            json_map([
                ("paper", "\"-73..-76\"".to_string()),
                ("measured", json_num(cut("clflush_per_op"))),
            ]),
        ),
        (
            "disk_writes_per_op_change_pct",
            json_map([
                ("paper", "\"-60..-65\"".to_string()),
                ("measured", json_num(cut("blockdev.disk_writes_per_op"))),
            ]),
        ),
    ])
}

/// One full set: every selected workload, end-to-end then traced.
fn run_set(names: &[&str], a: &Args) -> Result<Vec<(String, Child, Child)>, String> {
    names
        .iter()
        .map(|n| Ok((n.to_string(), child(n, a, false)?, child(n, a, true)?)))
        .collect()
}

fn run_all(a: &Args) -> Result<(), String> {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let first = run_set(&names, a)?;
    let find = |n: &str| first.iter().find(|(w, ..)| w == n).map(|(_, e2e, _)| e2e);
    if let (Some(t), Some(c)) = (find("fs_fio_tinca"), find("fs_fio_classic")) {
        println!("{{\"reference\":{}}}", reference_block(t, c));
    }
    if !a.check_repeat {
        return Ok(());
    }

    // Two sets of runs of the same code must agree: simulated results
    // bit for bit, host metrics within their bounds.
    let second = run_set(&names, a)?;
    let mut verdicts = Vec::new();
    let mut agree = true;
    for ((name, e1, _), (_, e2, _)) in first.iter().zip(&second) {
        let fp = |c: &Child| {
            c.info
                .at(&["info", "sim_fingerprint"])
                .and_then(Json::str)
                .map(str::to_string)
        };
        let same_sim = fp(e1).is_some() && fp(e1) == fp(e2);
        let mut compared = Vec::new();
        for d in &END_TO_END {
            let (v1, v2) = (metric(e1, d.name), metric(e2, d.name));
            let ok = if matches!(d.unit, "s" | "ns" | "MB") {
                // Smoke runs are too short to hold a host bound.
                a.smoke || (v1 - v2).abs() <= d.bound * v1.min(v2)
            } else {
                v1 == v2
            };
            agree &= ok;
            compared.push((
                d.name,
                format!(
                    "{{\"first\":{},\"second\":{},\"ok\":{ok}}}",
                    json_num(v1),
                    json_num(v2)
                ),
            ));
        }
        agree &= same_sim;
        verdicts.push(format!(
            "\"{name}\":{{\"sim_fingerprint_equal\":{same_sim},\"metrics\":{}}}",
            json_map(compared)
        ));
    }
    println!(
        "{{\"check_repeat\":{{\"agree\":{agree},{}}}}}",
        verdicts.join(",")
    );
    if agree {
        Ok(())
    } else {
        Err("the two sets of runs disagree".into())
    }
}

pub fn cli() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (&a.workload, a.check_repeat) {
        (Some(w), false) => run_one(w, &a),
        _ => match run_all(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
