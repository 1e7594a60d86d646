//! The one runner over the figure registry ([`crate::figs::REGISTRY`]).
//!
//! [`run`] runs every figure asked for, in registry order, and collects
//! each one's failed acceptance checks; a failure never stops the figures
//! after it. A figure that writes a `BENCH_N.json` summary carries a
//! [`Gate`]: before the figure overwrites the file, the runner reads the
//! one on disk, and afterwards it diffs the two files' flat `gate`
//! objects with [`compare`]. Gating is **direction-aware** — each counter
//! declares which way "worse" points — and tolerates [`TOLERANCE`] of
//! movement in the bad direction. `Info` counters and a top-level
//! `wall_ms` (the host clock of the run) are printed, never gated, and a
//! `--quick` summary is never compared with a full one.

use std::fs;
use std::time::Instant;

use telemetry::Json;

use crate::bench_path;

/// Maximum tolerated relative movement of a gated counter in its bad
/// direction.
pub const TOLERANCE: f64 = 0.05;

/// Which way "worse" points for one gate counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Direction {
    /// Regression = counter grew (cost/latency counters).
    LowerIsBetter,
    /// Regression = counter shrank (throughput/capacity counters).
    HigherIsBetter,
    /// Reported for context, never fails the gate.
    Info,
}

/// A figure's machine-readable summary at the repo root and the
/// counters of its `gate` object.
pub struct Gate {
    pub file: &'static str,
    pub counters: &'static [(&'static str, Direction)],
}

/// One registry entry.
pub struct Figure {
    /// The name the CLI takes; also the name of the CSV the figure writes.
    pub name: &'static str,
    /// Regenerates the figure (`quick` = smoke sizes) and returns the
    /// descriptions of the acceptance checks it failed.
    pub run: fn(bool) -> Vec<String>,
    pub gate: Option<Gate>,
}

/// Runs the figures named in `names` (`all` = every entry of `registry`),
/// gating each summary. Returns every failure as `"<figure>: <what>"`,
/// or `Err` with a usage message if a name is unknown.
pub fn run(registry: &[Figure], names: &[&str], quick: bool) -> Result<Vec<String>, String> {
    let known = || {
        let names: Vec<&str> = registry.iter().map(|f| f.name).collect();
        format!(
            "usage: bench <figure>... | all [--quick]\nfigures: {}",
            names.join(" ")
        )
    };
    if names.is_empty() {
        return Err(known());
    }
    if let Some(bad) = names
        .iter()
        .find(|&&n| n != "all" && registry.iter().all(|f| f.name != n))
    {
        return Err(format!("unknown figure {bad:?}\n{}", known()));
    }
    let t0 = Instant::now();
    let mut failed = Vec::new();
    for fig in registry
        .iter()
        .filter(|f| names.contains(&"all") || names.contains(&f.name))
    {
        let baseline = fig
            .gate
            .as_ref()
            .and_then(|g| fs::read_to_string(bench_path(g.file)).ok());
        let mut fig_failed = (fig.run)(quick);
        if let Some(gate) = &fig.gate {
            fig_failed.extend(gate_against(gate, baseline));
        }
        eprintln!(
            "  [{} done at {:.1}s]",
            fig.name,
            t0.elapsed().as_secs_f64()
        );
        failed.extend(fig_failed.into_iter().map(|w| format!("{}: {w}", fig.name)));
    }
    println!(
        "\nran in {:.1}s (quick={quick})",
        t0.elapsed().as_secs_f64()
    );
    for f in &failed {
        println!("FAIL {f}");
    }
    Ok(failed)
}

/// Diffs the summary the figure just wrote against `baseline`, the text
/// of the file it replaced (`None`: there was none).
fn gate_against(gate: &Gate, baseline: Option<String>) -> Vec<String> {
    let Some(old) = baseline else {
        println!(
            "gate {}: no baseline on disk, nothing to compare",
            gate.file
        );
        return Vec::new();
    };
    println!("gate {} against the file it replaced:", gate.file);
    let parse = |text: &str, which: &str| {
        Json::parse(text).map_err(|e| format!("gate: {which} {}: {e}", gate.file))
    };
    parse(&old, "baseline")
        .and_then(|old| {
            let new = parse(
                &fs::read_to_string(bench_path(gate.file)).unwrap_or_default(),
                "new",
            )?;
            compare(gate.counters, &old, &new).map_err(|e| format!("gate: {e}"))
        })
        .unwrap_or_else(|e| vec![e])
}

/// Compares the `gate` counters of `new` against `old`, printing one row
/// per counter. Returns the counters that moved more than [`TOLERANCE`]
/// in their bad direction — none if the two summaries ran in different
/// modes (`quick` vs full), which are never compared — or `Err` if a
/// counter is missing or not a number.
pub fn compare(
    counters: &[(&str, Direction)],
    old: &Json,
    new: &Json,
) -> Result<Vec<String>, String> {
    let quick = |j: &Json| match j.get("quick") {
        Some(Json::Bool(q)) => Ok(*q),
        _ => Err("summary has no boolean \"quick\" flag".to_string()),
    };
    if quick(old)? != quick(new)? {
        println!("gate: baseline and new run differ in --quick, not compared");
        return Ok(Vec::new());
    }
    let field = |j: &Json, key: &str, which: &str| {
        j.get("gate")
            .and_then(|g| g.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{which} gate counter {key} missing or not a number"))
    };
    println!(
        "{:<24} {:>16} {:>16} {:>9}  verdict",
        "counter", "baseline", "new", "delta"
    );
    let mut regressed = Vec::new();
    for &(key, dir) in counters {
        let (was, now) = (field(old, key, "baseline")?, field(new, key, "new")?);
        let delta = if was == 0.0 { 0.0 } else { (now - was) / was };
        let bad = match dir {
            Direction::LowerIsBetter => delta > TOLERANCE,
            Direction::HigherIsBetter => delta < -TOLERANCE,
            Direction::Info => false,
        };
        let verdict = match (dir, bad) {
            (Direction::Info, _) => "info",
            (_, true) => "FAIL",
            _ => "ok",
        };
        println!(
            "{key:<24} {was:>16.2} {now:>16.2} {:>8.2}%  {verdict}",
            delta * 100.0
        );
        if bad {
            regressed.push(format!(
                "gate counter {key} moved {:+.2}% ({was:.2} -> {now:.2}), beyond the {:.0}% \
                 tolerance (commit the new summary only if the regression is intended)",
                delta * 100.0,
                TOLERANCE * 100.0
            ));
        }
    }
    let wall = |j: &Json| j.get("wall_ms").and_then(Json::as_f64);
    if let (Some(was), Some(now)) = (wall(old), wall(new)) {
        println!(
            "{:<24} {was:>16.2} {now:>16.2} {:>8.2}%  info (host clock)",
            "wall_ms",
            (now - was) / was * 100.0
        );
    }
    Ok(regressed)
}
