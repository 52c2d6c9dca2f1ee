//! The whole benchmark: every workload in a process of its own (memory is
//! per workload), an untraced run for the end-to-end metrics and a traced
//! run for the layers, optionally repeated; merged into `result.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::catalog::{Workload, METRICS};
use crate::json::Json;
use crate::stats::{median, quartiles};

#[derive(Debug)]
pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    pub workload: Option<Workload>,
    pub runs: usize,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Runs one workload in a child process and reads back its full record.
fn child(opts: &SuiteOpts, w: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its metric lines are re-printed from
    // the merged record, its diagnostics pass through.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", w.name()))?;
    // Exit code 1 is a run that completed and failed verification: its
    // record says so. Anything else left no record worth reading.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!("{}: run ended with {}", w.name(), out.status));
    }
    let path = opts
        .out_dir
        .join(format!("run.{}.{}.json", w.name(), u8::from(trace)));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(record: &Json, key: &str) -> f64 {
    record.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Merges one workload's records. End-to-end metrics come from the
/// untraced runs; a row both kinds of run produce (the simulated rows, the
/// derived host rows) is taken from the untraced run, which measures
/// longer; the span-based rows exist only in the traced runs.
fn merge(untraced: &[Json], traced: &[Json]) -> Json {
    let all = || untraced.iter().chain(traced);
    let fingerprints: Vec<&str> = all()
        .filter_map(|r| r.get("virt_fingerprint").and_then(Json::as_str))
        .collect();
    let stable = fingerprints.windows(2).all(|p| p[0] == p[1]);
    let metrics = METRICS.iter().filter_map(|m| {
        let values = |records: &[Json]| -> Vec<f64> {
            records
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect()
        };
        let mut runs = values(untraced);
        if runs.is_empty() {
            runs = values(traced);
        }
        let first = all().find_map(|r| r.get("metrics")?.get(m.name))?;
        let mut pairs = vec![
            ("value".to_string(), Json::Num(median(&runs))),
            ("unit".to_string(), first.get("unit")?.clone()),
            ("clock".to_string(), first.get("clock")?.clone()),
            ("level".to_string(), first.get("level")?.clone()),
        ];
        if let Some([q1, _, q3]) = quartiles(&runs) {
            pairs.push(("q1".to_string(), Json::Num(q1)));
            pairs.push(("q3".to_string(), Json::Num(q3)));
        }
        pairs.push((
            "runs".to_string(),
            Json::Arr(runs.into_iter().map(Json::Num).collect()),
        ));
        Some((m.name, Json::Obj(pairs)))
    });
    Json::obj([
        (
            "correct",
            Json::Bool(all().all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))),
        ),
        (
            "attempted",
            Json::Num(all().map(|r| num(r, "attempted")).sum()),
        ),
        ("failed", Json::Num(all().map(|r| num(r, "failed")).sum())),
        (
            "iterations",
            Json::Arr(
                untraced
                    .iter()
                    .map(|r| Json::Num(num(r, "iterations")))
                    .collect(),
            ),
        ),
        (
            "virt_fingerprint",
            Json::str(fingerprints.first().copied().unwrap_or("")),
        ),
        ("virt_fingerprint_stable", Json::Bool(stable)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Prints every metric of a merged workload by name, with unit and clock.
fn print_workload(name: &str, merged: &Json) {
    let iterations: Vec<String> = merged
        .get("iterations")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|n| n.as_f64().map(|n| n.to_string()))
        .collect();
    println!(
        "== {name}: {} attempted, {} failed, iterations per run [{}], virt_fingerprint {}{}",
        num(merged, "attempted"),
        num(merged, "failed"),
        iterations.join(", "),
        merged
            .get("virt_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        if merged
            .get("virt_fingerprint_stable")
            .and_then(Json::as_bool)
            == Some(true)
        {
            ""
        } else {
            "  ** NOT STABLE across runs **"
        },
    );
    for (metric, row) in merged.get("metrics").map_or(&[][..], Json::as_obj) {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("");
        let quartiles = match (
            row.get("q1").and_then(Json::as_f64),
            row.get("q3").and_then(Json::as_f64),
        ) {
            (Some(q1), Some(q3)) => format!("  q1 {q1:.6} q3 {q3:.6}"),
            _ => String::new(),
        };
        println!(
            "{metric:<40} {:>18.6} {:<9} [{}]  runs={}{quartiles}",
            num(row, "value"),
            s("unit"),
            s("clock"),
            row.get("runs").map_or(0, |r| r.as_arr().len()),
        );
    }
}

pub fn run(opts: &SuiteOpts) -> Result<bool, String> {
    let workloads = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut records: Vec<(Workload, Vec<Json>, Vec<Json>)> = workloads
        .iter()
        .map(|w| (*w, Vec::new(), Vec::new()))
        .collect();
    for run in 1..=opts.runs {
        for (w, untraced, traced) in &mut records {
            for trace in [false, true] {
                let t0 = Instant::now();
                let record = child(opts, *w, trace)?;
                eprintln!(
                    "[run {run}/{}] {} {}: {:.1} s",
                    opts.runs,
                    w.name(),
                    if trace { "traced" } else { "untraced" },
                    t0.elapsed().as_secs_f64()
                );
                if trace { &mut *traced } else { &mut *untraced }.push(record);
            }
        }
    }

    let header = records
        .iter()
        .find_map(|(_, u, t)| u.first().or(t.first())?.get("header").cloned())
        .unwrap_or(Json::Null);
    let merged: Vec<(&str, Json)> = records
        .iter()
        .map(|(w, u, t)| (w.name(), merge(u, t)))
        .collect();
    for (name, m) in &merged {
        print_workload(name, m);
    }
    let ok = merged.iter().all(|(_, m)| {
        m.get("correct").and_then(Json::as_bool) == Some(true)
            && m.get("virt_fingerprint_stable").and_then(Json::as_bool) == Some(true)
    });
    let result = Json::obj([
        ("benchmark", Json::str("vpim")),
        ("seed", Json::Num(opts.seed as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("runs", Json::Num(opts.runs as f64)),
        ("correct", Json::Bool(ok)),
        ("header", header),
        ("workloads", Json::obj(merged)),
    ]);
    let path = opts.out_dir.join("result.json");
    write(&path, &result)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
