//! `--self-test`: runs every workload briefly, untraced and traced, each in
//! a child process, and checks every result line: each metric of the run's
//! table is present with its unit and no operation failed. It also checks
//! that `BENCHMARK.json` lists the same workloads and metrics.

use std::process::{Command, ExitCode, Stdio};

use serde::{map_get, Deserialize, Value};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::WORKLOADS;

pub fn run() -> ExitCode {
    let mut failures = Vec::new();
    if let Err(e) = check_manifest() {
        failures.push(format!("BENCHMARK.json: {e}"));
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("self-test: locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            eprintln!("self-test: {workload} --trace {trace}");
            let checked = Command::new(&exe)
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace, "--min-jobs", "50"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    if !out.status.success() {
                        return Err(format!("exited with {}", out.status));
                    }
                    check_result(&String::from_utf8_lossy(&out.stdout), trace == "1")
                });
            if let Err(e) = checked {
                failures.push(format!("{workload} --trace {trace}: {e}"));
            }
        }
    }
    for f in &failures {
        eprintln!("self-test FAILED: {f}");
    }
    if failures.is_empty() {
        eprintln!("self-test: passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_result(stdout: &str, traced: bool) -> Result<(), String> {
    let line = stdout.lines().last().ok_or("no result line")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let m = v.as_map().ok_or("the result is not an object")?;
    let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    let count = |k: &str| {
        map_get(m, k)
            .and_then(u64::from_value)
            .map_err(|e| format!("{k}: {e}"))
    };
    if map_get(m, "correct") != Ok(&Value::Bool(true)) || count("failed")? != 0 {
        return Err(format!(
            "not correct: {} of {} operations failed",
            count("failed")?,
            count("attempted")?
        ));
    }
    if count("attempted")? == 0 {
        return Err("no operation attempted".into());
    }
    let metrics = map_get(m, "metrics")
        .ok()
        .and_then(Value::as_map)
        .ok_or("metrics is not an object")?;
    let table = if traced { PER_LAYER } else { END_TO_END };
    if metrics.len() != table.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            table.len()
        ));
    }
    for &(name, unit) in table {
        let entry = map_get(metrics, name)
            .ok()
            .and_then(Value::as_map)
            .ok_or_else(|| format!("{name} is missing"))?;
        let value = map_get(entry, "value")
            .and_then(f64::from_value)
            .map_err(|e| format!("{name}: {e}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        if map_get(entry, "unit").ok().and_then(Value::as_str) != Some(unit) {
            return Err(format!("{name}: the unit is not {unit}"));
        }
        if name == "success_rate" && value != 1.0 {
            return Err(format!("error_rate is {}, not 0", 1.0 - value));
        }
    }
    Ok(())
}

/// `BENCHMARK.json`, in the working directory or its parent, must name the
/// same workloads, and the same metrics with the same units, as this
/// program prints.
fn check_manifest() -> Result<(), String> {
    let Some(text) = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
    else {
        eprintln!("self-test: no BENCHMARK.json here or in the parent directory; not checked");
        return Ok(());
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let doc = doc.as_map().ok_or("not an object")?;
    let list = |key: &str| -> Result<Vec<(String, Option<String>)>, String> {
        let items = map_get(doc, key)
            .ok()
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("{key} is not a list"))?;
        items
            .iter()
            .map(|item| {
                let entry = item
                    .as_map()
                    .ok_or_else(|| format!("{key}: not an object"))?;
                let name = map_get(entry, "name")
                    .ok()
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{key}: an entry has no name"))?;
                let unit = map_get(entry, "unit").ok().and_then(Value::as_str);
                Ok((name.to_owned(), unit.map(str::to_owned)))
            })
            .collect()
    };
    let workloads: Vec<String> = list("workloads")?.into_iter().map(|(n, _)| n).collect();
    if workloads != WORKLOADS {
        return Err(format!("workloads {workloads:?}, expected {WORKLOADS:?}"));
    }
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let expected: Vec<(String, Option<String>)> = table
            .iter()
            .map(|&(name, unit)| (name.to_owned(), Some(unit.to_owned())))
            .collect();
        if list(key)? != expected {
            return Err(format!(
                "{key} differs from the metrics the benchmark prints"
            ));
        }
    }
    Ok(())
}
