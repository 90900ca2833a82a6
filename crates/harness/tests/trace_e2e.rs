//! End-to-end test of the tracing pipeline: `esteem-sim --trace` must
//! produce (a) a valid Chrome trace-event JSON export with nonzero event
//! counts and monotonic per-track timestamps, and (b) a compact JSONL
//! log that `esteem-analyze` turns into a report with
//! reconfiguration, refresh and energy sections.

use std::path::Path;
use std::process::Command;

use serde::{map_get, Value};

fn run_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_esteem-sim"))
        .args(args)
        .output()
        .expect("esteem-sim runs")
}

fn run_analyzer(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_esteem-analyze"))
        .args(args)
        .output()
        .expect("esteem-analyze runs")
}

fn sim_args<'a>(trace: &'a str, log: Option<&'a str>) -> Vec<&'a str> {
    let mut args = vec![
        "--technique",
        "esteem",
        "--instructions",
        "1500000",
        "--interval",
        "500000",
        "--trace",
        trace,
    ];
    if let Some(log) = log {
        args.extend(["--interval-log", log]);
    }
    args.push("gamess");
    args
}

fn as_f64(v: &Value) -> f64 {
    match *v {
        Value::I64(i) => i as f64,
        Value::U64(u) => u as f64,
        Value::F64(f) => f,
        ref other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn chrome_export_is_valid_and_monotonic_per_track() {
    let dir = std::env::temp_dir().join(format!("esteem-trace-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.json");

    let out = run_sim(&sim_args(trace.to_str().unwrap(), None));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Independent structural check (not via the analyzer): parse the
    // document and verify counts and per-track ts monotonicity.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let root = doc.as_map().expect("object root");
    let events = map_get(root, "traceEvents")
        .expect("traceEvents present")
        .as_seq()
        .expect("traceEvents is an array");
    let mut tracks: Vec<((f64, f64), f64)> = Vec::new();
    let mut real_events = 0u64;
    for ev in events {
        let m = ev.as_map().expect("event is an object");
        let ph = map_get(m, "ph").unwrap().as_str().expect("ph string");
        if ph == "M" {
            continue;
        }
        real_events += 1;
        let key = (
            as_f64(map_get(m, "pid").unwrap()),
            as_f64(map_get(m, "tid").unwrap()),
        );
        let ts = as_f64(map_get(m, "ts").unwrap());
        match tracks.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                assert!(
                    ts >= *last,
                    "track {key:?}: ts {ts} after {last} (must be monotonic)"
                );
                *last = ts;
            }
            None => tracks.push((key, ts)),
        }
    }
    assert!(real_events > 0, "trace must carry events");
    // An ESTEEM run emits on the reconfig, refresh, bank and interval
    // tracks at least.
    assert!(tracks.len() >= 4, "expected >= 4 tracks, got {tracks:?}");

    // The analyzer's Chrome validation mode agrees and exits 0.
    let out = run_analyzer(&["--events", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid Chrome trace"), "got: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyzer_reports_reconfig_refresh_and_energy_from_jsonl() {
    let dir = std::env::temp_dir().join(format!("esteem-trace-jsonl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let ilog = dir.join("intervals.jsonl");

    let out = run_sim(&sim_args(
        trace.to_str().unwrap(),
        Some(ilog.to_str().unwrap()),
    ));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every ESTEEM interval produces at least one reconfig decision:
    // 1.5M instructions at 500k-cycle intervals crosses >= 2 boundaries
    // with 8 modules each.
    let text = std::fs::read_to_string(&trace).unwrap();
    let decisions = text
        .lines()
        .filter(|l| l.contains("\"ReconfigDecision\""))
        .count();
    assert!(decisions >= 16, "expected >= 16 decisions, got {decisions}");

    let human = run_analyzer(&[
        "--events",
        trace.to_str().unwrap(),
        "--interval-log",
        ilog.to_str().unwrap(),
    ]);
    assert!(
        human.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&human.stderr)
    );
    let stdout = String::from_utf8_lossy(&human.stdout);
    for needle in [
        "way occupancy",
        "reconfig churn",
        "refresh:",
        "energy over",
        "anomalies:",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    // JSON mode emits a machine-readable analysis with the same facts.
    let json = run_analyzer(&[
        "--events",
        trace.to_str().unwrap(),
        "--interval-log",
        ilog.to_str().unwrap(),
        "--json",
    ]);
    assert!(json.status.success());
    let doc: Value = serde_json::from_str(&String::from_utf8_lossy(&json.stdout))
        .expect("analysis is valid JSON");
    let root = doc.as_map().expect("object");
    let modules = map_get(root, "modules").unwrap().as_seq().unwrap();
    assert_eq!(modules.len(), 8, "one timeline per module");
    let energy = map_get(root, "energy").unwrap().as_map().expect("energy");
    assert!(as_f64(map_get(energy, "total_j").unwrap()) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyzer_rejects_missing_and_invalid_input() {
    let out = run_analyzer(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--events"));

    let dir = std::env::temp_dir().join(format!("esteem-trace-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").unwrap();
    let out = run_analyzer(&["--events", bad.to_str().unwrap()]);
    assert!(!out.status.success());

    assert!(!Path::new("/nonexistent/trace.jsonl").exists());
    let out = run_analyzer(&["--events", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}
