//! `esteem-top`: a live terminal dashboard for a running daemon.
//!
//! ```text
//! esteem-top [addr] [--interval secs] [--once]
//!   addr              daemon address (default 127.0.0.1:7117)
//!   --interval <s>    refresh period in seconds (default 2)
//!   --once            print one snapshot and exit (CI / non-TTY)
//! ```
//!
//! Polls `GET /v1/status` and renders queue depth, job states, run-cache
//! hit rate, per-worker utilization, and per-stage latency percentiles
//! with histogram sparklines, plus a cluster pane: a coordinator's
//! members and sweep progress, or a worker's membership. Std-only: plain ANSI escapes, no TUI
//! dependency — `--once` emits the same snapshot as plain text, which is
//! what the CI smoke test asserts against.

use std::process::ExitCode;
use std::time::Duration;

use esteem_serve::client;
use serde::{map_get, Value};

const HELP: &str = "usage: esteem-top [addr] [--interval secs] [--once]";

struct Args {
    addr: String,
    interval: Duration,
    once: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7117".into(),
        interval: Duration::from_secs(2),
        once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => {
                let v: f64 = it
                    .next()
                    .ok_or("--interval needs a value")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
                if v.is_nan() || v <= 0.0 {
                    return Err("--interval must be > 0".into());
                }
                args.interval = Duration::from_secs_f64(v);
            }
            "--once" => args.once = true,
            "-h" | "--help" => return Err(HELP.into()),
            other if !other.starts_with('-') => args.addr = other.to_owned(),
            other => return Err(format!("unknown flag {other}\n{HELP}")),
        }
    }
    Ok(args)
}

// --- JSON helpers over the vendored Value tree --------------------------

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map().and_then(|m| map_get(m, key).ok())
}

fn get_u64(v: &Value, key: &str) -> u64 {
    get(v, key).and_then(as_u64).unwrap_or(0)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::F64(f) => Some(*f as u64),
        _ => None,
    }
}

fn get_f64(v: &Value, key: &str) -> f64 {
    match get(v, key) {
        Some(Value::F64(f)) => *f,
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        _ => 0.0,
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    get(v, key).and_then(|s| s.as_str()).unwrap_or("?")
}

// --- rendering ----------------------------------------------------------

/// Unicode block sparkline of the stage's compact bucket cells.
fn sparkline(cells: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = cells.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return String::new();
    }
    cells
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                // Map 1..=max onto the 8 block heights.
                BLOCKS[((c * 7).div_ceil(max)).min(7) as usize]
            }
        })
        .collect()
}

fn utilization_bar(frac: f64, width: usize) -> String {
    let filled = ((frac * width as f64).round() as usize).min(width);
    format!(
        "{}{} {:3.0}%",
        "#".repeat(filled),
        "-".repeat(width - filled),
        frac * 100.0
    )
}

/// One row of the stage-latency table from a `/v1/status` stage object.
fn stage_row(out: &mut String, label: &str, stage: &Value) {
    let count = get_u64(stage, "count");
    let cells: Vec<u64> = get(stage, "cells")
        .and_then(|v| v.as_seq())
        .map(|s| s.iter().filter_map(as_u64).collect())
        .unwrap_or_default();
    out.push_str(&format!(
        "  {label:<14} {count:>8} {:>9} {:>9} {:>9} {:>9}  {}\n",
        get_u64(stage, "p50_us"),
        get_u64(stage, "p95_us"),
        get_u64(stage, "p99_us"),
        get_u64(stage, "max_us"),
        sparkline(&cells),
    ));
}

/// The cluster pane, from the `cluster` block of `/v1/status`: a
/// coordinator's members and sweep bars, or a worker's membership line.
fn render_cluster(out: &mut String, cluster: &Value) {
    if get_str(cluster, "role") != "coordinator" {
        out.push_str(&format!(
            "cluster {} @ {} -> {} · {} · {} beats ({} failed)\n",
            get_str(cluster, "node_id"),
            get_str(cluster, "advertise"),
            get_str(cluster, "coordinator"),
            if get(cluster, "registered") == Some(&Value::Bool(true)) {
                "registered"
            } else {
                "UNREGISTERED"
            },
            get_u64(cluster, "heartbeats"),
            get_u64(cluster, "heartbeat_failures"),
        ));
        return;
    }
    let c = get(cluster, "counters").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "fabric  {} dispatched · {} re-dispatched · {} worker-cache hits · {} node failures\n",
        get_u64(&c, "jobs_dispatched"),
        get_u64(&c, "jobs_redispatched"),
        get_u64(&c, "jobs_cached_on_worker"),
        get_u64(&c, "node_failures"),
    ));
    let seq = |key: &str| {
        get(cluster, key)
            .and_then(|v| v.as_seq())
            .map(|s| s.to_vec())
            .unwrap_or_default()
    };
    let members = seq("members");
    out.push_str(&format!(
        "\nmembers ({})\n  {:<12} {:<21} {:>5} {:>8} {:>6} {:>9}\n",
        members.len(),
        "node",
        "addr",
        "state",
        "inflight",
        "done",
        "seen ms"
    ));
    for m in &members {
        let state = if get(m, "alive") == Some(&Value::Bool(false)) {
            "dead"
        } else if get(m, "draining") == Some(&Value::Bool(true)) {
            "drain"
        } else {
            "up"
        };
        out.push_str(&format!(
            "  {:<12} {:<21} {:>5} {:>8} {:>6} {:>9}\n",
            get_str(m, "node"),
            get_str(m, "addr"),
            state,
            get_u64(m, "inflight"),
            get_u64(m, "jobs_done"),
            get_u64(m, "last_seen_ms"),
        ));
    }
    let sweeps = seq("sweeps");
    if !sweeps.is_empty() {
        out.push_str("\nsweeps\n");
        for s in &sweeps {
            let total = get_u64(s, "total");
            let done = get_u64(s, "done");
            let failed = get_u64(s, "failed");
            let frac = if total > 0 {
                done as f64 / total as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  #{:<4} {} {done}/{total} done{}\n",
                get_u64(s, "sweep"),
                utilization_bar(frac, 24),
                if failed > 0 {
                    format!(" · {failed} FAILED")
                } else {
                    String::new()
                },
            ));
        }
    }
}

fn render(addr: &str, status: &Value) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "esteem-top — {addr} · v{} (git {}) · up {:.0}s\n",
        get_str(status, "version"),
        get_str(status, "git"),
        get_f64(status, "uptime_seconds"),
    ));
    let jobs = get(status, "jobs").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "jobs    {} queued · {} running · {} done · {} failed    queue depth {}\n",
        get_u64(&jobs, "queued"),
        get_u64(&jobs, "running"),
        get_u64(&jobs, "done"),
        get_u64(&jobs, "failed"),
        get_u64(status, "queue_depth"),
    ));
    let rc = get(status, "runcache").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "cache   {} hits · {} misses · {:.1}% hit rate    flight recorder {} jobs\n",
        get_u64(&rc, "hits"),
        get_u64(&rc, "misses"),
        get_f64(&rc, "hit_rate") * 100.0,
        get_u64(status, "flight_recorder_jobs"),
    ));
    let workers = get(status, "workers").cloned().unwrap_or(Value::Null);
    out.push_str(&format!(
        "workers {} · mean {:.0}% busy · {} active\n",
        get_u64(&workers, "count"),
        get_f64(&workers, "utilization") * 100.0,
        get_u64(&workers, "active"),
    ));
    if let Some(per) = get(&workers, "per_worker").and_then(|v| v.as_seq()) {
        for (i, w) in per.iter().enumerate() {
            let frac = match w {
                Value::F64(f) => *f,
                _ => 0.0,
            };
            out.push_str(&format!("  [{i:>2}] {}\n", utilization_bar(frac, 24)));
        }
    }
    // The cluster pane (only on a worker joined to a coordinator with
    // --coordinator, and on a coordinator).
    if let Some(cluster) = get(status, "cluster") {
        render_cluster(&mut out, cluster);
    }
    out.push_str(&format!(
        "\n{:<16} {:>8} {:>9} {:>9} {:>9} {:>9}  distribution\n",
        "stage (µs)", "count", "p50", "p95", "p99", "max"
    ));
    let stages = get(status, "stages").cloned().unwrap_or(Value::Null);
    for name in [
        "submit_us",
        "queue_wait_us",
        "cache_lookup_us",
        "run_us",
        "serialize_us",
    ] {
        if let Some(stage) = get(&stages, name) {
            stage_row(&mut out, name.trim_end_matches("_us"), stage);
        }
    }
    let e2e = get(status, "e2e_us").cloned().unwrap_or(Value::Null);
    for outcome in ["done", "cached", "failed"] {
        if let Some(stage) = get(&e2e, outcome) {
            stage_row(&mut out, &format!("e2e {outcome}"), stage);
        }
    }
    out
}

fn fetch_status(addr: &str) -> Result<Value, String> {
    let (status, body) = client::request(addr, "GET", "/v1/status", None)?;
    if status != 200 {
        return Err(format!("GET /v1/status -> {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("bad status body: {e}"))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.once {
        return match fetch_status(&args.addr) {
            Ok(status) => {
                print!("{}", render(&args.addr, &status));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("esteem-top: {e}");
                ExitCode::FAILURE
            }
        };
    }
    loop {
        match fetch_status(&args.addr) {
            Ok(status) => {
                // Clear screen + home, then one frame.
                print!("\x1b[2J\x1b[H{}", render(&args.addr, &status));
                println!(
                    "\n(refresh {:.1}s · ctrl-c to quit)",
                    args.interval.as_secs_f64()
                );
            }
            Err(e) => {
                print!("\x1b[2J\x1b[H");
                println!(
                    "esteem-top: {e}\nretrying in {:.1}s…",
                    args.interval.as_secs_f64()
                );
            }
        }
        std::thread::sleep(args.interval);
    }
}
