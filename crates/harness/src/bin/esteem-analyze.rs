//! Offline trace analyzer: reads the event log written by
//! `esteem-sim --trace` (and/or an `--interval-log` file) and prints
//! way-occupancy timelines, reconfiguration churn, energy attribution
//! per event class, self-profile aggregates and anomaly findings
//! (refresh storms, way thrash, energy outliers).
//!
//! ```text
//! esteem-analyze [--events FILE] [--interval-log FILE] [--json]
//!                [--thrash-k K] [--thrash-w W] [--sigma S]
//!                [--clock-hz HZ] [--l2-capacity BYTES]
//! ```
//!
//! `--events` accepts both trace formats: a `.json` file is validated as
//! Chrome trace-event JSON (parse + per-track timestamp monotonicity)
//! and summarized; any other extension is read as the compact JSONL log
//! and fully analyzed. At least one input file is required.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use esteem_harness::traceanalyze::{
    analyze, intervals_from_events, render, validate_chrome_trace, AnalyzerParams,
};
use esteem_stats::{read_interval_log, IntervalSample};
use esteem_trace::export;

struct Args {
    events: Option<PathBuf>,
    interval_log: Option<PathBuf>,
    json: bool,
    params: AnalyzerParams,
}

const HELP: &str = "usage: esteem-analyze [--events FILE] [--interval-log FILE] [--json]\n\
                    \x20                     [--thrash-k K] [--thrash-w W] [--sigma S]\n\
                    \x20                     [--clock-hz HZ] [--l2-capacity BYTES]\n\
                    --events FILE: .json -> validate Chrome trace JSON; else compact JSONL log";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        events: None,
        interval_log: None,
        json: false,
        params: AnalyzerParams::default(),
    };
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--events" => args.events = Some(PathBuf::from(next(&mut it, "--events")?)),
            "--interval-log" => {
                args.interval_log = Some(PathBuf::from(next(&mut it, "--interval-log")?))
            }
            "--json" => args.json = true,
            "--thrash-k" => {
                args.params.thrash_k = next(&mut it, "--thrash-k")?
                    .parse()
                    .map_err(|e| format!("bad --thrash-k: {e}"))?
            }
            "--thrash-w" => {
                args.params.thrash_w = next(&mut it, "--thrash-w")?
                    .parse()
                    .map_err(|e| format!("bad --thrash-w: {e}"))?;
                if args.params.thrash_w < 2 {
                    return Err("--thrash-w must be at least 2".into());
                }
            }
            "--sigma" => {
                args.params.sigma = next(&mut it, "--sigma")?
                    .parse()
                    .map_err(|e| format!("bad --sigma: {e}"))?
            }
            "--clock-hz" => {
                args.params.clock_hz = next(&mut it, "--clock-hz")?
                    .parse()
                    .map_err(|e| format!("bad --clock-hz: {e}"))?
            }
            "--l2-capacity" => {
                args.params.l2_capacity = next(&mut it, "--l2-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --l2-capacity: {e}"))?
            }
            "-h" | "--help" => return Err(HELP.into()),
            other => return Err(format!("unknown argument {other}\n{HELP}")),
        }
    }
    if args.events.is_none() && args.interval_log.is_none() {
        return Err(format!("need --events and/or --interval-log\n{HELP}"));
    }
    Ok(args)
}

fn is_chrome_json(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Chrome-JSON mode: validate and summarize, no event-level analysis
    // (the export is one-way; the JSONL log is the analyzable format).
    if let Some(path) = args.events.as_ref().filter(|p| is_chrome_json(p)) {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let summary =
            validate_chrome_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if summary.events == 0 {
            return Err(format!("{}: no trace events", path.display()));
        }
        if args.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&summary).expect("serializable")
            );
        } else {
            println!(
                "{}: valid Chrome trace ({} events, {} metadata records, {} tracks)",
                path.display(),
                summary.events,
                summary.metadata,
                summary.tracks
            );
        }
        return Ok(());
    }

    let events = match &args.events {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
            export::read_jsonl(BufReader::new(file))
                .map_err(|e| format!("reading {}: {e}", path.display()))?
        }
        None => Vec::new(),
    };
    let intervals: Vec<IntervalSample> = match &args.interval_log {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
            read_interval_log(BufReader::new(file))
                .map_err(|e| format!("reading {}: {e}", path.display()))?
        }
        None => intervals_from_events(&events),
    };

    let analysis = analyze(&events, &intervals, &args.params);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&analysis).expect("serializable")
        );
    } else {
        print!("{}", render(&analysis));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
