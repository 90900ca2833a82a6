//! Trace exporters: Chrome trace-event JSON (Perfetto/`chrome://tracing`)
//! and the compact JSONL event log the offline `esteem-analyze` analyzer
//! consumes.
//!
//! The Chrome export lays events out on two processes:
//!
//! * **pid 0 "simulated time"** — cycle-stamped events, one thread per
//!   event class, with `ts` = cycle / 1000 (so 1 "µs" in the viewer is
//!   1000 simulated cycles). Module way grants and interval activity
//!   also emit counter tracks, which Perfetto renders as step plots.
//! * **pid 1 "wall clock"** — `prof_span!` spans as complete (`ph:"X"`)
//!   events with real microsecond timestamps, plus run-cache lookups as
//!   instants (they happen in harness wall time, not simulated time).
//!
//! Span events are recorded at *drop* (end) time, so the raw buffer is
//! ordered by end, not start; the exporter sorts every track by
//! timestamp so `ts` is monotonic within each `(pid, tid)` track — some
//! viewers reject files that are not.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Serialize, Value};

use crate::event::TraceEvent;
use crate::Tracer;

/// One pre-sorted Chrome trace-event row.
struct Row {
    pid: u64,
    tid: u64,
    ts: f64,
    ph: char,
    name: String,
    dur: Option<f64>,
    args: Value,
}

const PID_SIM: u64 = 0;
const PID_WALL: u64 = 1;

/// Thread ids on the simulated-time process, one per event class so
/// Perfetto gives each class its own track.
const TID_RECONFIG: u64 = 1;
const TID_REFRESH: u64 = 2;
const TID_BANK: u64 = 3;
const TID_INTERVAL: u64 = 4;
const TID_COUNTERS: u64 = 5;

/// Thread ids on the wall-clock process.
const TID_SPANS: u64 = 1;
const TID_RUNCACHE: u64 = 2;

/// Simulated cycles per viewer microsecond.
const CYCLES_PER_US: f64 = 1000.0;

fn variant_name_and_args(ev: &TraceEvent) -> (String, Value) {
    // Externally tagged serialization is {"VariantName": {fields...}};
    // reuse it so event names and args never drift from the taxonomy.
    match ev.to_value() {
        Value::Map(entries) if entries.len() == 1 => {
            let (name, args) = entries.into_iter().next().expect("len checked");
            (name, args)
        }
        other => ("TraceEvent".to_owned(), other),
    }
}

fn rows_for(ev: &TraceEvent, out: &mut Vec<Row>) {
    let (name, args) = variant_name_and_args(ev);
    match ev {
        TraceEvent::ReconfigDecision {
            cycle,
            module,
            applied_ways,
            ..
        } => {
            let ts = *cycle as f64 / CYCLES_PER_US;
            out.push(Row {
                pid: PID_SIM,
                tid: TID_RECONFIG,
                ts,
                ph: 'i',
                name,
                dur: None,
                args,
            });
            out.push(Row {
                pid: PID_SIM,
                tid: TID_COUNTERS,
                ts,
                ph: 'C',
                name: format!("ways.module{module}"),
                dur: None,
                args: Value::Map(vec![("ways".into(), Value::U64(u64::from(*applied_ways)))]),
            });
        }
        TraceEvent::ReconfigApply { cycle, .. } => out.push(Row {
            pid: PID_SIM,
            tid: TID_RECONFIG,
            ts: *cycle as f64 / CYCLES_PER_US,
            ph: 'i',
            name,
            dur: None,
            args,
        }),
        TraceEvent::RefreshBatch { cycle, .. } => out.push(Row {
            pid: PID_SIM,
            tid: TID_REFRESH,
            ts: *cycle as f64 / CYCLES_PER_US,
            ph: 'i',
            name,
            dur: None,
            args,
        }),
        TraceEvent::BankWindow { cycle, .. } => out.push(Row {
            pid: PID_SIM,
            tid: TID_BANK,
            ts: *cycle as f64 / CYCLES_PER_US,
            ph: 'i',
            name,
            dur: None,
            args,
        }),
        TraceEvent::Interval(sample) => {
            let ts = sample.cycle as f64 / CYCLES_PER_US;
            out.push(Row {
                pid: PID_SIM,
                tid: TID_INTERVAL,
                ts,
                ph: 'i',
                name,
                dur: None,
                args,
            });
            out.push(Row {
                pid: PID_SIM,
                tid: TID_COUNTERS,
                ts,
                ph: 'C',
                name: "active_fraction".into(),
                dur: None,
                args: Value::Map(vec![(
                    "fraction".into(),
                    Value::F64(sample.active_fraction),
                )]),
            });
        }
        TraceEvent::RunCache { hit, .. } => out.push(Row {
            pid: PID_WALL,
            tid: TID_RUNCACHE,
            // Run-cache lookups carry no timestamp of their own; order of
            // occurrence is preserved by the stable sort below.
            ts: 0.0,
            ph: 'i',
            name: format!("{name}.{}", if *hit { "hit" } else { "miss" }),
            dur: None,
            args,
        }),
        TraceEvent::Span {
            start_us, dur_us, ..
        } => {
            let span_name = match ev {
                TraceEvent::Span { name, .. } => name.clone(),
                _ => unreachable!(),
            };
            out.push(Row {
                pid: PID_WALL,
                tid: TID_SPANS,
                ts: *start_us,
                ph: 'X',
                name: span_name,
                dur: Some(*dur_us),
                args: Value::Map(Vec::new()),
            });
        }
    }
}

fn metadata_row(pid: u64, tid: Option<u64>, kind: &str, label: &str) -> Value {
    let mut entries = vec![
        ("name".into(), Value::Str(kind.into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        entries.push(("tid".into(), Value::U64(tid)));
    }
    entries.push((
        "args".into(),
        Value::Map(vec![("name".into(), Value::Str(label.into()))]),
    ));
    Value::Map(entries)
}

fn row_to_value(row: Row) -> Value {
    let mut entries = vec![
        ("name".into(), Value::Str(row.name)),
        ("ph".into(), Value::Str(row.ph.to_string())),
        ("pid".into(), Value::U64(row.pid)),
        ("tid".into(), Value::U64(row.tid)),
        ("ts".into(), Value::F64(row.ts)),
    ];
    if let Some(dur) = row.dur {
        entries.push(("dur".into(), Value::F64(dur)));
    }
    if row.ph == 'i' {
        // Instant scope: thread-local keeps the marks small in the UI.
        entries.push(("s".into(), Value::Str("t".into())));
    }
    entries.push(("args".into(), row.args));
    Value::Map(entries)
}

/// Renders events as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form). `ts` is monotonically
/// non-decreasing within each `(pid, tid)` track.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut rows = Vec::with_capacity(events.len());
    for ev in events {
        rows_for(ev, &mut rows);
    }
    // Stable sort: equal-ts events (e.g. all run-cache lookups) keep
    // their order of occurrence.
    rows.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.ts.total_cmp(&b.ts))
    });

    let mut trace_events = vec![
        metadata_row(PID_SIM, None, "process_name", "simulated time"),
        metadata_row(PID_SIM, Some(TID_RECONFIG), "thread_name", "reconfig"),
        metadata_row(PID_SIM, Some(TID_REFRESH), "thread_name", "refresh"),
        metadata_row(PID_SIM, Some(TID_BANK), "thread_name", "bank contention"),
        metadata_row(PID_SIM, Some(TID_INTERVAL), "thread_name", "intervals"),
        metadata_row(PID_SIM, Some(TID_COUNTERS), "thread_name", "counters"),
        metadata_row(PID_WALL, None, "process_name", "wall clock"),
        metadata_row(PID_WALL, Some(TID_SPANS), "thread_name", "profiler spans"),
        metadata_row(PID_WALL, Some(TID_RUNCACHE), "thread_name", "run cache"),
    ];
    trace_events.extend(rows.into_iter().map(row_to_value));

    let doc = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(trace_events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).expect("value serialization is infallible")
}

/// Writes events as compact JSONL, one externally tagged event per line.
pub fn write_jsonl<W: Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    for ev in events {
        let line = serde_json::to_string(ev)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads a JSONL event log written by [`write_jsonl`]. Blank lines are
/// skipped; a malformed line is an error naming its line number.
pub fn read_jsonl<R: io::Read>(r: R) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = serde_json::from_str::<TraceEvent>(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {e}", idx + 1),
            )
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Drains `tracer` and writes its events to `path`, choosing the format
/// by extension: `.json` → Chrome trace-event JSON, anything else →
/// compact JSONL. Returns the number of events written.
pub fn export_to_path(tracer: &Tracer, path: &Path) -> io::Result<usize> {
    let events = tracer.drain();
    let dropped = tracer.dropped();
    if dropped > 0 {
        eprintln!("esteem-trace: ring buffer dropped {dropped} oldest events (raise --trace-buffer for full coverage)");
    }
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let chrome = path.extension().and_then(|e| e.to_str()) == Some("json");
    if chrome {
        w.write_all(chrome_trace(&events).as_bytes())?;
        w.write_all(b"\n")?;
    } else {
        write_jsonl(&mut w, &events)?;
    }
    w.flush()?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::map_get;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RefreshBatch {
                cycle: 2_000,
                refreshes: 4,
                invalidations: 0,
                pending: 9,
            },
            TraceEvent::ReconfigDecision {
                cycle: 10_000,
                module: 0,
                prev_ways: 16,
                want_ways: 8,
                applied_ways: 12,
                total_hits: 500,
                anomalies: 2,
                non_lru: false,
                deferred: false,
                valid_lines: 1024,
            },
            TraceEvent::ReconfigApply {
                cycle: 10_000,
                slot_transitions: 4,
                writebacks: 17,
                discards: 3,
            },
            // Outer span: recorded *after* the inner span (drop order),
            // but starts earlier — the exporter must reorder.
            TraceEvent::Span {
                name: "inner".into(),
                start_us: 50.0,
                dur_us: 10.0,
            },
            TraceEvent::Span {
                name: "outer".into(),
                start_us: 10.0,
                dur_us: 100.0,
            },
            TraceEvent::RunCache {
                fingerprint: 0xdead_beef,
                hit: true,
            },
        ]
    }

    fn track_key(entries: &[(String, Value)]) -> (u64, u64) {
        let pid = match map_get(entries, "pid").unwrap() {
            Value::U64(v) => *v,
            Value::I64(v) => *v as u64,
            other => panic!("pid {other:?}"),
        };
        let tid = match map_get(entries, "tid") {
            Ok(Value::U64(v)) => *v,
            Ok(Value::I64(v)) => *v as u64,
            _ => 0,
        };
        (pid, tid)
    }

    #[test]
    fn chrome_trace_parses_and_ts_monotonic_per_track() {
        let json = chrome_trace(&sample_events());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let top = doc.as_map().unwrap();
        let events = map_get(top, "traceEvents").unwrap().as_seq().unwrap();
        assert!(!events.is_empty());

        let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
        let mut non_meta = 0;
        for ev in events {
            let entries = ev.as_map().unwrap();
            let ph = map_get(entries, "ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            non_meta += 1;
            let ts = match map_get(entries, "ts").unwrap() {
                Value::F64(v) => *v,
                Value::U64(v) => *v as f64,
                Value::I64(v) => *v as f64,
                other => panic!("ts {other:?}"),
            };
            let key = track_key(entries);
            if let Some(prev) = last_ts.get(&key) {
                assert!(ts >= *prev, "ts regressed on track {key:?}");
            }
            last_ts.insert(key, ts);
        }
        assert_eq!(non_meta, 7, "6 events -> 7 rows (1 ways counter)");
    }

    #[test]
    fn chrome_trace_emits_way_counter_rows() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"ways.module0\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("RunCache.hit"));
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn read_jsonl_reports_bad_line_number() {
        let text = "{\"RunCache\":{\"fingerprint\":1,\"hit\":true}}\n\nnot json\n";
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn export_to_path_picks_format_by_extension() {
        let dir = std::env::temp_dir().join(format!("esteem-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = sample_events();

        let t = Tracer::ring(64, crate::TraceFilter::all());
        for ev in &events {
            t.emit(ev.kind(), || ev.clone());
        }
        let json_path = dir.join("trace.json");
        let n = export_to_path(&t, &json_path).unwrap();
        assert_eq!(n, events.len());
        let text = std::fs::read_to_string(&json_path).unwrap();
        assert!(text.trim_start().starts_with("{\"traceEvents\""));

        let u = Tracer::ring(64, crate::TraceFilter::all());
        for ev in &events {
            u.emit(ev.kind(), || ev.clone());
        }
        let jsonl_path = dir.join("trace.jsonl");
        export_to_path(&u, &jsonl_path).unwrap();
        let back = read_jsonl(std::fs::File::open(&jsonl_path).unwrap()).unwrap();
        assert_eq!(back, events);

        std::fs::remove_dir_all(&dir).ok();
    }
}
