//! End-to-end tests: a real daemon on an ephemeral port, driven over
//! real sockets through the client library (and, in one test, through
//! the actual `esteem-serve`/`esteem-client` binaries).
//!
//! Each test runs its own daemon. Specs use per-test seeds so their
//! run-cache fingerprints never collide across tests (the run cache is
//! process-global); colliding on purpose is exactly what the dedupe
//! tests do.

use std::time::Duration;

use esteem_core::Simulator;
use esteem_serve::{client, spawn, AdmissionOptions, JobSpec, ServerOptions};
use serde::{map_get, Deserialize, Serialize, Value};

fn opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        ..ServerOptions::default()
    }
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        workload: "gamess".into(),
        instructions: 200_000,
        seed,
        ..JobSpec::default()
    }
}

/// A spec with a tiny warm-up. The scheduling/admission tests care
/// about queue physics, not simulator fidelity, and the default
/// 35 M-cycle warm-up costs seconds per job in debug builds.
fn quick(seed: u64) -> JobSpec {
    JobSpec {
        instructions: 20_000,
        warmup: Some(200_000),
        ..spec(seed)
    }
}

#[test]
fn submit_poll_fetch_matches_cli_path_byte_for_byte() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();

    let spec = spec(0xE2E1);
    let resp = client::submit(&addr, &spec).unwrap();
    assert!(!resp.coalesced);
    let result = client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();
    let via_daemon = serde_json::to_string_pretty(&result).unwrap();

    // The CLI path: resolve the same options and run the simulator
    // directly, printing with the same pretty serializer as
    // `esteem-sim --json`.
    let r = spec.resolve().unwrap();
    let report = Simulator::new(r.cfg, &r.profiles, &r.label).run();
    let via_cli = serde_json::to_string_pretty(&report.to_value()).unwrap();

    assert_eq!(via_daemon, via_cli, "daemon result must be byte-identical");

    daemon.shutdown();
    assert!(daemon.wait());
}

#[test]
fn duplicate_inflight_submissions_coalesce_to_one_execution() {
    let daemon = spawn(ServerOptions {
        start_paused: true,
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();

    let spec = spec(0xE2E2);
    let first = client::submit(&addr, &spec).unwrap();
    assert!(!first.coalesced && !first.cached);
    // Scheduler is paused, so the first submission is still queued:
    // identical specs must coalesce onto it, not run again.
    let second = client::submit(&addr, &spec).unwrap();
    assert!(second.coalesced, "identical in-flight spec must coalesce");
    assert_eq!(
        second.job, first.job,
        "coalesced submit returns the primary id"
    );

    daemon.resume();
    let a = client::fetch(&addr, first.job, Duration::from_millis(20)).unwrap();
    let b = client::fetch(&addr, second.job, Duration::from_millis(20)).unwrap();
    assert_eq!(a, b);

    // Counters prove a single execution: one coalesce recorded, exactly
    // one job completed (the primary), nothing else submitted or run.
    assert_eq!(
        daemon
            .counters()
            .coalesced
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        daemon
            .counters()
            .submitted
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        daemon
            .counters()
            .completed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn resubmitting_a_finished_config_is_served_from_the_run_cache() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let spec = spec(0xE2E3);
    let first = client::submit(&addr, &spec).unwrap();
    client::fetch(&addr, first.job, Duration::from_millis(20)).unwrap();
    let again = client::submit(&addr, &spec).unwrap();
    assert!(again.cached, "finished config must be a run-cache hit");
    assert_ne!(
        again.job, first.job,
        "cached submit still gets its own job id"
    );
    let (state, _) = client::poll(&addr, again.job).unwrap();
    assert_eq!(state, "done");
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn panicking_simulation_fails_the_job_but_daemon_keeps_serving() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();

    // a_min = 0 violates the configuration invariants; the simulator's
    // validation panics inside the worker.
    let bad = JobSpec {
        a_min: 0,
        ..spec(0xE2E4)
    };
    let resp = client::submit(&addr, &bad).unwrap();
    let err = client::fetch(&addr, resp.job, Duration::from_millis(20))
        .expect_err("invalid config must fail the job");
    assert!(err.contains("failed"), "got: {err}");
    let (state, v) = client::poll(&addr, resp.job).unwrap();
    assert_eq!(state, "failed");
    let error = v
        .as_map()
        .and_then(|m| map_get(m, "error").ok())
        .and_then(|e| e.as_str())
        .unwrap_or_default()
        .to_owned();
    assert!(!error.is_empty(), "failed job must carry the panic message");

    // The daemon survived: a good job on the same daemon completes.
    let good = client::submit(&addr, &spec(0xE2E5)).unwrap();
    client::fetch(&addr, good.job, Duration::from_millis(20)).unwrap();
    assert_eq!(
        daemon
            .counters()
            .failed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn full_queue_sheds_with_429() {
    let daemon = spawn(ServerOptions {
        queue_capacity: 1,
        start_paused: true,
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    client::submit(&addr, &spec(0xE2E6)).unwrap();
    let err = client::submit(&addr, &spec(0xE2E7)).expect_err("second submit must shed");
    assert!(
        err.contains("429") && err.contains("queue full"),
        "got: {err}"
    );
    assert_eq!(
        daemon
            .counters()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    daemon.resume();
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn events_stream_carries_interval_samples() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    // Short reconfiguration interval so a small run still emits several
    // interval records.
    let spec = JobSpec {
        interval: 100_000,
        instructions: 1_000_000,
        ..spec(0xE2E8)
    };
    let resp = client::submit(&addr, &spec).unwrap();
    let mut lines = Vec::new();
    let status = client::stream_lines(&addr, &format!("/v1/jobs/{}/events", resp.job), |l| {
        lines.push(l.to_owned());
    })
    .unwrap();
    assert_eq!(status, 200);
    assert!(!lines.is_empty(), "expected at least one interval sample");
    for line in &lines {
        let v: Value = serde_json::from_str(line).unwrap();
        let m = v.as_map().expect("sample is an object");
        assert!(map_get(m, "cycle").is_ok() && map_get(m, "refreshes").is_ok());
    }
    // The stream ended because the job finished.
    let (state, _) = client::poll(&addr, resp.job).unwrap();
    assert_eq!(state, "done");
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn metrics_exposes_serve_runcache_and_http_counters() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let resp = client::submit(&addr, &spec(0xE2E9)).unwrap();
    client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();
    let text = client::metrics(&addr).unwrap();
    for needle in [
        "serve/jobs_submitted 1",
        "serve/jobs_completed 1",
        "serve/queue_depth",
        "runcache/hits",
        "runcache/misses",
        "http/requests",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn trace_spans_cover_queue_wait_cache_and_run() {
    use esteem_trace::TraceEvent;
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let resp = client::submit(&addr, &spec(0xE2EA)).unwrap();
    client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();
    let names: Vec<String> = daemon
        .trace_events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    assert!(
        names.iter().any(|n| n.ends_with("queue_wait")),
        "queue-wait span missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "job.cache_lookup"),
        "cache-lookup span missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "job.run"),
        "run span missing: {names:?}"
    );
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn journal_recovery_restores_done_jobs_and_requeues_unfinished() {
    let dir = std::env::temp_dir().join(format!("esteem-e2e-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");

    // First daemon: complete one job, then shut down.
    let done_spec = spec(0xE2EB);
    let first_id = {
        let daemon = spawn(ServerOptions {
            journal_path: Some(journal.clone()),
            ..opts()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let resp = client::submit(&addr, &done_spec).unwrap();
        client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();
        daemon.shutdown();
        daemon.wait();
        resp.job
    };

    // Simulate a crash with one accepted-but-unfinished job: append its
    // submit record by hand (as a crashed daemon would have left it).
    let unfinished_spec = spec(0xE2EC);
    let unfinished_id = first_id + 10;
    {
        let j = esteem_serve::Journal::open(&journal).unwrap();
        let fp = unfinished_spec.resolve().unwrap().fingerprint;
        j.submit(unfinished_id, None, fp, &unfinished_spec);
        j.start(unfinished_id);
    }

    // Second daemon on the same journal: the done job is restored, the
    // unfinished one is re-queued and runs to completion.
    let daemon = spawn(ServerOptions {
        journal_path: Some(journal.clone()),
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    assert!(
        daemon
            .counters()
            .recovered
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2
    );
    let (state, v) = client::poll(&addr, first_id).unwrap();
    assert_eq!(state, "done", "finished job must survive the restart");
    assert!(
        v.as_map()
            .map(|m| map_get(m, "result").is_ok())
            .unwrap_or(false),
        "restored job must carry its result"
    );
    let recovered = client::fetch(&addr, unfinished_id, Duration::from_millis(20)).unwrap();
    let expected = {
        let r = unfinished_spec.resolve().unwrap();
        Simulator::new(r.cfg, &r.profiles, &r.label)
            .run()
            .to_value()
    };
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "re-run recovered job reproduces the identical report"
    );
    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption injection: clobber a line in the *middle* of the journal
/// (with non-UTF-8 bytes, the nastiest case) and restart. The daemon must
/// boot, count the skipped line, and still recover every intact record.
#[test]
fn journal_recovery_survives_corrupt_middle_line() {
    let dir = std::env::temp_dir().join(format!("esteem-e2e-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");

    // First daemon: run two jobs to completion, producing at least
    // submit/start/done triples for each.
    let spec_a = spec(0xE2ED);
    let spec_b = spec(0xE2EE);
    let (id_a, id_b) = {
        let daemon = spawn(ServerOptions {
            journal_path: Some(journal.clone()),
            ..opts()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let ra = client::submit(&addr, &spec_a).unwrap();
        client::fetch(&addr, ra.job, Duration::from_millis(20)).unwrap();
        let rb = client::submit(&addr, &spec_b).unwrap();
        client::fetch(&addr, rb.job, Duration::from_millis(20)).unwrap();
        daemon.shutdown();
        daemon.wait();
        (ra.job, rb.job)
    };

    // Clobber job A's `done` line in place with invalid UTF-8, leaving
    // every other line (including job B's whole history) intact.
    let bytes = std::fs::read(&journal).unwrap();
    let needle = format!("\"event\":\"done\",\"job\":{id_a}");
    let mut out = Vec::new();
    let mut clobbered = false;
    for line in bytes.split(|&b| b == b'\n') {
        if !clobbered && String::from_utf8_lossy(line).contains(&needle) {
            out.extend(vec![0xFE_u8; line.len()]);
            clobbered = true;
        } else {
            out.extend_from_slice(line);
        }
        out.push(b'\n');
    }
    assert!(clobbered, "done record for job {id_a} not found in journal");
    std::fs::write(&journal, out).unwrap();

    // Second daemon: boots despite the corruption, reports the skipped
    // line, keeps job B done, and re-queues job A (its `done` was lost,
    // so it replays as unfinished) to the identical deterministic result.
    let daemon = spawn(ServerOptions {
        journal_path: Some(journal.clone()),
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    assert_eq!(
        daemon
            .counters()
            .journal_skipped
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "exactly the clobbered line is skipped"
    );
    let (state_b, _) = client::poll(&addr, id_b).unwrap();
    assert_eq!(state_b, "done", "intact job must survive the corruption");
    let report_a = client::fetch(&addr, id_a, Duration::from_millis(20)).unwrap();
    let expected = {
        let r = spec_a.resolve().unwrap();
        Simulator::new(r.cfg, &r.profiles, &r.label)
            .run()
            .to_value()
    };
    assert_eq!(
        serde_json::to_string(&report_a).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "re-run of the job with the lost `done` reproduces its report"
    );
    let text = client::metrics(&addr).unwrap();
    assert!(
        text.contains("journal_skipped_lines"),
        "skipped-line counter must be exported in /metrics:\n{text}"
    );
    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_specs_and_bad_routes_get_clean_errors() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    // Unknown workload.
    let err = client::submit(
        &addr,
        &JobSpec {
            workload: "not-a-benchmark".into(),
            ..JobSpec::default()
        },
    )
    .expect_err("unknown workload rejected");
    assert!(err.contains("400"), "got: {err}");
    // Unknown field in the spec body.
    let (status, body) = client::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some("{\"workload\":\"gamess\",\"retentoin_us\":40}"),
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("retentoin_us"), "got: {body}");
    // Unknown job id and unknown route.
    let (status, _) = client::request(&addr, "GET", "/v1/jobs/999999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(status, 404);
    // Wrong method.
    let (status, _) = client::request(&addr, "PUT", "/v1/jobs", None).unwrap();
    assert_eq!(status, 405);
    assert_eq!(
        daemon
            .counters()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    daemon.shutdown();
    daemon.wait();
}

/// A body nested 100 000 arrays deep fits well under the body cap but
/// would overflow a recursive parser's stack and abort the process. It
/// must be refused as a bad request, and the same daemon keeps serving.
#[test]
fn deeply_nested_body_is_refused_and_daemon_keeps_serving() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let body = "[".repeat(100_000);
    let (status, msg) = client::request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert!((400..500).contains(&status), "got {status}: {msg}");
    let job = client::submit(&addr, &quick(0xDEE9)).unwrap().job;
    client::fetch(&addr, job, Duration::from_millis(20)).expect("normal job completes");
    daemon.shutdown();
    assert!(daemon.wait());
}

/// Inject a known latency population directly into the daemon's stage
/// histograms, then read the percentiles back through `/v1/status`. The
/// histogram's documented bound is 1/64 (~1.6%) relative error.
#[test]
fn status_reports_percentiles_for_injected_latencies() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let m = daemon.serve_metrics();
    for us in 1..=1000u64 {
        m.submit_us.record(us);
    }
    m.record_e2e(esteem_serve::Outcome::Done, "injector", 4096);

    let (status, body) = client::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let stage = |v: &Value, path: &[&str]| -> Value {
        let mut cur = v.clone();
        for p in path {
            cur = cur
                .as_map()
                .and_then(|m| map_get(m, p).ok())
                .unwrap_or_else(|| panic!("missing {p} in {body}"))
                .clone();
        }
        cur
    };
    let num = |v: &Value, key: &str| -> u64 {
        match stage(v, &[key]) {
            Value::U64(n) => n,
            Value::I64(n) => n as u64,
            Value::F64(f) => f as u64,
            other => panic!("{key} is not numeric: {other:?}"),
        }
    };
    let submit = stage(&v, &["stages", "submit_us"]);
    assert_eq!(num(&submit, "count"), 1000);
    // Exact ranks of the uniform 1..=1000 population, with the 1/64
    // relative-error ceiling on the reported bucket upper bound.
    for (q, exact) in [("p50_us", 500u64), ("p95_us", 950), ("p99_us", 990)] {
        let got = num(&submit, q);
        assert!(
            got >= exact && got as f64 <= exact as f64 * (1.0 + 1.0 / 64.0) + 1.0,
            "{q}: got {got}, exact {exact}"
        );
    }
    assert_eq!(num(&submit, "max_us"), 1000);
    let e2e_done = stage(&v, &["e2e_us", "done"]);
    assert_eq!(num(&e2e_done, "count"), 1);
    assert_eq!(num(&e2e_done, "p50_us"), 4096, "4096 sits on a bucket edge");

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn status_and_flight_recorder_cover_a_real_job() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let resp = client::submit(&addr, &spec(0xE2F0)).unwrap();
    client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();

    let (status, body) = client::request(&addr, "GET", "/v1/status", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let m = v.as_map().unwrap();
    assert_eq!(
        map_get(m, "version").unwrap().as_str().unwrap(),
        env!("CARGO_PKG_VERSION")
    );
    let workers = map_get(m, "workers").unwrap().as_map().unwrap();
    assert_eq!(map_get(workers, "count").unwrap(), &(2u64.to_value()));
    let per = map_get(workers, "per_worker").unwrap().as_seq().unwrap();
    assert_eq!(per.len(), 2, "one utilization entry per worker");
    let stages = map_get(m, "stages").unwrap().as_map().unwrap();
    for name in [
        "submit_us",
        "queue_wait_us",
        "cache_lookup_us",
        "run_us",
        "serialize_us",
    ] {
        let st = map_get(stages, name).unwrap().as_map().unwrap();
        let count = u64::from_value(map_get(st, "count").unwrap()).unwrap();
        assert!(count >= 1, "stage {name} recorded nothing:\n{body}");
    }

    // The flight recorder holds the job's trip with its stage split.
    let (status, body) = client::request(&addr, "GET", "/v1/flight-recorder", None).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let jobs = v
        .as_map()
        .and_then(|m| map_get(m, "jobs").ok())
        .and_then(|j| j.as_seq())
        .expect("flight recorder has a jobs array");
    let entry = jobs
        .iter()
        .find(|j| {
            j.as_map()
                .and_then(|m| map_get(m, "job").ok())
                .is_some_and(|id| id == &resp.job.to_value())
        })
        .unwrap_or_else(|| panic!("job {} not in flight recorder:\n{body}", resp.job));
    let em = entry.as_map().unwrap();
    assert_eq!(map_get(em, "outcome").unwrap().as_str().unwrap(), "done");
    let run_us = u64::from_value(map_get(em, "run_us").unwrap()).unwrap();
    let e2e_us = u64::from_value(map_get(em, "e2e_us").unwrap()).unwrap();
    assert!(run_us > 0 && e2e_us >= run_us, "run {run_us}, e2e {e2e_us}");
    // Trace events ride along (non-destructively: the daemon accessor
    // still sees them afterwards).
    assert!(v
        .as_map()
        .and_then(|m| map_get(m, "trace").ok())
        .and_then(|t| t.as_seq())
        .is_some_and(|t| !t.is_empty()));
    assert!(!daemon.trace_events().is_empty());

    daemon.shutdown();
    daemon.wait();
}

#[test]
fn metrics_expose_histograms_build_info_and_content_type() {
    use std::io::{Read as _, Write as _};

    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let resp = client::submit(&addr, &spec(0xE2F1)).unwrap();
    client::fetch(&addr, resp.job, Duration::from_millis(20)).unwrap();

    let text = client::metrics(&addr).unwrap();
    for needle in [
        "serve/stage/run_us_bucket{le=\"",
        "serve/stage/run_us_bucket{le=\"+Inf\"}",
        "serve/stage/run_us_count 1",
        "serve/stage/run_us_sum ",
        "serve/stage/e2e_us_bucket{outcome=\"done\",le=\"",
        "serve/uptime_seconds",
        &format!(
            "serve/build_info{{version=\"{}\",git=",
            env!("CARGO_PKG_VERSION")
        ),
        "pool/task_us_count",
        "pool/workers/0/utilization",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The exposition content type (client::request drops headers, so go
    // over a raw socket).
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    assert!(
        out.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "exposition content type missing:\n{}",
        out.lines().take(8).collect::<Vec<_>>().join("\n")
    );

    daemon.shutdown();
    daemon.wait();
}

/// A panicking job triggers the crash dump: the flight-recorder body is
/// written to the configured path, with the failed job in it.
#[test]
fn panicking_job_writes_flight_dump() {
    let dir = std::env::temp_dir().join(format!("esteem-e2e-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.json");

    let daemon = spawn(ServerOptions {
        flight_dump: Some(dump.clone()),
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let bad = JobSpec {
        a_min: 0,
        ..spec(0xE2F2)
    };
    let resp = client::submit(&addr, &bad).unwrap();
    client::fetch(&addr, resp.job, Duration::from_millis(20))
        .expect_err("invalid config must fail the job");

    // The dump lands just after the job turns terminal; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let text = loop {
        match std::fs::read_to_string(&dump) {
            Ok(t) if !t.is_empty() => break t,
            _ if std::time::Instant::now() > deadline => {
                panic!("flight dump never appeared at {}", dump.display())
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let v: Value = serde_json::from_str(&text).unwrap();
    let jobs = v
        .as_map()
        .and_then(|m| map_get(m, "jobs").ok())
        .and_then(|j| j.as_seq())
        .expect("dump has a jobs array");
    assert!(
        jobs.iter().any(|j| {
            j.as_map()
                .is_some_and(|m| map_get(m, "outcome").is_ok_and(|o| o.as_str() == Some("failed")))
        }),
        "failed job missing from dump:\n{text}"
    );

    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real binaries, end to end: daemon process on an ephemeral port,
/// driven by `esteem-client` submit/poll/fetch/shutdown.
#[test]
fn daemon_and_client_binaries_round_trip() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("esteem-e2e-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_esteem-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    std::io::BufReader::new(daemon.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
        .to_owned();

    let client_bin = env!("CARGO_BIN_EXE_esteem-client");
    let run = |args: &[&str]| {
        let out = Command::new(client_bin)
            .arg(&addr)
            .args(args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "esteem-client {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let submitted = run(&[
        "submit",
        "--instructions",
        "200000",
        "--seed",
        "60910",
        "gamess",
    ]);
    let id = submitted
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("unexpected submit output: {submitted:?}"))
        .to_owned();
    let fetched = run(&["fetch", &id]);

    // Byte-identity with the CLI path, via the same serializer.
    let expected = {
        let spec = JobSpec {
            workload: "gamess".into(),
            instructions: 200_000,
            seed: 60910,
            ..JobSpec::default()
        };
        let r = spec.resolve().unwrap();
        let report = Simulator::new(r.cfg, &r.profiles, &r.label).run();
        serde_json::to_string_pretty(&report.to_value()).unwrap()
    };
    assert_eq!(fetched.trim_end(), expected);

    let metrics = run(&["metrics"]);
    assert!(
        metrics.contains("serve/jobs_submitted 1"),
        "got:\n{metrics}"
    );

    // The dashboard binary against the live daemon, in one-shot mode.
    let top = Command::new(env!("CARGO_BIN_EXE_esteem-top"))
        .args([addr.as_str(), "--once"])
        .output()
        .unwrap();
    assert!(
        top.status.success(),
        "esteem-top --once failed: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let dash = String::from_utf8(top.stdout).unwrap();
    for needle in [
        "esteem-top —",
        "queue depth",
        "workers",
        "p95",
        "run",
        "e2e done",
    ] {
        assert!(dash.contains(needle), "missing {needle:?} in:\n{dash}");
    }

    run(&["shutdown"]);
    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    // The journal artifact exists and records the whole lifecycle.
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(journal_text.contains("\"submit\"") && journal_text.contains("\"done\""));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Admission control, priority aging, Retry-After, and the load harness.

/// Blocks until `read()` reaches `at_least` (short poll, long timeout).
fn wait_for(read: impl Fn() -> u64, at_least: u64, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while read() < at_least {
        assert!(
            std::time::Instant::now() < deadline,
            "timeout waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Token-bucket refusal is per-client: alice exhausting her burst does
/// not touch bob's bucket, and every shed carries Retry-After hints in
/// both the error string and the raw response headers.
#[test]
fn rate_limit_refuses_per_client_with_retry_hints() {
    let daemon = spawn(ServerOptions {
        start_paused: true,
        queue_capacity: 16,
        admission: AdmissionOptions {
            rate_per_sec: Some(0.5),
            burst: 2.0,
            ..AdmissionOptions::default()
        },
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let with_client = |seed: u64, client: &str| JobSpec {
        client: client.into(),
        ..quick(seed)
    };

    // Alice's burst of 2 is admitted; her third submit is refused.
    client::submit(&addr, &with_client(0xAC01, "alice")).unwrap();
    client::submit(&addr, &with_client(0xAC02, "alice")).unwrap();
    let err = client::submit(&addr, &with_client(0xAC03, "alice"))
        .expect_err("third submit in the burst window must shed");
    assert!(
        err.contains("429") && err.contains("rate limited"),
        "got: {err}"
    );
    let hint = client::retry_after_ms_from_error(&err)
        .expect("shed error must embed the Retry-After hint");
    assert!(hint >= 1, "hint {hint}ms");

    // Bob sails through on his own bucket while alice is throttled.
    client::submit(&addr, &with_client(0xAC04, "bob")).unwrap();

    // The raw 429 response carries both header forms.
    let body = serde_json::to_string(&with_client(0xAC05, "alice").to_value()).unwrap();
    let (status, headers, resp) = client::request_full(
        &addr,
        "POST",
        "/v1/jobs",
        Some(&body),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(status, 429, "got {status}: {resp}");
    assert!(
        headers.iter().any(|(k, _)| k == "retry-after"),
        "Retry-After missing: {headers:?}"
    );
    assert!(
        client::retry_after_ms(&headers).is_some_and(|ms| ms >= 1),
        "retry-after-ms missing: {headers:?}"
    );

    let c = daemon.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    assert!(load(&c.shed_rate_limited) >= 2, "both alice sheds counted");
    assert_eq!(load(&c.shed), load(&c.shed_rate_limited));

    // Status exposes the admission block.
    let (_, status_body) = client::request(&addr, "GET", "/v1/status", None).unwrap();
    for needle in ["\"admission\"", "\"rate_per_sec\"", "\"buckets\""] {
        assert!(
            status_body.contains(needle),
            "missing {needle}:\n{status_body}"
        );
    }

    daemon.resume();
    daemon.shutdown();
    daemon.wait();
}

/// SLO shedding engages while the queue-wait window breaches the SLO
/// and disengages once the breach ages out of the sliding window.
#[test]
fn slo_shedding_engages_on_queue_wait_flood_and_disengages() {
    let daemon = spawn(ServerOptions {
        admission: AdmissionOptions {
            slo_ms: Some(50),
            window_slot_ms: 100,
            window_slots: 2,
            min_window_samples: 4,
            ..AdmissionOptions::default()
        },
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();

    // Inject a queue-wait flood far over the 50ms SLO (the public
    // recording surface doubles as the latency injection point).
    for _ in 0..20 {
        daemon.serve_metrics().queue_wait_us.record(400_000);
    }
    let err = client::submit(&addr, &quick(0xAC10)).expect_err("breached SLO must shed");
    assert!(err.contains("429") && err.contains("SLO"), "got: {err}");
    assert!(
        client::retry_after_ms_from_error(&err).is_some(),
        "SLO shed must carry a hint: {err}"
    );

    // Once the window rotates past the flood, submissions are admitted
    // again — and the admitted job actually runs to completion.
    let mut admitted = None;
    for i in 0..40u64 {
        std::thread::sleep(Duration::from_millis(120));
        if let Ok(resp) = client::submit(&addr, &quick(0xAC20 + i)) {
            admitted = Some(resp);
            break;
        }
    }
    let admitted = admitted.expect("shedding must disengage after the flood ages out");
    client::fetch(&addr, admitted.job, Duration::from_millis(10)).unwrap();
    assert!(
        daemon
            .counters()
            .shed_slo
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    daemon.shutdown();
    daemon.wait();
}

/// Priority aging: a p1 job behind a p2 flood is eventually promoted
/// over *fresh* p2 arrivals; without aging the fresh flood starves it
/// indefinitely. Completion order is read off the flight recorder.
#[test]
fn priority_aging_promotes_a_starved_job_over_fresh_arrivals() {
    let run = |aging_pops: u64, seed_base: u64| -> (usize, usize, usize) {
        let daemon = spawn(ServerOptions {
            workers: 1,
            queue_capacity: 16,
            start_paused: true,
            aging_pops,
            ..opts()
        })
        .unwrap();
        let addr = daemon.addr().to_string();
        let p2 = |seed: u64| JobSpec {
            priority: 2,
            ..quick(seed)
        };
        // Paused: a p2 flood, then the p1 job that would starve.
        for i in 0..6 {
            client::submit(&addr, &p2(seed_base + i)).unwrap();
        }
        let starved = client::submit(
            &addr,
            &JobSpec {
                priority: 1,
                ..quick(seed_base + 10)
            },
        )
        .unwrap()
        .job;
        daemon.resume();
        // Fresh p2 arrivals while the flood drains — the sustained-load
        // shape that starves p1 forever without aging.
        let completed = || {
            daemon
                .counters()
                .completed
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        wait_for(completed, 1, "first flood completion");
        let g1 = client::submit(&addr, &p2(seed_base + 20)).unwrap().job;
        wait_for(completed, 2, "second flood completion");
        let g2 = client::submit(&addr, &p2(seed_base + 21)).unwrap().job;
        wait_for(completed, 9, "all nine jobs");
        let order: Vec<u64> = daemon
            .flight_recorder()
            .snapshot()
            .iter()
            .map(|t| t.job)
            .collect();
        let pos = |id: u64| {
            order
                .iter()
                .position(|&j| j == id)
                .unwrap_or_else(|| panic!("job {id} missing from {order:?}"))
        };
        let res = (pos(starved), pos(g1), pos(g2));
        daemon.shutdown();
        daemon.wait();
        res
    };
    let (s, g1, g2) = run(0, 0xA6E0_0000);
    assert!(
        s > g1 && s > g2,
        "without aging fresh p2 arrivals starve p1: starved at {s}, fresh at {g1}/{g2}"
    );
    let (s, g1, g2) = run(1, 0xA6E1_0000);
    assert!(
        s < g1 && s < g2,
        "aging must promote the starved job: starved at {s}, fresh at {g1}/{g2}"
    );
}

/// A short closed-loop load run against a live daemon: completions
/// happen, latency is measured, and the report carries the server view.
#[test]
fn loadgen_closed_loop_drives_a_live_daemon() {
    use esteem_serve::loadgen::{self, LoadgenOptions, Mode};
    let daemon = spawn(opts()).unwrap();
    let lopts = LoadgenOptions {
        addr: daemon.addr().to_string(),
        mode: Mode::Closed { concurrency: 2 },
        duration: Duration::from_millis(1200),
        seed: 0x0010_AD01,
        clients: 2,
        hit_ratio: 0.3,
        expensive_frac: 0.0,
        cheap_instructions: 100_000,
        poll_interval: Duration::from_millis(3),
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(&lopts);
    assert!(report.completed > 0, "no completions: {report:?}");
    assert_eq!(report.latency.count, report.completed);
    assert!(report.throughput_rps > 0.0);
    assert!(report.shed_rate < 1.0);
    assert!(report.latency.p95_us >= report.latency.p50_us);
    let sq = report
        .server_queue_wait
        .expect("server status must be readable after the run");
    // Cached and coalesced completions never enqueue, so they leave no
    // queue-wait sample behind.
    assert!(
        sq.count + report.cached + report.coalesced >= report.completed,
        "queue-wait samples {} can't cover completions {} (cached {}, coalesced {})",
        sq.count,
        report.completed,
        report.cached,
        report.coalesced
    );
    daemon.shutdown();
    daemon.wait();
}

/// `esteem-loadgen --smoke` is deterministic: same seed, same digest,
/// run to run; a different seed moves it.
#[test]
fn loadgen_smoke_digest_is_deterministic() {
    use std::process::Command;
    let digest = |args: &[&str]| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_esteem-loadgen"))
            .args(args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "loadgen {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let a = digest(&["--smoke", "--seed", "42", "--mode", "open", "--rps", "50"]);
    let b = digest(&["--smoke", "--seed", "42", "--mode", "open", "--rps", "50"]);
    assert_eq!(a, b, "fixed seed must give an identical schedule");
    assert!(a.starts_with("schedule digest: "), "got: {a}");
    let c = digest(&["--smoke", "--seed", "43", "--mode", "open", "--rps", "50"]);
    assert_ne!(a, c, "a different seed must move the digest");
}

/// The acceptance condition: under sustained open-loop overload (1.3x
/// the probed saturation rate) of a one-worker daemon, `--slo-ms`
/// admission keeps queue-wait p95 within 2x the SLO, while the
/// uncontrolled baseline blows through it. Everything is measured in
/// units of the probed single-job runtime R so the test is
/// machine-speed independent.
#[test]
fn slo_shedding_bounds_overload_p95_where_baseline_collapses() {
    use esteem_serve::loadgen::{self, LoadgenOptions, Mode};

    // Heavier than `quick()` on purpose: the SLO thresholds below are
    // multiples of the probed job runtime R, and R must dominate the
    // scheduling/polling noise of the loaded phases for the multiples
    // to mean anything. (Probed R is idle-machine R; under load each
    // job also absorbs contention, which only widens the baseline
    // breach but would sink a too-tight controlled bound.)
    const LOAD_WARMUP: u64 = 2_000_000;

    // Probe the saturation rate with a closed-loop run at concurrency
    // 3: enough outstanding jobs that the single worker never idles
    // waiting on client-side submit/fetch turnaround, so
    // `duration / completed` measures the true per-job *service* time.
    // (A serial or one-off probe instead measures service plus client
    // overhead, overestimating R by tens of percent — and an "overload"
    // phase paced from that R quietly runs at ~1.0x saturation, where
    // shedding correctly never engages.) The probe polls at the same
    // cadence as the load phases: on a small machine polling is real
    // contention, and a probe that polls harder than the load phase
    // reports an R the loaded daemon then beats.
    let r_us = {
        let daemon = spawn(ServerOptions {
            workers: 1,
            ..opts()
        })
        .unwrap();
        let probe_opts = |seed: u64, secs: u64| LoadgenOptions {
            addr: daemon.addr().to_string(),
            mode: Mode::Closed { concurrency: 3 },
            duration: Duration::from_secs(secs),
            seed,
            hit_ratio: 0.0,
            expensive_frac: 0.0,
            cheap_instructions: 20_000,
            warmup: Some(LOAD_WARMUP),
            poll_interval: Duration::from_millis(25),
            ..LoadgenOptions::default()
        };
        // Discard a first run: the earliest jobs in the *process* run
        // ~1.5x slower than steady state (allocator growth, page
        // faults), and a probe that includes them overstates R — which
        // understates the saturation rate and turns the "overload"
        // phases into ~1.0x runs where shedding never engages.
        loadgen::run(&probe_opts(0xAD11, 2));
        let probe = loadgen::run(&probe_opts(0xAD10, 3));
        daemon.shutdown();
        daemon.wait();
        assert!(probe.completed > 0, "probe run completed nothing");
        ((probe.duration_s * 1e6) as u64 / probe.completed).max(10_000)
    };
    let slo_us = 5 * r_us;
    let r_s = r_us as f64 / 1e6;
    // 1.3x the one-worker saturation rate: far enough past 1.0 that
    // probe error cannot flip the phases back under saturation, yet low
    // enough that the worst admitted job (queued just before shedding
    // engages, popped after the backlog drains) waits ~1.3x SLO —
    // inside the 2x bound asserted below. (The worst wait scales with
    // the overload factor: shedding engages at the first pop beyond the
    // SLO, and the backlog already admitted at that instant is factor x
    // SLO deep in time.)
    let overload_factor = 1.3;
    let measure = Duration::from_secs_f64((80.0 * r_s).max(4.0));
    // Calibrate each phase's nominal rps so the *realized* arrival
    // count inside the measurement window hits the target factor
    // exactly. A finite Poisson stream can run 20-30% hot or cold by
    // seed luck, which is the difference between "1.3x overload" and
    // "1.7x overload" — offsets scale exactly as 1/rps, so placing the
    // k-th unit-rate arrival at the window edge nails the realized
    // rate deterministically.
    let rps_for = |seed: u64| -> f64 {
        let t = measure.as_secs_f64();
        let k = ((overload_factor * t / r_s).ceil() as usize).max(2);
        let unit = loadgen::arrival_offsets_us(seed, k, 1.0);
        (unit[k - 1] as f64 / 1e6) / t
    };

    let overload = |admission: AdmissionOptions, seed: u64| -> (u64, u64) {
        let daemon = spawn(ServerOptions {
            workers: 1,
            queue_capacity: 64,
            admission,
            ..opts()
        })
        .unwrap();
        let rps = rps_for(seed ^ 0xFFFF);
        let lg = |seed: u64, duration: Duration| LoadgenOptions {
            addr: daemon.addr().to_string(),
            mode: Mode::Open { rps },
            duration,
            seed,
            clients: 4,
            hit_ratio: 0.0,
            expensive_frac: 0.0,
            cheap_instructions: 20_000,
            warmup: Some(LOAD_WARMUP),
            // Gentle polling: at 1.3x saturation dozens of jobs are in
            // flight, and aggressive polling would itself become the
            // load the SLO math doesn't model. 25ms is still well under
            // the SLO (5R), so it does not distort the wait histogram.
            poll_interval: Duration::from_millis(25),
            ..LoadgenOptions::default()
        };
        // Short warm phase (thread pools, run-cache misses), then the
        // measured phase against a clean histogram baseline.
        loadgen::run(&lg(seed, Duration::from_secs(1)));
        let base = daemon.serve_metrics().queue_wait_us.snapshot();
        let report = loadgen::run(&lg(seed ^ 0xFFFF, measure));
        eprintln!(
            "overload phase {seed:x}: attempts {} completed {} shed {} dropped {} failed {} \
             cached {} coalesced {}",
            report.attempts,
            report.completed,
            report.shed,
            report.dropped,
            report.failed,
            report.cached,
            report.coalesced
        );
        let p95 = daemon
            .serve_metrics()
            .queue_wait_us
            .snapshot()
            .delta_since(&base)
            .quantile(0.95);
        let shed_slo = daemon
            .counters()
            .shed_slo
            .load(std::sync::atomic::Ordering::Relaxed);
        daemon.shutdown();
        daemon.wait();
        (p95, shed_slo)
    };

    let (baseline_p95, _) = overload(AdmissionOptions::default(), 0xAD20);
    let (controlled_p95, controlled_sheds) = overload(
        AdmissionOptions {
            slo_ms: Some(slo_us / 1_000),
            // Queue-wait samples arrive one per pop, i.e. one per
            // *loaded* service time (R plus contention), so the window
            // is sized in units of R, not wall-clock — a fixed-ms window
            // would never hold a sample on a slow machine. One sample is
            // enough to engage: the p95 bound relies on shedding firing
            // on the *first* pop whose wait clears the SLO, before the
            // backlog (whose jobs are already beyond saving) deepens.
            window_slot_ms: (r_us / 1_000).max(50),
            window_slots: 4,
            min_window_samples: 1,
            ..AdmissionOptions::default()
        },
        0xAD30,
    );
    eprintln!(
        "overload: R {r_us}us, slo {slo_us}us, baseline p95 {baseline_p95}us, \
         controlled p95 {controlled_p95}us ({controlled_sheds} SLO sheds)"
    );
    assert!(
        baseline_p95 > 2 * slo_us,
        "uncontrolled 1.3x overload must breach 2x SLO: p95 {baseline_p95}us, slo {slo_us}us"
    );
    assert!(
        controlled_p95 <= 2 * slo_us,
        "admission must hold p95 within 2x SLO: p95 {controlled_p95}us, slo {slo_us}us \
         (baseline was {baseline_p95}us)"
    );
    assert!(
        controlled_sheds > 0,
        "the bound must come from SLO shedding actually engaging"
    );
}
