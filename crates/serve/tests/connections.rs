//! Connection reuse between the stock client and a real daemon: each
//! client thread keeps one persistent connection per daemon address, the
//! daemon's shutdown closes idle connections at once, and finished jobs
//! answer from their compact records exactly as they did while live.
//!
//! The connection pool is per thread, so every test runs its requests on
//! its own test thread and counts accepted connections off `/metrics`.

use std::time::{Duration, Instant};

use esteem_serve::{client, spawn, JobSpec, ServerOptions};

fn opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        ..ServerOptions::default()
    }
}

/// A spec with a tiny warm-up and a distinct run-cache fingerprint.
fn quick(seed: u64) -> JobSpec {
    JobSpec {
        workload: "gamess".into(),
        instructions: 20_000,
        interval: 5_000,
        warmup: Some(200_000),
        seed,
        ..JobSpec::default()
    }
}

/// The `http/accepted` counter, read on this thread's connection.
fn accepted(addr: &str) -> u64 {
    let text = client::metrics(addr).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("http/accepted "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no http/accepted in:\n{text}"))
}

fn health(addr: &str) -> u16 {
    client::request(addr, "GET", "/v1/health", None).unwrap().0
}

#[test]
fn idle_pooled_connection_does_not_delay_shutdown() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    // Leaves this thread's connection idle in its pool.
    assert_eq!(health(&addr), 200);
    daemon.shutdown();
    let t0 = Instant::now();
    assert!(daemon.wait(), "every connection drains");
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "wait took {waited:?}; the drain timeout is {:?}",
        opts().drain_timeout
    );
}

#[test]
fn sequential_requests_cross_the_per_connection_request_cap() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    for i in 0..1100 {
        assert_eq!(health(&addr), 200, "request {i}");
    }
    // The server closes a connection after 1024 requests and says so in
    // the last response, so the client opens exactly one more.
    assert_eq!(accepted(&addr), 2);
    daemon.shutdown();
    assert!(daemon.wait());
}

#[test]
fn restarted_daemon_is_reached_through_a_stale_pooled_connection() {
    let first = spawn(opts()).unwrap();
    let addr = first.addr().to_string();
    assert_eq!(health(&addr), 200);
    first.shutdown();
    assert!(first.wait());
    // Same address; this thread still holds the first daemon's
    // connection, which that daemon closed on shutdown.
    let second = spawn(ServerOptions {
        addr: addr.clone(),
        ..opts()
    })
    .unwrap();
    assert_eq!(health(&addr), 200);
    assert_eq!(accepted(&addr), 1);
    second.shutdown();
    assert!(second.wait());
}

#[test]
fn submit_events_and_fetch_share_one_connection() {
    let daemon = spawn(opts()).unwrap();
    let addr = daemon.addr().to_string();
    let job = client::submit(&addr, &quick(0xC0_0001)).unwrap().job;
    let mut lines = 0;
    let status =
        client::stream_lines(&addr, &format!("/v1/jobs/{job}/events"), |_| lines += 1).unwrap();
    assert_eq!(status, 200);
    assert!(lines > 0, "a fresh job streams interval samples");
    let (status, body) = client::request(&addr, "GET", &format!("/v1/jobs/{job}"), None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"done\""), "got: {body}");
    assert_eq!(accepted(&addr), 1);
    daemon.shutdown();
    assert!(daemon.wait());
}

fn event_lines(addr: &str, job: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let status = client::stream_lines(addr, &format!("/v1/jobs/{job}/events"), |l| {
        lines.push(l.to_owned())
    })
    .unwrap();
    assert_eq!(status, 200);
    lines
}

fn status_body(addr: &str, job: u64) -> String {
    let (status, body) = client::request(addr, "GET", &format!("/v1/jobs/{job}"), None).unwrap();
    assert_eq!(status, 200);
    body
}

#[test]
fn finished_jobs_answer_as_they_did_while_live() {
    let daemon = spawn(ServerOptions {
        start_paused: true,
        ..opts()
    })
    .unwrap();
    let addr = daemon.addr().to_string();
    let spec = quick(0xC0_0002);
    let fresh = client::submit(&addr, &spec).unwrap();
    assert!(!fresh.cached);
    // Stream the live job's events from another thread while it runs.
    let live = {
        let addr = addr.clone();
        std::thread::spawn(move || event_lines(&addr, fresh.job))
    };
    std::thread::sleep(Duration::from_millis(50));
    daemon.resume();
    let live_lines = live.join().unwrap();
    assert!(!live_lines.is_empty());
    // Finished: the compact record replays the same lines.
    assert_eq!(event_lines(&addr, fresh.job), live_lines);

    let cached = client::submit(&addr, &spec).unwrap();
    assert!(cached.cached);
    assert_eq!(event_lines(&addr, cached.job), Vec::<String>::new());
    // The cached job's status is the fresh job's, but for its id.
    let fresh_body = status_body(&addr, fresh.job);
    let cached_body = status_body(&addr, cached.job);
    assert!(fresh_body.starts_with(&format!("{{\"job\":{},\"state\":\"done\",", fresh.job)));
    assert_eq!(
        cached_body,
        fresh_body.replacen(
            &format!("{{\"job\":{},", fresh.job),
            &format!("{{\"job\":{},", cached.job),
            1
        )
    );
    daemon.shutdown();
    assert!(daemon.wait());
}
