//! Cluster end-to-end tests: a real coordinator and real in-process
//! `esteem-serve` workers on ephemeral ports, driven over real sockets.
//!
//! Each test uses its own seed range so run-cache fingerprints never
//! collide across tests (the run cache is process-global — which is
//! also what makes the coordinator-restart test able to re-materialize
//! reports, exactly as a shared on-disk cache would in a deployment).

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use esteem_cluster::Coordinator;
use esteem_core::Simulator;
use esteem_serve::journal::{recover, RecoveredOutcome};
use esteem_serve::{client, spawn as spawn_worker, ClusterConfig, JobSpec, ServerOptions};
use serde::{map_get, Deserialize, Serialize, Value};

/// A coordinator with 4 jobs in flight across the fleet, as
/// `esteem-coord` runs by default.
fn spawn_coord(journal: Option<PathBuf>) -> Coordinator {
    let opts = ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        journal_path: journal,
        ..ServerOptions::default()
    };
    esteem_cluster::spawn(opts, Duration::from_secs(5)).unwrap()
}

fn worker_opts(coordinator: &str, node_id: &str) -> ServerOptions {
    let mut cfg = ClusterConfig::new(coordinator.to_owned(), node_id.to_owned());
    cfg.heartbeat = Duration::from_millis(100);
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cluster: Some(cfg),
        ..ServerOptions::default()
    }
}

/// A cell with a short warm-up: the default 35 M-cycle warm-up costs
/// seconds per cell in a debug build, and the fabric's behaviour does not
/// depend on it.
fn spec(seed: u64) -> JobSpec {
    JobSpec {
        workload: "gamess".into(),
        instructions: 200_000,
        warmup: Some(200_000),
        seed,
        ..JobSpec::default()
    }
}

/// Polls `f` until it returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_workers_registered(coord: &Coordinator, n: usize) {
    wait_until(
        &format!("{n} worker(s) to register"),
        Duration::from_secs(10),
        || {
            coord
                .fleet
                .members()
                .iter()
                .filter(|(_, m)| m.alive)
                .count()
                >= n
        },
    );
}

/// Submits a sweep body over HTTP; returns (sweep id, total cells).
fn post_sweep(addr: &str, body: &Value) -> (u64, u64) {
    let body = serde_json::to_string(body).unwrap();
    let (status, resp) = client::request(addr, "POST", "/v1/sweeps", Some(&body)).unwrap();
    assert_eq!(status, 202, "sweep rejected: {resp}");
    let v: Value = serde_json::from_str(&resp).unwrap();
    let m = v.as_map().unwrap();
    (
        u64::from_value(map_get(m, "sweep").unwrap()).unwrap(),
        u64::from_value(map_get(m, "total").unwrap()).unwrap(),
    )
}

/// Polls sweep progress until every cell is done (panics on failures).
fn wait_sweep_done(addr: &str, sweep: u64, total: u64, timeout: Duration) {
    wait_until(&format!("sweep {sweep} to finish"), timeout, || {
        let (status, resp) =
            client::request(addr, "GET", &format!("/v1/sweeps/{sweep}"), None).unwrap();
        assert_eq!(status, 200, "{resp}");
        let v: Value = serde_json::from_str(&resp).unwrap();
        let m = v.as_map().unwrap();
        let done = u64::from_value(map_get(m, "done").unwrap()).unwrap();
        let failed = u64::from_value(map_get(m, "failed").unwrap()).unwrap();
        assert_eq!(failed, 0, "sweep cells failed: {resp}");
        done == total
    });
}

/// Streams the merged sweep report and reconstructs its exact bytes.
fn fetch_report(addr: &str, sweep: u64) -> String {
    let mut out = String::new();
    let status = client::stream_lines(addr, &format!("/v1/sweeps/{sweep}/report"), |line| {
        out.push_str(line);
        out.push('\n');
    })
    .unwrap();
    assert_eq!(status, 200, "report not ready");
    out
}

/// The single-node ground truth: run every cell directly through the
/// simulator and print with the `esteem-sim --json` serializer.
fn baseline_report(cells: &[JobSpec]) -> String {
    let mut out = String::new();
    for spec in cells {
        let r = spec.resolve().unwrap();
        let report = Simulator::new(r.cfg, &r.profiles, &r.label).run();
        out.push_str(&serde_json::to_string_pretty(&report.to_value()).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn sweep_across_two_workers_is_byte_identical_to_single_node() {
    let coord = spawn_coord(None);
    let coord_addr = coord.daemon.addr().to_string();
    let w1 = spawn_worker(worker_opts(&coord_addr, "w1")).unwrap();
    let w2 = spawn_worker(worker_opts(&coord_addr, "w2")).unwrap();
    wait_workers_registered(&coord, 2);

    // 16 cells: 8 seeds x 2 techniques, expanded row-major with the
    // last axis (technique) fastest.
    let seeds: Vec<u64> = (0xC101..0xC109).collect();
    let techniques = ["baseline", "esteem"];
    let body = Value::Map(vec![
        ("base".into(), spec(0).to_value()),
        (
            "grid".into(),
            Value::Map(vec![
                (
                    "seed".into(),
                    Value::Seq(seeds.iter().map(|s| s.to_value()).collect()),
                ),
                (
                    "technique".into(),
                    Value::Seq(techniques.iter().map(|t| Value::Str((*t).into())).collect()),
                ),
            ]),
        ),
    ]);
    let (sweep, total) = post_sweep(&coord_addr, &body);
    assert_eq!(total, 16);
    wait_sweep_done(&coord_addr, sweep, total, Duration::from_secs(120));

    let merged = fetch_report(&coord_addr, sweep);
    let cells: Vec<JobSpec> = seeds
        .iter()
        .flat_map(|&seed| {
            techniques.iter().map(move |t| JobSpec {
                seed,
                technique: (*t).into(),
                ..spec(0)
            })
        })
        .collect();
    assert_eq!(
        merged,
        baseline_report(&cells),
        "merged sweep report must be byte-identical to the single-node run"
    );

    // The sweep really sharded: both workers executed cells.
    let members = coord.fleet.members();
    for (name, m) in &members {
        assert!(
            m.jobs_done >= 1,
            "worker {name} executed no cells: {members:?}"
        );
    }

    w1.shutdown();
    w1.wait();
    w2.shutdown();
    w2.wait();
    coord.daemon.shutdown();
    coord.daemon.wait();
}

#[test]
fn killing_a_worker_mid_sweep_redispatches_with_no_lost_or_duplicate_jobs() {
    let coord = spawn_coord(None);
    let coord_addr = coord.daemon.addr().to_string();
    let w1 = spawn_worker(worker_opts(&coord_addr, "w1")).unwrap();
    wait_workers_registered(&coord, 1);

    // A "dead" worker: a bound-then-dropped listener gives an address
    // that refuses connections — the same observable behavior as a
    // SIGKILLed worker process.
    let ghost_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let reg = format!("{{\"id\":\"ghost\",\"addr\":\"{ghost_addr}\"}}");
    let (status, _) =
        client::request(&coord_addr, "POST", "/v1/cluster/register", Some(&reg)).unwrap();
    assert_eq!(status, 200);
    wait_workers_registered(&coord, 2);

    let cells: Vec<Value> = (0xC201..0xC209u64).map(|s| spec(s).to_value()).collect();
    let body = Value::Map(vec![("jobs".into(), Value::Seq(cells.clone()))]);
    let (sweep, total) = post_sweep(&coord_addr, &body);
    assert_eq!(total, 8);
    // Completes despite roughly half the cells sharding to the dead
    // node: its dispatchers hit connection-refused and re-home the work.
    wait_sweep_done(&coord_addr, sweep, total, Duration::from_secs(120));

    let c = &coord.fleet.counters;
    assert!(
        c.node_failures.load(Relaxed) >= 1,
        "dead worker was never declared failed"
    );
    assert!(
        c.jobs_redispatched.load(Relaxed) >= 1,
        "no job was re-dispatched off the dead worker"
    );
    // Zero lost, zero duplicated: every cell done exactly once.
    let served = coord.daemon.counters();
    assert_eq!(served.completed.load(Relaxed), total);
    assert_eq!(served.failed.load(Relaxed), 0);

    // And the merged report still matches the single-node ground truth.
    let merged = fetch_report(&coord_addr, sweep);
    let specs: Vec<JobSpec> = (0xC201..0xC209u64).map(spec).collect();
    assert_eq!(merged, baseline_report(&specs));

    w1.shutdown();
    w1.wait();
    coord.daemon.shutdown();
    coord.daemon.wait();
}

#[test]
fn resubmitted_cell_is_answered_from_the_coordinators_run_cache() {
    let coord = spawn_coord(None);
    let coord_addr = coord.daemon.addr().to_string();
    let w1 = spawn_worker(worker_opts(&coord_addr, "w1")).unwrap();
    wait_workers_registered(&coord, 1);

    let s = spec(0xC301);
    let first = client::submit(&coord_addr, &s).unwrap();
    assert!(!first.cached);
    let a = client::fetch(&coord_addr, first.job, Duration::from_millis(20)).unwrap();

    // The coordinator published the worker's report in its run cache
    // (shared in-process with the worker's): the resubmission is born
    // done there and never reaches the worker.
    let again = client::submit(&coord_addr, &s).unwrap();
    assert!(again.cached, "resubmission must be a coordinator cache hit");
    assert_ne!(again.job, first.job);
    let b = client::fetch(&coord_addr, again.job, Duration::from_millis(20)).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap()
    );
    let worker = w1.counters();
    assert_eq!(worker.submitted.load(Relaxed), 1, "the worker saw one job");
    assert_eq!(
        worker.completed.load(Relaxed),
        1,
        "the worker ran the cell once"
    );
    let (status, text) = client::request(&coord_addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        text.contains("serve/jobs_cached 1"),
        "cache hit missing from /metrics:\n{text}"
    );

    w1.shutdown();
    w1.wait();
    coord.daemon.shutdown();
    coord.daemon.wait();
}

#[test]
fn coordinator_restart_reconstructs_cluster_state_from_its_journal() {
    let dir = std::env::temp_dir().join(format!("esteem-cluster-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("coord.jsonl");

    let specs: Vec<JobSpec> = (0xC401..0xC405u64).map(spec).collect();
    let (sweep, total, merged_before) = {
        let coord = spawn_coord(Some(journal.clone()));
        let coord_addr = coord.daemon.addr().to_string();
        let w1 = spawn_worker(worker_opts(&coord_addr, "w1")).unwrap();
        wait_workers_registered(&coord, 1);
        let body = Value::Map(vec![(
            "jobs".into(),
            Value::Seq(specs.iter().map(|s| s.to_value()).collect()),
        )]);
        let (sweep, total) = post_sweep(&coord_addr, &body);
        wait_sweep_done(&coord_addr, sweep, total, Duration::from_secs(120));
        let merged = fetch_report(&coord_addr, sweep);
        w1.shutdown();
        w1.wait();
        coord.daemon.shutdown();
        coord.daemon.wait();
        (sweep, total, merged)
    };

    // Restarted coordinator, same journal, no workers at all: finished
    // work is already recoverable (reports re-materialize by
    // fingerprint), and the merged report is byte-identical.
    let coord = spawn_coord(Some(journal.clone()));
    let coord_addr = coord.daemon.addr().to_string();
    let (status, resp) =
        client::request(&coord_addr, "GET", &format!("/v1/sweeps/{sweep}"), None).unwrap();
    assert_eq!(status, 200, "sweep lost across restart: {resp}");
    let v: Value = serde_json::from_str(&resp).unwrap();
    let m = v.as_map().unwrap();
    assert_eq!(
        u64::from_value(map_get(m, "done").unwrap()).unwrap(),
        total,
        "restored sweep lost progress: {resp}"
    );
    assert_eq!(fetch_report(&coord_addr, sweep), merged_before);

    // Job id allocation resumes above the journal's high-water mark:
    // a new submission must not collide with a recovered job.
    let new = client::submit(&coord_addr, &spec(0xC4FF)).unwrap();
    assert!(new.job > total, "job id {} reused", new.job);
    let (state, _) = client::poll(&coord_addr, new.job).unwrap();
    assert_eq!(state, "queued", "no workers: the new job must queue");

    coord.daemon.shutdown();
    coord.daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registration_lifecycle_is_visible_on_both_sides() {
    let coord = spawn_coord(None);
    let coord_addr = coord.daemon.addr().to_string();
    let w = spawn_worker(worker_opts(&coord_addr, "wlife")).unwrap();
    let worker_addr = w.addr().to_string();
    wait_workers_registered(&coord, 1);

    // Worker side: /v1/status carries the cluster section.
    wait_until(
        "worker to report registered",
        Duration::from_secs(10),
        || {
            let (status, resp) = client::request(&worker_addr, "GET", "/v1/status", None).unwrap();
            assert_eq!(status, 200);
            let v: Value = serde_json::from_str(&resp).unwrap();
            let Some(cluster) = v.as_map().and_then(|m| map_get(m, "cluster").ok()) else {
                return false;
            };
            let cm = cluster.as_map().unwrap();
            assert_eq!(map_get(cm, "role").unwrap().as_str(), Some("worker"));
            assert_eq!(map_get(cm, "node_id").unwrap().as_str(), Some("wlife"));
            map_get(cm, "registered").unwrap() == &Value::Bool(true)
        },
    );

    // Coordinator side: membership endpoint and labeled node metrics.
    let (status, resp) = client::request(&coord_addr, "GET", "/v1/cluster", None).unwrap();
    assert_eq!(status, 200);
    assert!(resp.contains("\"wlife\""), "member missing: {resp}");
    let (_, metrics) = client::request(&coord_addr, "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("cluster/node_alive{node=\"wlife\"} 1"),
        "alive gauge missing:\n{metrics}"
    );
    assert!(metrics.contains("cluster/registrations 1"), "{metrics}");
    // The first register counts as a registration; the next beat (one
    // heartbeat interval later) lands in the heartbeat counter.
    wait_until("a heartbeat to land", Duration::from_secs(10), || {
        coord.fleet.counters.heartbeats.load(Relaxed) >= 1
    });

    // Graceful worker shutdown deregisters: the node drains instead of
    // being declared failed.
    w.shutdown();
    w.wait();
    wait_until("worker to deregister", Duration::from_secs(10), || {
        coord
            .fleet
            .members()
            .iter()
            .any(|(n, m)| n == "wlife" && (m.draining || !m.alive))
    });
    assert_eq!(coord.fleet.counters.deregistrations.load(Relaxed), 1);
    assert_eq!(
        coord.fleet.counters.node_failures.load(Relaxed),
        0,
        "graceful leave must not count as a node failure"
    );

    coord.daemon.shutdown();
    coord.daemon.wait();
}

#[test]
fn with_no_live_worker_a_job_stays_queued_and_shutdown_does_not_wait_for_one() {
    let dir = std::env::temp_dir().join(format!("esteem-cluster-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("coord.jsonl");

    let coord = spawn_coord(Some(journal.clone()));
    let coord_addr = coord.daemon.addr().to_string();
    let job = client::submit(&coord_addr, &spec(0xC501)).unwrap().job;
    std::thread::sleep(Duration::from_millis(200));
    let (state, _) = client::poll(&coord_addr, job).unwrap();
    assert_eq!(state, "queued");

    let t0 = Instant::now();
    coord.daemon.shutdown();
    assert!(coord.daemon.wait());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown waited {:?} for a worker",
        t0.elapsed()
    );

    let rec = recover(&journal).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rec.jobs.len(), 1);
    assert_eq!(rec.jobs[0].id, job);
    assert_eq!(rec.jobs[0].outcome, RecoveredOutcome::Unfinished);
}
