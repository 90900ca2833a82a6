//! The coordinator daemon: HTTP front end over [`crate::dispatch`].
//!
//! Speaks the same `POST /v1/jobs` / `GET /v1/jobs/{id}` contract as a
//! single `esteem-serve` daemon — `esteem-client submit/fetch` works
//! against either unchanged — plus the sweep API:
//!
//! - `POST /v1/sweeps` accepts `{"jobs":[spec, ..]}` or
//!   `{"base": spec, "grid": {field: [v, ..], ..}}` (expanded row-major,
//!   last axis fastest) and admits every cell atomically.
//! - `GET /v1/sweeps/{id}` reports progress.
//! - `GET /v1/sweeps/{id}/report` streams, once every cell is done, one
//!   pretty-printed report per cell in cell order — byte-identical to
//!   running `esteem-sim --json` per cell on one node.
//!
//! Workers join via `POST /v1/cluster/register` (heartbeat doubles as
//! registration) and leave via `POST /v1/cluster/deregister`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use esteem_serve::http::{Handler, HandlerResult, HttpServer};
use esteem_serve::journal::{self, Journal};
use esteem_serve::JobSpec;
use esteem_stats::{labeled, StatsReading};
use serde::{map_get, Deserialize, Serialize, Value};

use crate::dispatch::{CJobState, Cluster, DispatchOptions};

const VERSION: &str = env!("CARGO_PKG_VERSION");
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Ceiling on cells per sweep: grids multiply fast, and every cell
/// costs a journal record before the 202 goes out.
pub const MAX_SWEEP_CELLS: usize = 100_000;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Bind address; port 0 for ephemeral.
    pub addr: String,
    /// Coordinator journal (`None` disables restart recovery).
    pub journal_path: Option<PathBuf>,
    pub dispatch: DispatchOptions,
    /// How long shutdown waits for open connections.
    pub drain_timeout: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            journal_path: None,
            dispatch: DispatchOptions::default(),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// A running coordinator.
pub struct Coordinator {
    addr: SocketAddr,
    cluster: Arc<Cluster>,
    http: Option<std::thread::JoinHandle<bool>>,
    monitor: Option<std::thread::JoinHandle<()>>,
    http_handle: esteem_serve::http::ServerHandle,
}

impl Coordinator {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dispatch core (tests and the merge tool reach through this).
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Programmatic equivalent of `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }

    /// Blocks until shutdown, then joins dispatchers, monitor, and the
    /// HTTP listener. Returns `true` when connections drained in time.
    pub fn wait(mut self) -> bool {
        self.cluster.wait_shutdown();
        self.cluster.shutdown();
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        self.http_handle.stop();
        match self.http.take() {
            Some(h) => h.join().unwrap_or(false),
            None => true,
        }
    }
}

/// Binds, replays the journal, and starts the monitor + HTTP threads.
pub fn spawn(opts: CoordinatorOptions) -> std::io::Result<Coordinator> {
    let journal = match &opts.journal_path {
        Some(p) => Journal::open(p)?,
        None => Journal::none(),
    };
    let cluster = Cluster::new(opts.dispatch.clone(), journal);
    if let Some(path) = &opts.journal_path {
        let rec = journal::recover(path)?;
        if rec.skipped_lines > 0 {
            eprintln!(
                "esteem-coord: journal {}: skipped {} corrupt line(s) during recovery",
                path.display(),
                rec.skipped_lines
            );
        }
        cluster.restore(rec);
    }
    let handler = make_handler(Arc::clone(&cluster));
    let server = HttpServer::bind(&opts.addr, handler)?;
    let addr = server.local_addr();
    let http_handle = server.handle();
    let drain = opts.drain_timeout;
    let http = std::thread::Builder::new()
        .name("esteem-coord-http".into())
        .spawn(move || server.serve(drain))
        .expect("spawn http thread");
    let mon_cluster = Arc::clone(&cluster);
    let monitor = std::thread::Builder::new()
        .name("esteem-coord-monitor".into())
        .spawn(move || mon_cluster.monitor_loop())
        .expect("spawn monitor thread");
    Ok(Coordinator {
        addr,
        cluster,
        http: Some(http),
        monitor: Some(monitor),
        http_handle,
    })
}

fn json_err(status: u16, msg: &str) -> HandlerResult {
    HandlerResult::Json(
        status,
        serde_json::to_string(&Value::Map(vec![("error".into(), Value::Str(msg.into()))]))
            .expect("serializes"),
    )
}

fn body_map(req_body: &[u8]) -> Result<Vec<(String, Value)>, String> {
    let body = std::str::from_utf8(req_body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON body: {e}"))?;
    v.as_map()
        .map(|m| m.to_vec())
        .ok_or_else(|| "body is not an object".to_owned())
}

/// Expands a sweep request body into its cell specs.
///
/// `{"jobs":[spec, ..]}` is taken verbatim; `{"base": spec, "grid":
/// {field: [v1, v2], ..}}` becomes the cross product in row-major
/// order with the *last* grid axis varying fastest.
fn expand_sweep(m: &[(String, Value)]) -> Result<Vec<JobSpec>, String> {
    if let Ok(jobs) = map_get(m, "jobs") {
        let seq = jobs.as_seq().ok_or("\"jobs\" is not an array")?;
        return seq
            .iter()
            .enumerate()
            .map(|(i, v)| JobSpec::from_value(v).map_err(|e| format!("jobs[{i}]: {e}")))
            .collect();
    }
    let base = map_get(m, "base").map_err(|_| "need \"jobs\" or \"base\"+\"grid\"")?;
    let base = base.as_map().ok_or("\"base\" is not an object")?;
    let grid = map_get(m, "grid").map_err(|_| "need \"grid\" alongside \"base\"")?;
    let grid = grid.as_map().ok_or("\"grid\" is not an object")?;
    let mut axes: Vec<(&str, &[Value])> = Vec::with_capacity(grid.len());
    let mut total = 1usize;
    for (field, vals) in grid {
        let seq = vals
            .as_seq()
            .ok_or_else(|| format!("grid axis \"{field}\" is not an array"))?;
        if seq.is_empty() {
            return Err(format!("grid axis \"{field}\" is empty"));
        }
        total = total.saturating_mul(seq.len());
        axes.push((field.as_str(), seq));
    }
    if total > MAX_SWEEP_CELLS {
        return Err(format!("sweep has {total} cells (max {MAX_SWEEP_CELLS})"));
    }
    let mut specs = Vec::with_capacity(total);
    for i in 0..total {
        let mut cell = base.to_vec();
        // Decompose i with the last axis fastest.
        let mut rem = i;
        for (field, vals) in axes.iter().rev() {
            let v = vals[rem % vals.len()].clone();
            rem /= vals.len();
            match cell.iter_mut().find(|(k, _)| k == field) {
                Some(slot) => slot.1 = v,
                None => cell.push(((*field).to_owned(), v)),
            }
        }
        specs.push(JobSpec::from_value(&Value::Map(cell)).map_err(|e| format!("cell {i}: {e}"))?);
    }
    Ok(specs)
}

fn job_status_body(cluster: &Cluster, id: u64) -> Option<String> {
    cluster.with_job(id, |job| {
        let mut m: Vec<(String, Value)> = vec![
            ("job".into(), job.id.to_value()),
            ("state".into(), Value::Str(job.state.name().into())),
            ("workload".into(), Value::Str(job.spec.workload.clone())),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", job.fingerprint)),
            ),
        ];
        if let Some(sweep) = job.sweep {
            m.push(("sweep".into(), sweep.to_value()));
        }
        match &job.state {
            CJobState::Dispatched { node, .. } => {
                m.push(("node".into(), Value::Str(node.clone())));
            }
            CJobState::Done(pretty) => {
                let result = serde_json::from_str::<Value>(pretty).unwrap_or(Value::Null);
                m.push(("result".into(), result));
            }
            CJobState::Failed(err) => m.push(("error".into(), Value::Str(err.clone()))),
            CJobState::Pending => {}
        }
        serde_json::to_string(&Value::Map(m)).expect("serializes")
    })
}

fn sweep_status_body(cluster: &Cluster, id: u64) -> Option<String> {
    let (s, total) = cluster.sweep_state(id)?;
    let state = if s.failed > 0 {
        "failed"
    } else if s.done == total {
        "done"
    } else {
        "running"
    };
    Some(
        serde_json::to_string(&Value::Map(vec![
            ("sweep".into(), id.to_value()),
            ("state".into(), Value::Str(state.into())),
            ("total".into(), total.to_value()),
            ("done".into(), s.done.to_value()),
            ("failed".into(), s.failed.to_value()),
            (
                "jobs".into(),
                Value::Seq(s.jobs.iter().map(|j| j.to_value()).collect()),
            ),
        ]))
        .expect("serializes"),
    )
}

fn metrics_body(cluster: &Cluster) -> String {
    let mut r = StatsReading::new();
    r.register("cluster", &cluster.counters);
    r.scope("cluster", |s| {
        let (queued, running, done, failed, unassigned) = cluster.job_counts();
        s.gauge("jobs_queued", queued as f64);
        s.gauge("jobs_running", running as f64);
        s.gauge("jobs_done", done as f64);
        s.gauge("jobs_failed", failed as f64);
        s.gauge("jobs_unassigned", unassigned as f64);
        for (name, m) in cluster.members_snapshot() {
            let l = [("node", name.as_str())];
            s.gauge(&labeled("node_alive", &l), if m.alive { 1.0 } else { 0.0 });
            s.gauge(&labeled("node_pending", &l), m.pending as f64);
            s.gauge(&labeled("node_inflight", &l), m.inflight as f64);
            s.gauge(&labeled("node_jobs_done", &l), m.jobs_done as f64);
            s.gauge(&labeled("node_run_p95_us", &l), m.run_p95_us);
        }
        s.counter(&labeled("build_info", &[("version", VERSION)]), 1);
    });
    r.render_text()
}

fn status_body(cluster: &Cluster) -> String {
    let (queued, running, done, failed, unassigned) = cluster.job_counts();
    let workers: Vec<Value> = cluster
        .members_snapshot()
        .into_iter()
        .map(|(name, m)| {
            Value::Map(vec![
                ("node".into(), Value::Str(name)),
                ("addr".into(), Value::Str(m.addr)),
                ("alive".into(), Value::Bool(m.alive)),
                ("draining".into(), Value::Bool(m.draining)),
                ("pending".into(), m.pending.to_value()),
                ("inflight".into(), m.inflight.to_value()),
                ("jobs_done".into(), m.jobs_done.to_value()),
                ("run_p95_us".into(), Value::F64(m.run_p95_us)),
                ("queue_depth".into(), m.queue_depth.to_value()),
                ("last_seen_ms".into(), m.last_seen_ms.to_value()),
            ])
        })
        .collect();
    let sweeps: Vec<Value> = cluster
        .sweep_ids()
        .into_iter()
        .filter_map(|id| {
            let (s, total) = cluster.sweep_state(id)?;
            Some(Value::Map(vec![
                ("sweep".into(), id.to_value()),
                ("total".into(), total.to_value()),
                ("done".into(), s.done.to_value()),
                ("failed".into(), s.failed.to_value()),
            ]))
        })
        .collect();
    let c = &cluster.counters;
    use std::sync::atomic::Ordering::Relaxed;
    let counters = Value::Map(vec![
        (
            "jobs_submitted".into(),
            c.jobs_submitted.load(Relaxed).to_value(),
        ),
        (
            "jobs_dispatched".into(),
            c.jobs_dispatched.load(Relaxed).to_value(),
        ),
        ("jobs_done".into(), c.jobs_done.load(Relaxed).to_value()),
        ("jobs_failed".into(), c.jobs_failed.load(Relaxed).to_value()),
        (
            "jobs_redispatched".into(),
            c.jobs_redispatched.load(Relaxed).to_value(),
        ),
        ("jobs_stolen".into(), c.jobs_stolen.load(Relaxed).to_value()),
        (
            "jobs_cached_on_worker".into(),
            c.jobs_cached_on_worker.load(Relaxed).to_value(),
        ),
        (
            "node_failures".into(),
            c.node_failures.load(Relaxed).to_value(),
        ),
        (
            "registrations".into(),
            c.registrations.load(Relaxed).to_value(),
        ),
        ("heartbeats".into(), c.heartbeats.load(Relaxed).to_value()),
    ]);
    serde_json::to_string(&Value::Map(vec![
        ("version".into(), Value::Str(VERSION.into())),
        ("cluster_role".into(), Value::Str("coordinator".into())),
        (
            "jobs".into(),
            Value::Map(vec![
                ("queued".into(), queued.to_value()),
                ("running".into(), running.to_value()),
                ("done".into(), done.to_value()),
                ("failed".into(), failed.to_value()),
                ("unassigned".into(), unassigned.to_value()),
            ]),
        ),
        ("workers".into(), Value::Seq(workers)),
        ("sweeps".into(), Value::Seq(sweeps)),
        ("counters".into(), counters),
    ]))
    .expect("serializes")
}

fn make_handler(cluster: Arc<Cluster>) -> Handler {
    Arc::new(move |req| {
        let parts: Vec<&str> = req.path.split('/').filter(|p| !p.is_empty()).collect();
        match (req.method.as_str(), parts.as_slice()) {
            ("POST", ["v1", "cluster", "register"]) => {
                let m = match body_map(&req.body) {
                    Ok(m) => m,
                    Err(e) => return json_err(400, &e),
                };
                let (id, addr) = match (
                    map_get(&m, "id").ok().and_then(|v| v.as_str()),
                    map_get(&m, "addr").ok().and_then(|v| v.as_str()),
                ) {
                    (Some(id), Some(addr)) if !id.is_empty() && !addr.is_empty() => (id, addr),
                    _ => return json_err(400, "need non-empty \"id\" and \"addr\""),
                };
                cluster.register(id, addr);
                HandlerResult::Json(200, "{\"ok\":true}".into())
            }
            ("POST", ["v1", "cluster", "deregister"]) => {
                let m = match body_map(&req.body) {
                    Ok(m) => m,
                    Err(e) => return json_err(400, &e),
                };
                match map_get(&m, "id").ok().and_then(|v| v.as_str()) {
                    Some(id) if !id.is_empty() => cluster.deregister(id),
                    _ => return json_err(400, "need non-empty \"id\""),
                }
                HandlerResult::Json(200, "{\"ok\":true}".into())
            }
            ("GET", ["v1", "cluster"]) => {
                let members: Vec<Value> = cluster
                    .members_snapshot()
                    .into_iter()
                    .map(|(name, m)| {
                        Value::Map(vec![
                            ("node".into(), Value::Str(name)),
                            ("addr".into(), Value::Str(m.addr)),
                            ("alive".into(), Value::Bool(m.alive)),
                            ("draining".into(), Value::Bool(m.draining)),
                        ])
                    })
                    .collect();
                HandlerResult::Json(
                    200,
                    serde_json::to_string(&Value::Map(vec![(
                        "members".into(),
                        Value::Seq(members),
                    )]))
                    .expect("serializes"),
                )
            }
            ("POST", ["v1", "jobs"]) => {
                let body = match std::str::from_utf8(&req.body) {
                    Ok(b) => b,
                    Err(_) => return json_err(400, "body is not UTF-8"),
                };
                let spec: JobSpec = match serde_json::from_str(body) {
                    Ok(s) => s,
                    Err(e) => return json_err(400, &format!("bad job spec: {e}")),
                };
                match cluster.submit(spec, None) {
                    Ok(id) => HandlerResult::Json(
                        202,
                        serde_json::to_string(&Value::Map(vec![
                            ("job".into(), id.to_value()),
                            ("coalesced".into(), Value::Bool(false)),
                            ("cached".into(), Value::Bool(false)),
                        ]))
                        .expect("serializes"),
                    ),
                    Err(e) => json_err(e.status, &e.msg),
                }
            }
            ("GET", ["v1", "jobs", id]) => {
                match id
                    .parse::<u64>()
                    .ok()
                    .and_then(|i| job_status_body(&cluster, i))
                {
                    Some(body) => HandlerResult::Json(200, body),
                    None => json_err(404, "no such job"),
                }
            }
            ("POST", ["v1", "sweeps"]) => {
                let m = match body_map(&req.body) {
                    Ok(m) => m,
                    Err(e) => return json_err(400, &e),
                };
                let specs = match expand_sweep(&m) {
                    Ok(s) => s,
                    Err(e) => return json_err(400, &e),
                };
                match cluster.submit_sweep(specs) {
                    Ok((sweep, jobs)) => HandlerResult::Json(
                        202,
                        serde_json::to_string(&Value::Map(vec![
                            ("sweep".into(), sweep.to_value()),
                            ("total".into(), (jobs.len() as u64).to_value()),
                            (
                                "jobs".into(),
                                Value::Seq(jobs.iter().map(|j| j.to_value()).collect()),
                            ),
                        ]))
                        .expect("serializes"),
                    ),
                    Err(e) => json_err(e.status, &e.msg),
                }
            }
            ("GET", ["v1", "sweeps", id]) => {
                match id
                    .parse::<u64>()
                    .ok()
                    .and_then(|i| sweep_status_body(&cluster, i))
                {
                    Some(body) => HandlerResult::Json(200, body),
                    None => json_err(404, "no such sweep"),
                }
            }
            ("GET", ["v1", "sweeps", id, "report"]) => {
                let Some(id) = id.parse::<u64>().ok() else {
                    return json_err(404, "no such sweep");
                };
                let Some((s, total)) = cluster.sweep_state(id) else {
                    return json_err(404, "no such sweep");
                };
                if s.failed > 0 {
                    return json_err(500, &format!("{} of {} cells failed", s.failed, total));
                }
                match cluster.sweep_report(id) {
                    Some(reports) => HandlerResult::Stream(200, Box::new(reports.into_iter())),
                    None => json_err(
                        409,
                        &format!("sweep not finished ({}/{} done)", s.done, total),
                    ),
                }
            }
            ("GET", ["metrics"]) => {
                HandlerResult::Typed(200, METRICS_CONTENT_TYPE, metrics_body(&cluster))
            }
            ("GET", ["v1", "status"]) => HandlerResult::Json(200, status_body(&cluster)),
            ("GET", ["v1", "health"]) => {
                let (queued, running, ..) = cluster.job_counts();
                HandlerResult::Json(
                    200,
                    serde_json::to_string(&Value::Map(vec![
                        ("ok".into(), Value::Bool(true)),
                        ("role".into(), Value::Str("coordinator".into())),
                        ("jobs_queued".into(), queued.to_value()),
                        ("jobs_running".into(), running.to_value()),
                    ]))
                    .expect("serializes"),
                )
            }
            ("POST", ["v1", "shutdown"]) => {
                cluster.request_shutdown();
                HandlerResult::Json(200, "{\"shutting_down\":true}".into())
            }
            ("POST" | "GET", _) => json_err(404, "no such endpoint"),
            _ => json_err(405, "method not allowed"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_map() -> Vec<(String, Value)> {
        vec![
            ("workload".into(), Value::Str("gamess".into())),
            ("instructions".into(), Value::U64(1_000_000)),
        ]
    }

    #[test]
    fn grid_expansion_is_row_major_last_axis_fastest() {
        let m = vec![
            ("base".into(), Value::Map(base_map())),
            (
                "grid".into(),
                Value::Map(vec![
                    (
                        "seed".into(),
                        Value::Seq(vec![Value::U64(1), Value::U64(2)]),
                    ),
                    (
                        "technique".into(),
                        Value::Seq(vec![
                            Value::Str("baseline".into()),
                            Value::Str("esteem".into()),
                            Value::Str("rpv".into()),
                        ]),
                    ),
                ]),
            ),
        ];
        let specs = expand_sweep(&m).unwrap();
        assert_eq!(specs.len(), 6);
        let cells: Vec<(u64, String)> = specs
            .iter()
            .map(|s| (s.seed, s.technique.clone()))
            .collect();
        assert_eq!(
            cells,
            vec![
                (1, "baseline".into()),
                (1, "esteem".into()),
                (1, "rpv".into()),
                (2, "baseline".into()),
                (2, "esteem".into()),
                (2, "rpv".into()),
            ]
        );
    }

    #[test]
    fn explicit_job_list_is_taken_verbatim() {
        let m = vec![(
            "jobs".into(),
            Value::Seq(vec![Value::Map(base_map()), Value::Map(base_map())]),
        )];
        let specs = expand_sweep(&m).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].workload, "gamess");
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let axis: Vec<Value> = (0..400u64).map(Value::U64).collect();
        let m = vec![
            ("base".into(), Value::Map(base_map())),
            (
                "grid".into(),
                Value::Map(vec![
                    ("seed".into(), Value::Seq(axis.clone())),
                    ("interval".into(), Value::Seq(axis)),
                ]),
            ),
        ];
        let err = expand_sweep(&m).unwrap_err();
        assert!(err.contains("160000 cells"), "{err}");
    }

    #[test]
    fn sweep_body_without_jobs_or_base_is_rejected() {
        assert!(expand_sweep(&[]).is_err());
    }
}
