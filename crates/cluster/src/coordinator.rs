//! The coordinator: a stock `esteem-serve` daemon whose jobs run on
//! remote workers.
//!
//! [`spawn`] starts [`esteem_serve::server`] with the [`Fleet`] as its
//! runner, so the job table, submit path, `/v1/jobs`, `/v1/status`,
//! `/metrics`, health, shutdown, the flight recorder and journal
//! recovery are the daemon's own. On top come the fabric's routes:
//!
//! - `POST /v1/cluster/register` (the heartbeat) and
//!   `POST /v1/cluster/deregister`; `GET /v1/cluster` lists members.
//! - `POST /v1/sweeps` accepts `{"jobs":[spec, ..]}` or
//!   `{"base": spec, "grid": {field: [v, ..], ..}}` (expanded row-major,
//!   last axis fastest). Every cell must resolve before any is
//!   submitted; the cells then go through the daemon's submit path and
//!   queue past its capacity cap.
//! - `GET /v1/sweeps/{id}` reports progress, read from the cells' job
//!   states.
//! - `GET /v1/sweeps/{id}/report` streams, once every cell is done, one
//!   pretty-printed report per cell in cell order — byte-identical to
//!   running `esteem-sim --json` per cell on one node.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use esteem_serve::http::{HandlerResult, Request};
use esteem_serve::journal::Recovery;
use esteem_serve::server::spawn_with;
use esteem_serve::{ClusterHook, Daemon, JobSpec, JobState, Plane, ServerOptions};
use esteem_stats::Scope;
use serde::{map_get, Deserialize, Serialize, Value};

use crate::fleet::Fleet;

/// Ceiling on cells per sweep: grids multiply fast, and every cell
/// costs a journal record before the 202 goes out.
pub const MAX_SWEEP_CELLS: usize = 100_000;

/// A running coordinator: the daemon, and the fleet its jobs run on.
pub struct Coordinator {
    pub daemon: Daemon,
    pub fleet: Arc<Fleet>,
}

/// Starts a coordinator daemon with `opts`. Its `workers` bound the jobs
/// in flight across the fleet; a worker whose last heartbeat is older
/// than `heartbeat_timeout` gets no new jobs. The queue starts paused and
/// resumes when a worker registers.
pub fn spawn(opts: ServerOptions, heartbeat_timeout: Duration) -> std::io::Result<Coordinator> {
    let fleet = Arc::new(Fleet::new(opts.workers, heartbeat_timeout));
    let fabric = Arc::new(Fabric {
        fleet: Arc::clone(&fleet),
        sweeps: Mutex::new(HashMap::new()),
        next_sweep: AtomicU64::new(0),
    });
    let opts = ServerOptions {
        start_paused: true,
        cluster: None,
        ..opts
    };
    let daemon = spawn_with(opts, Arc::clone(&fleet) as _, Some(fabric))?;
    Ok(Coordinator { daemon, fleet })
}

/// The coordinator's [`ClusterHook`]: membership and sweep routes, and
/// the `cluster` block of status and metrics.
struct Fabric {
    fleet: Arc<Fleet>,
    /// Sweep id -> its cells' job ids, in cell order.
    sweeps: Mutex<HashMap<u64, Vec<u64>>>,
    next_sweep: AtomicU64,
}

/// A sweep's cells by state.
struct Progress {
    total: u64,
    done: u64,
    failed: u64,
}

impl Fabric {
    fn cells(&self, sweep: u64) -> Option<Vec<u64>> {
        self.sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&sweep)
            .cloned()
    }

    fn progress(plane: &Plane, cells: &[u64]) -> Progress {
        let mut p = Progress {
            total: cells.len() as u64,
            done: 0,
            failed: 0,
        };
        for &id in cells {
            match plane.job_state(id) {
                Some(JobState::Done(_)) => p.done += 1,
                Some(JobState::Failed(_)) => p.failed += 1,
                _ => {}
            }
        }
        p
    }

    fn post_sweep(&self, plane: &Plane, body: &[u8]) -> HandlerResult {
        let specs = match body_map(body).and_then(|m| expand_sweep(&m)) {
            Ok(specs) if specs.is_empty() => return json_err(400, "sweep has no cells"),
            Ok(specs) => specs,
            Err(e) => return json_err(400, &e),
        };
        for (i, spec) in specs.iter().enumerate() {
            if let Err(e) = spec.resolve() {
                return json_err(400, &format!("cell {i}: {e}"));
            }
        }
        let sweep = self.next_sweep.fetch_add(1, Ordering::Relaxed) + 1;
        let mut jobs = Vec::with_capacity(specs.len());
        for spec in specs {
            match plane.submit(spec, Some(sweep)) {
                Ok(id) => jobs.push(id),
                Err((status, msg)) => return json_err(status, &msg),
            }
        }
        plane.journal().sweep(sweep, &jobs);
        self.fleet
            .counters
            .sweeps_submitted
            .fetch_add(1, Ordering::Relaxed);
        let body = Value::Map(vec![
            ("sweep".into(), sweep.to_value()),
            ("total".into(), (jobs.len() as u64).to_value()),
            (
                "jobs".into(),
                Value::Seq(jobs.iter().map(|j| j.to_value()).collect()),
            ),
        ]);
        self.sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sweep, jobs);
        HandlerResult::Json(202, serde_json::to_string(&body).expect("serializes"))
    }

    fn sweep_status(plane: &Plane, sweep: u64, cells: &[u64]) -> HandlerResult {
        let p = Self::progress(plane, cells);
        let state = if p.failed > 0 {
            "failed"
        } else if p.done == p.total {
            "done"
        } else {
            "running"
        };
        let body = Value::Map(vec![
            ("sweep".into(), sweep.to_value()),
            ("state".into(), Value::Str(state.into())),
            ("total".into(), p.total.to_value()),
            ("done".into(), p.done.to_value()),
            ("failed".into(), p.failed.to_value()),
            (
                "jobs".into(),
                Value::Seq(cells.iter().map(|j| j.to_value()).collect()),
            ),
        ]);
        HandlerResult::Json(200, serde_json::to_string(&body).expect("serializes"))
    }

    fn sweep_report(plane: &Plane, cells: &[u64]) -> HandlerResult {
        let p = Self::progress(plane, cells);
        if p.failed > 0 {
            return json_err(500, &format!("{} of {} cells failed", p.failed, p.total));
        }
        let mut reports = Vec::with_capacity(cells.len());
        for &id in cells {
            let Some(JobState::Done(report)) = plane.job_state(id) else {
                let msg = format!("sweep not finished ({}/{} done)", p.done, p.total);
                return json_err(409, &msg);
            };
            reports.push(serde_json::to_string_pretty(&report.to_value()).expect("serializes"));
        }
        HandlerResult::Stream(200, Box::new(reports.into_iter()))
    }

    fn members_value(&self) -> Value {
        let members = self.fleet.members().into_iter().map(|(name, m)| {
            Value::Map(vec![
                ("node".into(), Value::Str(name)),
                ("addr".into(), Value::Str(m.addr)),
                ("alive".into(), Value::Bool(m.alive)),
                ("draining".into(), Value::Bool(m.draining)),
                ("inflight".into(), m.inflight.to_value()),
                ("jobs_done".into(), m.jobs_done.to_value()),
                ("last_seen_ms".into(), m.last_seen_ms.to_value()),
            ])
        });
        Value::Seq(members.collect())
    }
}

impl ClusterHook for Fabric {
    fn status_value(&self, plane: &Plane) -> Value {
        let mut sweeps: Vec<(u64, Vec<u64>)> = self
            .sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(id, cells)| (*id, cells.clone()))
            .collect();
        sweeps.sort_unstable_by_key(|(id, _)| *id);
        let sweeps = sweeps.into_iter().map(|(id, cells)| {
            let p = Self::progress(plane, &cells);
            Value::Map(vec![
                ("sweep".into(), id.to_value()),
                ("total".into(), p.total.to_value()),
                ("done".into(), p.done.to_value()),
                ("failed".into(), p.failed.to_value()),
            ])
        });
        Value::Map(vec![
            ("role".into(), Value::Str("coordinator".into())),
            ("members".into(), self.members_value()),
            ("sweeps".into(), Value::Seq(sweeps.collect())),
            ("counters".into(), self.fleet.counters_value()),
        ])
    }

    fn metrics(&self, out: &mut Scope<'_>) {
        self.fleet.metrics(out);
    }

    fn route(&self, plane: &Plane, req: &Request) -> Option<HandlerResult> {
        let parts: Vec<&str> = req.path.split('/').filter(|p| !p.is_empty()).collect();
        let sweep = |id: &str| {
            let id = id.parse::<u64>().ok()?;
            Some((id, self.cells(id)?))
        };
        Some(match (req.method.as_str(), parts.as_slice()) {
            ("POST", ["v1", "cluster", "register"]) => {
                let m = match body_map(&req.body) {
                    Ok(m) => m,
                    Err(e) => return Some(json_err(400, &e)),
                };
                let field = |k: &str| map_get(&m, k).ok().and_then(|v| v.as_str());
                match (field("id"), field("addr")) {
                    (Some(id), Some(addr)) if !id.is_empty() && !addr.is_empty() => {
                        self.fleet.register(plane, id, addr);
                        HandlerResult::Json(200, "{\"ok\":true}".into())
                    }
                    _ => json_err(400, "need non-empty \"id\" and \"addr\""),
                }
            }
            ("POST", ["v1", "cluster", "deregister"]) => {
                let m = match body_map(&req.body) {
                    Ok(m) => m,
                    Err(e) => return Some(json_err(400, &e)),
                };
                match map_get(&m, "id").ok().and_then(|v| v.as_str()) {
                    Some(id) if !id.is_empty() => {
                        self.fleet.deregister(id);
                        HandlerResult::Json(200, "{\"ok\":true}".into())
                    }
                    _ => json_err(400, "need non-empty \"id\""),
                }
            }
            ("GET", ["v1", "cluster"]) => {
                let body = Value::Map(vec![("members".into(), self.members_value())]);
                HandlerResult::Json(200, serde_json::to_string(&body).expect("serializes"))
            }
            ("POST", ["v1", "sweeps"]) => self.post_sweep(plane, &req.body),
            ("GET", ["v1", "sweeps", id]) => match sweep(id) {
                Some((id, cells)) => Self::sweep_status(plane, id, &cells),
                None => json_err(404, "no such sweep"),
            },
            ("GET", ["v1", "sweeps", id, "report"]) => match sweep(id) {
                Some((_, cells)) => Self::sweep_report(plane, &cells),
                None => json_err(404, "no such sweep"),
            },
            _ => return None,
        })
    }

    fn recovered(&self, rec: &Recovery) {
        self.next_sweep.store(rec.max_sweep_id, Ordering::Relaxed);
        self.sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(rec.sweeps.iter().cloned());
    }
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
