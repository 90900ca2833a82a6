//! Membership and placement: the coordinator's remote [`Runner`].
//!
//! Workers register over HTTP, and the heartbeat *is* the registration.
//! A node is live while its last heartbeat is younger than the timeout
//! and no request to it has failed since. A job goes to the first node,
//! walking the [`HashRing`] clockwise from the job's fingerprint, that is
//! live, is not draining, and runs fewer than ⌈workers / live nodes⌉ of
//! the coordinator's jobs: consistent hashing with bounded loads. A cell
//! therefore lands on the node whose run cache already holds it, unless
//! that node is full or gone.
//!
//! Re-dispatch is safe because the simulator is deterministic: a job is
//! a pure function of its spec, so a job whose node failed can run on
//! the next node with a byte-identical report. The daemon's job table
//! records the one terminal state the runner returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use esteem_core::SimReport;
use esteem_serve::client::{self, RetryPolicy};
use esteem_serve::{Job, JobState, Plane, RunOutcome, Runner};
use esteem_stats::{labeled, Scope};
use serde::{map_get, Deserialize, Serialize, Value};

use crate::ring::HashRing;

/// Virtual nodes per worker on the hash ring.
const VNODES: usize = 64;
/// How often a runner polls its job on a worker, and how often it looks
/// again for a node that can take a job.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Read timeout for coordinator→worker calls: a worker that cannot
/// answer within this counts as failed, and its job moves on.
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest wait a worker's 429 `Retry-After` hint buys.
const MAX_BUSY_WAIT: Duration = Duration::from_secs(10);

/// The fabric's own counters, exported under `cluster/` in `/metrics`.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    pub sweeps_submitted: AtomicU64,
    /// Placements of a job on a worker (re-dispatches included).
    pub jobs_dispatched: AtomicU64,
    /// Jobs moved to the next node after their node failed a request.
    pub jobs_redispatched: AtomicU64,
    /// Dispatches answered from the worker's run cache.
    pub jobs_cached_on_worker: AtomicU64,
    pub node_failures: AtomicU64,
    pub registrations: AtomicU64,
    pub deregistrations: AtomicU64,
    pub heartbeats: AtomicU64,
}

impl ClusterCounters {
    fn fields(&self) -> [(&'static str, u64); 8] {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("sweeps_submitted", get(&self.sweeps_submitted)),
            ("jobs_dispatched", get(&self.jobs_dispatched)),
            ("jobs_redispatched", get(&self.jobs_redispatched)),
            ("jobs_cached_on_worker", get(&self.jobs_cached_on_worker)),
            ("node_failures", get(&self.node_failures)),
            ("registrations", get(&self.registrations)),
            ("deregistrations", get(&self.deregistrations)),
            ("heartbeats", get(&self.heartbeats)),
        ]
    }
}

/// One worker as the coordinator sees it.
#[derive(Debug)]
struct Member {
    addr: String,
    last_seen: Instant,
    /// A request to it failed; cleared by its next heartbeat.
    failed: bool,
    /// Deregistered: its running jobs finish, it gets no new ones.
    draining: bool,
    /// The coordinator's jobs running on it.
    inflight: usize,
    jobs_done: u64,
}

impl Member {
    fn alive(&self, timeout: Duration) -> bool {
        !self.failed && self.last_seen.elapsed() < timeout
    }

    fn eligible(&self, timeout: Duration) -> bool {
        self.alive(timeout) && !self.draining
    }
}

/// One member's externally visible state.
#[derive(Debug, Clone)]
pub struct MemberSnapshot {
    pub addr: String,
    pub alive: bool,
    pub draining: bool,
    pub inflight: u64,
    pub jobs_done: u64,
    pub last_seen_ms: u64,
}

/// Every member ever registered, and the ring over them. Nodes never
/// leave the ring: placement skips the ones that cannot take work, which
/// gives their arcs to the next node clockwise, as removing them would.
struct Members {
    nodes: HashMap<String, Member>,
    ring: HashRing,
    timeout: Duration,
}

impl Members {
    fn live(&self) -> usize {
        self.nodes
            .values()
            .filter(|m| m.eligible(self.timeout))
            .count()
    }

    /// The node for fingerprint `fp`: walking clockwise from its ring
    /// owner, the first live, non-draining node running fewer than
    /// ⌈workers / live nodes⌉ jobs. `None` when no node qualifies.
    fn place(&self, fp: u64, workers: usize) -> Option<&str> {
        let cap = workers.div_ceil(self.live().max(1));
        self.ring.walk(fp).find(|node| {
            self.nodes
                .get(*node)
                .is_some_and(|m| m.eligible(self.timeout) && m.inflight < cap)
        })
    }
}

/// How one placement of a job ended.
enum Attempt {
    Finished(RunOutcome),
    /// The worker answered 429: wait this long, then place again.
    Busy(Duration),
    /// A request to the worker failed: mark it failed, place again.
    NodeDown,
}

/// The coordinator's membership, and the [`Runner`] that runs each of
/// its jobs on a worker.
pub struct Fleet {
    members: Mutex<Members>,
    pub counters: ClusterCounters,
    /// The coordinator's daemon workers: its jobs in flight.
    workers: usize,
}

impl Fleet {
    pub fn new(workers: usize, heartbeat_timeout: Duration) -> Self {
        Self {
            members: Mutex::new(Members {
                nodes: HashMap::new(),
                ring: HashRing::new(VNODES),
                timeout: heartbeat_timeout,
            }),
            counters: ClusterCounters::default(),
            workers: workers.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Members> {
        self.members.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers or heartbeats a worker, and resumes the queue. A beat
    /// from a live member refreshes it; from a new, failed, expired or
    /// draining one it is a (re-)registration.
    pub fn register(&self, plane: &Plane, node: &str, addr: &str) {
        let mut m = self.lock();
        let timeout = m.timeout;
        let counter = match m.nodes.get(node) {
            Some(member) if member.eligible(timeout) => &self.counters.heartbeats,
            _ => &self.counters.registrations,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let member = m.nodes.entry(node.to_owned()).or_insert_with(|| Member {
            addr: String::new(),
            last_seen: Instant::now(),
            failed: false,
            draining: false,
            inflight: 0,
            jobs_done: 0,
        });
        member.addr = addr.to_owned();
        member.last_seen = Instant::now();
        member.failed = false;
        member.draining = false;
        m.ring.add(node);
        // Under the members lock, so it cannot undo a pause that saw
        // this member, nor be undone by one that did not.
        plane.set_paused(false);
    }

    /// Graceful leave: the node's running jobs finish there, and it gets
    /// no new ones until it registers again.
    pub fn deregister(&self, node: &str) {
        if let Some(member) = self.lock().nodes.get_mut(node) {
            if !member.draining {
                member.draining = true;
                self.counters
                    .deregistrations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Members sorted by name.
    pub fn members(&self) -> Vec<(String, MemberSnapshot)> {
        let m = self.lock();
        let mut v: Vec<(String, MemberSnapshot)> = m
            .nodes
            .iter()
            .map(|(name, member)| {
                let snap = MemberSnapshot {
                    addr: member.addr.clone(),
                    alive: member.alive(m.timeout),
                    draining: member.draining,
                    inflight: member.inflight as u64,
                    jobs_done: member.jobs_done,
                    last_seen_ms: member.last_seen.elapsed().as_millis() as u64,
                };
                (name.clone(), snap)
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The `cluster/` names in `/metrics`.
    pub fn metrics(&self, out: &mut Scope<'_>) {
        for (name, value) in self.counters.fields() {
            out.counter(name, value);
        }
        for (name, m) in self.members() {
            let l = [("node", name.as_str())];
            out.gauge(&labeled("node_alive", &l), if m.alive { 1.0 } else { 0.0 });
            out.gauge(&labeled("node_inflight", &l), m.inflight as f64);
            out.gauge(&labeled("node_jobs_done", &l), m.jobs_done as f64);
        }
    }

    /// The counters as a JSON object, for `/v1/status`.
    pub fn counters_value(&self) -> Value {
        Value::Map(
            self.counters
                .fields()
                .into_iter()
                .map(|(name, value)| (name.to_owned(), value.to_value()))
                .collect(),
        )
    }

    /// Places a job and counts it in flight on its node. With no live
    /// node at all it pauses the queue, so queued jobs stay queued until
    /// a worker registers.
    fn claim(&self, plane: &Plane, fp: u64) -> Option<(String, String)> {
        let mut m = self.lock();
        let Some(node) = m.place(fp, self.workers).map(str::to_owned) else {
            if m.live() == 0 {
                plane.set_paused(true);
            }
            return None;
        };
        let member = m.nodes.get_mut(&node)?;
        member.inflight += 1;
        Some((node, member.addr.clone()))
    }

    fn release(&self, node: &str, attempt: &Attempt) {
        let mut m = self.lock();
        let Some(member) = m.nodes.get_mut(node) else {
            return;
        };
        member.inflight = member.inflight.saturating_sub(1);
        match attempt {
            Attempt::Finished(RunOutcome::Done(_) | RunOutcome::Failed(_)) => {
                member.jobs_done += 1;
            }
            Attempt::NodeDown if !member.failed => {
                member.failed = true;
                self.counters.node_failures.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Submits `job` to the worker at `addr` and polls it to a terminal
    /// state.
    fn run_on(&self, plane: &Plane, job: &Job, addr: &str) -> Attempt {
        let submitted = match client::submit_with(
            addr,
            &job.spec,
            &RetryPolicy::none(),
            CONTROL_READ_TIMEOUT,
        ) {
            Ok(r) => r,
            Err(e) if e.starts_with("submit failed (429)") => {
                let hint = client::retry_after_ms_from_error(&e).map(Duration::from_millis);
                return Attempt::Busy(
                    hint.unwrap_or(POLL_INTERVAL)
                        .clamp(POLL_INTERVAL, MAX_BUSY_WAIT),
                );
            }
            Err(_) => return Attempt::NodeDown,
        };
        if submitted.cached {
            self.counters
                .jobs_cached_on_worker
                .fetch_add(1, Ordering::Relaxed);
        }
        loop {
            match client::poll_with(
                addr,
                submitted.job,
                &RetryPolicy::new(2, 100),
                CONTROL_READ_TIMEOUT,
            ) {
                Ok((state, v)) if state == "done" || state == "failed" => {
                    return Attempt::Finished(terminal(&state, &v));
                }
                Ok(_) => {}
                Err(_) => return Attempt::NodeDown,
            }
            if plane.sleep(POLL_INTERVAL) {
                return Attempt::Finished(RunOutcome::Abandoned);
            }
        }
    }
}

/// A worker's terminal `GET /v1/jobs/{id}` body as an outcome. A failure
/// there is final: the simulator is deterministic, so a re-run would
/// fail the same way.
fn terminal(state: &str, v: &Value) -> RunOutcome {
    let field = |key: &str| v.as_map().and_then(|m| map_get(m, key).ok());
    if state == "failed" {
        let err = field("error").and_then(|e| e.as_str());
        return RunOutcome::Failed(err.unwrap_or("unknown error").to_owned());
    }
    match field("result").map(SimReport::from_value) {
        Some(Ok(report)) => RunOutcome::Done(Arc::new(report)),
        Some(Err(e)) => RunOutcome::Failed(format!("worker report does not decode: {e}")),
        None => RunOutcome::Failed("worker answered done without a result".into()),
    }
}

impl Runner for Fleet {
    fn run(&self, plane: &Plane, job: &Job) -> RunOutcome {
        loop {
            if plane.stopping() {
                return RunOutcome::Abandoned;
            }
            let Some((node, addr)) = self.claim(plane, job.fingerprint) else {
                // No node can take it yet: it is not running anywhere.
                job.set_state(JobState::Queued);
                plane.sleep(POLL_INTERVAL);
                continue;
            };
            job.set_state(JobState::Running);
            plane.journal().dispatch(job.id, &node);
            self.counters
                .jobs_dispatched
                .fetch_add(1, Ordering::Relaxed);
            let attempt = self.run_on(plane, job, &addr);
            self.release(&node, &attempt);
            match attempt {
                Attempt::Finished(outcome) => return outcome,
                Attempt::Busy(wait) => {
                    plane.sleep(wait);
                }
                Attempt::NodeDown => {
                    self.counters
                        .jobs_redispatched
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_secs(30);

    fn members(names: &[&str]) -> Members {
        let mut m = Members {
            nodes: HashMap::new(),
            ring: HashRing::new(VNODES),
            timeout: TIMEOUT,
        };
        for name in names {
            m.ring.add(name);
            m.nodes.insert(
                (*name).to_owned(),
                Member {
                    addr: format!("{name}:1"),
                    last_seen: Instant::now(),
                    failed: false,
                    draining: false,
                    inflight: 0,
                    jobs_done: 0,
                },
            );
        }
        m
    }

    fn walk(m: &Members, fp: u64) -> Vec<String> {
        m.ring.walk(fp).map(str::to_owned).collect()
    }

    fn node<'a>(m: &'a mut Members, name: &str) -> &'a mut Member {
        m.nodes.get_mut(name).unwrap()
    }

    #[test]
    fn placement_walks_from_the_owner_past_nodes_that_cannot_take_work() {
        let mut m = members(&["w1", "w2", "w3"]);
        for fp in 0..50u64 {
            let order = walk(&m, fp);
            assert_eq!(m.place(fp, 6).map(str::to_owned), Some(order[0].clone()));
        }
        let fp = 7;
        let order = walk(&m, fp);
        // Dead: its heartbeat is older than the timeout.
        node(&mut m, &order[0]).last_seen = Instant::now() - TIMEOUT;
        assert_eq!(m.place(fp, 6), Some(order[1].as_str()));
        // Failed a request.
        node(&mut m, &order[1]).failed = true;
        assert_eq!(m.place(fp, 6), Some(order[2].as_str()));
        // Back, but draining.
        node(&mut m, &order[0]).last_seen = Instant::now();
        node(&mut m, &order[0]).draining = true;
        assert_eq!(m.place(fp, 6), Some(order[2].as_str()));
        // At cap: two live nodes share 6 workers, 3 each.
        node(&mut m, &order[1]).failed = false;
        node(&mut m, &order[1]).inflight = 3;
        assert_eq!(m.place(fp, 6), Some(order[2].as_str()));
        node(&mut m, &order[2]).inflight = 3;
        assert_eq!(m.place(fp, 6), None, "every live node is full");
        node(&mut m, &order[2]).inflight = 2;
        assert_eq!(m.place(fp, 6), Some(order[2].as_str()));
    }

    #[test]
    fn placement_wraps_around_the_ring() {
        let mut m = members(&["w1", "w2", "w3", "w4"]);
        for name in ["w1", "w2", "w3"] {
            node(&mut m, name).failed = true;
        }
        // Wherever a key's walk starts, the one live node is found,
        // including for keys whose walk passes the end of the ring.
        for fp in 0..200u64 {
            assert_eq!(m.place(fp, 4), Some("w4"));
        }
    }

    #[test]
    fn placement_without_members_is_none() {
        let m = members(&[]);
        assert_eq!(m.place(1, 4), None);
        assert_eq!(m.live(), 0);
    }
}
