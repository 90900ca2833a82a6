//! Membership, sharding, and dispatch: the coordinator's core state
//! machine.
//!
//! Jobs shard to workers by run-cache fingerprint over a consistent
//! [`HashRing`], so identical sweep cells always land on the node that
//! already has them cached. Per-node dispatcher threads push work to
//! their worker over the plain `POST /v1/jobs` API and poll it to
//! completion; an idle dispatcher steals queued (not yet dispatched)
//! work from the node with the deepest backlog, weighted by that
//! node's `run_us` p95 from its `/v1/status` stage histograms — the
//! straggler signal.
//!
//! Safety argument for re-dispatch: the simulator is deterministic, so
//! a job is a pure function of its spec. A job on a node that died (or
//! merely looks dead) can be re-run anywhere with byte-identical
//! results; the only hazard is double-*accounting*, which a
//! first-terminal-transition-wins rule on the coordinator prevents.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use esteem_harness::runcache;
use esteem_serve::client::{self, RetryPolicy};
use esteem_serve::journal::{Journal, RecoveredOutcome, Recovery};
use esteem_serve::JobSpec;
use esteem_stats::{Scope, StatsSource};
use serde::{Serialize, Value};

use crate::ring::HashRing;

/// Read timeout for coordinator→worker control calls. Short: a worker
/// that cannot answer within this is straggling badly enough to treat
/// as suspect, and re-dispatch is always safe.
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Floor for the straggler signal so nodes with no samples yet still
/// rank by backlog depth.
const P95_FLOOR_US: f64 = 1_000.0;

/// Tuning knobs for the dispatcher (defaults are sized for localhost
/// clusters and the test suite; production sweeps mostly care about
/// `workers_per_node`).
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// A worker silent (no heartbeat, no status reply) longer than this
    /// is declared dead and its jobs re-dispatched.
    pub heartbeat_timeout: Duration,
    /// How often the monitor polls worker `/v1/status` for liveness and
    /// the straggler signal.
    pub monitor_interval: Duration,
    /// Dispatcher threads (= max in-flight jobs) per worker node.
    pub workers_per_node: usize,
    /// Minimum queued backlog on a victim before an idle node steals.
    pub steal_min_backlog: usize,
    /// Retry policy for coordinator→worker submits/polls.
    pub retry: RetryPolicy,
    /// Poll interval while waiting on a dispatched job.
    pub poll_interval: Duration,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            vnodes: 64,
            heartbeat_timeout: Duration::from_secs(5),
            monitor_interval: Duration::from_millis(500),
            workers_per_node: 2,
            steal_min_backlog: 2,
            retry: RetryPolicy::new(2, 100),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// Cluster-level counters, exported under `cluster/` in `/metrics`.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    pub jobs_submitted: AtomicU64,
    pub sweeps_submitted: AtomicU64,
    pub jobs_dispatched: AtomicU64,
    pub jobs_done: AtomicU64,
    pub jobs_failed: AtomicU64,
    /// Jobs re-dispatched off a dead or suspect node.
    pub jobs_redispatched: AtomicU64,
    /// Jobs an idle node stole from a straggler's queue.
    pub jobs_stolen: AtomicU64,
    /// Dispatches answered from the owning worker's run cache.
    pub jobs_cached_on_worker: AtomicU64,
    pub node_failures: AtomicU64,
    pub registrations: AtomicU64,
    pub deregistrations: AtomicU64,
    pub heartbeats: AtomicU64,
    pub journal_skipped: AtomicU64,
}

impl StatsSource for ClusterCounters {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter(
            "jobs_submitted",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        out.counter(
            "sweeps_submitted",
            self.sweeps_submitted.load(Ordering::Relaxed),
        );
        out.counter(
            "jobs_dispatched",
            self.jobs_dispatched.load(Ordering::Relaxed),
        );
        out.counter("jobs_done", self.jobs_done.load(Ordering::Relaxed));
        out.counter("jobs_failed", self.jobs_failed.load(Ordering::Relaxed));
        out.counter(
            "jobs_redispatched",
            self.jobs_redispatched.load(Ordering::Relaxed),
        );
        out.counter("jobs_stolen", self.jobs_stolen.load(Ordering::Relaxed));
        out.counter(
            "jobs_cached_on_worker",
            self.jobs_cached_on_worker.load(Ordering::Relaxed),
        );
        out.counter("node_failures", self.node_failures.load(Ordering::Relaxed));
        out.counter("registrations", self.registrations.load(Ordering::Relaxed));
        out.counter(
            "deregistrations",
            self.deregistrations.load(Ordering::Relaxed),
        );
        out.counter("heartbeats", self.heartbeats.load(Ordering::Relaxed));
        out.counter(
            "journal_skipped_lines",
            self.journal_skipped.load(Ordering::Relaxed),
        );
    }
}

/// Lifecycle of a coordinator job.
#[derive(Debug, Clone, PartialEq)]
pub enum CJobState {
    /// Queued on some node's pending list (or unassigned).
    Pending,
    /// Claimed by a dispatcher thread; `token` uniquely identifies the
    /// claim so a stale completion (from before a re-dispatch) cannot
    /// double-account.
    Dispatched {
        node: String,
        token: u64,
    },
    /// Finished: the pretty-printed report JSON, exactly as
    /// `esteem-sim --json` prints it.
    Done(String),
    Failed(String),
}

impl CJobState {
    pub fn name(&self) -> &'static str {
        match self {
            CJobState::Pending => "queued",
            CJobState::Dispatched { .. } => "running",
            CJobState::Done(_) => "done",
            CJobState::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, CJobState::Done(_) | CJobState::Failed(_))
    }
}

#[derive(Debug)]
pub struct CJob {
    pub id: u64,
    pub spec: JobSpec,
    pub fingerprint: u64,
    pub sweep: Option<u64>,
    pub state: CJobState,
}

#[derive(Debug, Default, Clone)]
pub struct SweepState {
    /// Member jobs in cell order (the report streams in this order).
    pub jobs: Vec<u64>,
    pub done: u64,
    pub failed: u64,
}

/// One worker as the coordinator sees it.
#[derive(Debug)]
pub struct Member {
    pub addr: String,
    pub alive: bool,
    /// Draining: deregistered gracefully; in-flight jobs finish but no
    /// new work is claimed for it.
    pub draining: bool,
    /// Bumped on every (re-)registration and node failure; dispatcher
    /// threads from older generations exit.
    pub generation: u64,
    pub last_seen: Instant,
    /// Jobs currently claimed by this node's dispatcher threads.
    pub inflight: usize,
    pub jobs_done: u64,
    /// Straggler signal: the worker's `run_us` p95 from `/v1/status`.
    pub run_p95_us: f64,
    /// The worker's own queue depth from `/v1/status`.
    pub queue_depth: u64,
}

struct Inner {
    members: HashMap<String, Member>,
    ring: HashRing,
    jobs: HashMap<u64, CJob>,
    sweeps: HashMap<u64, SweepState>,
    /// Per-node queues of Pending job ids (front = next to run).
    pending: HashMap<String, VecDeque<u64>>,
    /// Pending jobs with no live node to own them.
    unassigned: VecDeque<u64>,
    shutdown: bool,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// The coordinator's core: membership + sharding + dispatch state.
pub struct Cluster {
    inner: Mutex<Inner>,
    /// Notified on new work, membership changes, completions, shutdown.
    work: Condvar,
    pub counters: ClusterCounters,
    journal: Journal,
    opts: DispatchOptions,
    next_job: AtomicU64,
    next_sweep: AtomicU64,
    next_token: AtomicU64,
}

/// Errors surfaced to the HTTP layer.
#[derive(Debug, PartialEq, Eq)]
pub struct SubmitError {
    pub status: u16,
    pub msg: String,
}

impl Cluster {
    pub fn new(opts: DispatchOptions, journal: Journal) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(Inner {
                members: HashMap::new(),
                ring: HashRing::new(opts.vnodes),
                jobs: HashMap::new(),
                sweeps: HashMap::new(),
                pending: HashMap::new(),
                unassigned: VecDeque::new(),
                shutdown: false,
                threads: Vec::new(),
            }),
            work: Condvar::new(),
            counters: ClusterCounters::default(),
            journal,
            opts,
            next_job: AtomicU64::new(0),
            next_sweep: AtomicU64::new(0),
            next_token: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Rebuilds dispatch state from a replayed journal (coordinator
    /// restart). Done jobs re-materialize their report bytes from the
    /// process-global run cache; evicted ones re-dispatch (safe:
    /// deterministic).
    pub fn restore(self: &Arc<Self>, rec: Recovery) {
        self.next_job.store(rec.max_id, Ordering::Relaxed);
        self.next_sweep.store(rec.max_sweep_id, Ordering::Relaxed);
        self.counters
            .journal_skipped
            .fetch_add(rec.skipped_lines, Ordering::Relaxed);
        let mut inner = self.lock();
        for (id, jobs) in rec.sweeps {
            inner.sweeps.insert(
                id,
                SweepState {
                    jobs,
                    done: 0,
                    failed: 0,
                },
            );
        }
        for r in rec.jobs {
            let state = match r.outcome {
                RecoveredOutcome::Done => match runcache::lookup(r.fingerprint) {
                    Some(report) => CJobState::Done(
                        serde_json::to_string_pretty(&report.to_value()).expect("serializes"),
                    ),
                    None => CJobState::Pending,
                },
                RecoveredOutcome::Failed(err) => CJobState::Failed(err),
                RecoveredOutcome::Unfinished => CJobState::Pending,
            };
            if let (Some(sweep_id), true) = (r.sweep, state.is_terminal()) {
                if let Some(sweep) = inner.sweeps.get_mut(&sweep_id) {
                    match state {
                        CJobState::Done(_) => sweep.done += 1,
                        CJobState::Failed(_) => sweep.failed += 1,
                        _ => {}
                    }
                }
            }
            if state == CJobState::Pending {
                inner.unassigned.push_back(r.id);
            }
            inner.jobs.insert(
                r.id,
                CJob {
                    id: r.id,
                    spec: r.spec,
                    fingerprint: r.fingerprint,
                    sweep: r.sweep,
                    state,
                },
            );
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Registers (or heartbeats) a worker. Registration is idempotent:
    /// an alive worker at the same address just refreshes liveness.
    pub fn register(self: &Arc<Self>, node: &str, addr: &str) {
        let mut inner = self.lock();
        if let Some(m) = inner.members.get_mut(node) {
            if m.alive && !m.draining {
                m.last_seen = Instant::now();
                if m.addr != addr {
                    m.addr = addr.to_owned();
                }
                self.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // New node, or a dead/draining one coming back.
        let generation = inner
            .members
            .get(node)
            .map(|m| m.generation + 1)
            .unwrap_or(1);
        inner.members.insert(
            node.to_owned(),
            Member {
                addr: addr.to_owned(),
                alive: true,
                draining: false,
                generation,
                last_seen: Instant::now(),
                inflight: 0,
                jobs_done: 0,
                run_p95_us: 0.0,
                queue_depth: 0,
            },
        );
        inner.ring.add(node);
        self.counters.registrations.fetch_add(1, Ordering::Relaxed);
        // Re-shard every Pending job over the new ring: cache affinity
        // wants cells on their ring owner, and the new node must take
        // its arcs over immediately.
        self.reshard_pending(&mut inner);
        for i in 0..self.opts.workers_per_node {
            let cluster = Arc::clone(self);
            let name = node.to_owned();
            let handle = std::thread::Builder::new()
                .name(format!("esteem-coord-{node}-{i}"))
                .spawn(move || cluster.dispatcher_loop(&name, generation))
                .expect("spawn dispatcher");
            inner.threads.push(handle);
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Graceful deregister: stop giving the node work, re-shard its
    /// queue, let in-flight jobs finish on it.
    pub fn deregister(self: &Arc<Self>, node: &str) {
        let mut inner = self.lock();
        let Some(m) = inner.members.get_mut(node) else {
            return;
        };
        if m.draining || !m.alive {
            return;
        }
        m.draining = true;
        inner.ring.remove(node);
        self.counters
            .deregistrations
            .fetch_add(1, Ordering::Relaxed);
        self.reshard_pending(&mut inner);
        drop(inner);
        self.work.notify_all();
    }

    /// Declares a node dead: takes it off the ring and makes every job
    /// it held (queued *or* in flight) eligible for dispatch elsewhere.
    fn fail_node(self: &Arc<Self>, node: &str, generation: u64) {
        let mut inner = self.lock();
        let Some(m) = inner.members.get_mut(node) else {
            return;
        };
        // A newer generation means the node already re-registered; the
        // failure this call is reporting is stale.
        if m.generation != generation || !m.alive {
            return;
        }
        m.alive = false;
        m.inflight = 0;
        inner.ring.remove(node);
        self.counters.node_failures.fetch_add(1, Ordering::Relaxed);
        // In-flight jobs on the dead node go back to Pending.
        let stranded: Vec<u64> = inner
            .jobs
            .values()
            .filter(|j| matches!(&j.state, CJobState::Dispatched { node: n, .. } if n == node))
            .map(|j| j.id)
            .collect();
        for id in &stranded {
            if let Some(job) = inner.jobs.get_mut(id) {
                job.state = CJobState::Pending;
            }
            inner.unassigned.push_back(*id);
            self.counters
                .jobs_redispatched
                .fetch_add(1, Ordering::Relaxed);
        }
        self.reshard_pending(&mut inner);
        drop(inner);
        self.work.notify_all();
    }

    /// Redistributes every Pending job over the current ring. Jobs on a
    /// node that is gone (or was never assigned) land on their ring
    /// owner; with no live nodes they wait in `unassigned`.
    fn reshard_pending(&self, inner: &mut Inner) {
        let mut ids: Vec<u64> = std::mem::take(&mut inner.unassigned).into();
        for (_, q) in inner.pending.iter_mut() {
            ids.extend(std::mem::take(q));
        }
        // Submit order keeps sweeps roughly in cell order per node.
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let Some(job) = inner.jobs.get(&id) else {
                continue;
            };
            if job.state != CJobState::Pending {
                continue;
            }
            match inner.ring.owner(job.fingerprint) {
                Some(owner) => {
                    let owner = owner.to_owned();
                    inner.pending.entry(owner).or_default().push_back(id);
                }
                None => inner.unassigned.push_back(id),
            }
        }
    }

    /// Accepts one job: resolves + fingerprints the spec, journals it,
    /// and queues it on its ring owner. Returns the job id.
    pub fn submit(self: &Arc<Self>, spec: JobSpec, sweep: Option<u64>) -> Result<u64, SubmitError> {
        let resolved = spec.resolve().map_err(|e| SubmitError {
            status: 400,
            msg: e,
        })?;
        Ok(self.admit(spec, resolved.fingerprint, sweep))
    }

    /// Queues an already-resolved job (shared by `submit` and sweeps).
    fn admit(self: &Arc<Self>, spec: JobSpec, fingerprint: u64, sweep: Option<u64>) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        self.journal.submit(id, sweep, fingerprint, &spec);
        self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        inner.jobs.insert(
            id,
            CJob {
                id,
                spec,
                fingerprint,
                sweep,
                state: CJobState::Pending,
            },
        );
        match inner.ring.owner(fingerprint) {
            Some(owner) => {
                let owner = owner.to_owned();
                inner.pending.entry(owner).or_default().push_back(id);
            }
            None => inner.unassigned.push_back(id),
        }
        drop(inner);
        self.work.notify_all();
        id
    }

    /// Accepts a sweep: every spec must resolve before any cell is
    /// admitted (all-or-nothing). Returns `(sweep id, job ids)`.
    pub fn submit_sweep(
        self: &Arc<Self>,
        specs: Vec<JobSpec>,
    ) -> Result<(u64, Vec<u64>), SubmitError> {
        if specs.is_empty() {
            return Err(SubmitError {
                status: 400,
                msg: "sweep has no cells".into(),
            });
        }
        let mut resolved = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let r = spec.resolve().map_err(|e| SubmitError {
                status: 400,
                msg: format!("cell {i}: {e}"),
            })?;
            resolved.push(r.fingerprint);
        }
        let sweep_id = self.next_sweep.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters
            .sweeps_submitted
            .fetch_add(1, Ordering::Relaxed);
        let mut job_ids = Vec::with_capacity(specs.len());
        for (spec, fp) in specs.into_iter().zip(resolved) {
            job_ids.push(self.admit(spec, fp, Some(sweep_id)));
        }
        self.journal.sweep(sweep_id, &job_ids);
        self.lock().sweeps.insert(
            sweep_id,
            SweepState {
                jobs: job_ids.clone(),
                done: 0,
                failed: 0,
            },
        );
        self.work.notify_all();
        Ok((sweep_id, job_ids))
    }

    /// One dispatcher thread: claim work for `node`, run it remotely,
    /// repeat. Exits when the node's generation changes (death or
    /// re-registration), the node drains, or the cluster shuts down.
    fn dispatcher_loop(self: &Arc<Self>, node: &str, generation: u64) {
        loop {
            let claimed = {
                let mut inner = self.lock();
                loop {
                    if inner.shutdown {
                        return;
                    }
                    match inner.members.get(node) {
                        Some(m) if m.alive && !m.draining && m.generation == generation => {}
                        _ => return,
                    }
                    if let Some(claim) = self.claim(&mut inner, node) {
                        break claim;
                    }
                    inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.run_job(node, generation, claimed);
        }
    }

    /// Pops the next job for `node`: its own queue first, else steals
    /// from the worst straggler with enough backlog. Marks the job
    /// Dispatched and bumps inflight. Must run under the inner lock.
    fn claim(&self, inner: &mut Inner, node: &str) -> Option<(u64, u64, String)> {
        let own = inner.pending.get_mut(node).and_then(|q| q.pop_front());
        let id = match own {
            Some(id) => Some(id),
            None => self.steal(inner, node),
        }?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
        let addr = inner.members.get(node)?.addr.clone();
        let job = inner.jobs.get_mut(&id)?;
        job.state = CJobState::Dispatched {
            node: node.to_owned(),
            token,
        };
        if let Some(m) = inner.members.get_mut(node) {
            m.inflight += 1;
            m.last_seen = Instant::now();
        }
        self.counters
            .jobs_dispatched
            .fetch_add(1, Ordering::Relaxed);
        self.journal.dispatch(id, node);
        Some((id, token, addr))
    }

    /// Picks a steal victim: the alive node with the deepest *queued*
    /// backlog weighted by its run-time p95 (straggler signal), with at
    /// least `steal_min_backlog` queued. Steals from the back of the
    /// victim's queue — the work it would get to last.
    fn steal(&self, inner: &mut Inner, thief: &str) -> Option<u64> {
        let mut best: Option<(f64, String)> = None;
        for (name, q) in &inner.pending {
            if name == thief || q.len() < self.opts.steal_min_backlog {
                continue;
            }
            let Some(m) = inner.members.get(name) else {
                continue;
            };
            if !m.alive || m.draining {
                continue;
            }
            let score = q.len() as f64 * m.run_p95_us.max(P95_FLOOR_US);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, name.clone()));
            }
        }
        let (_, victim) = best?;
        let id = inner.pending.get_mut(&victim)?.pop_back()?;
        self.counters.jobs_stolen.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    /// Runs one claimed job on the remote worker, polling to terminal
    /// state. Any transport failure declares the node suspect and
    /// re-dispatches (safe: deterministic simulator + claim tokens).
    fn run_job(self: &Arc<Self>, node: &str, generation: u64, claim: (u64, u64, String)) {
        let (id, token, addr) = claim;
        let spec = {
            let inner = self.lock();
            match inner.jobs.get(&id) {
                Some(j) => j.spec.clone(),
                None => return,
            }
        };
        let resp = match client::submit_with(&addr, &spec, &self.opts.retry, CONTROL_READ_TIMEOUT) {
            Ok(r) => r,
            Err(e) if e.contains("submit failed (") => {
                // The worker answered but rejected (429 shed / 503
                // draining): requeue and let the ring (possibly minus
                // this node, if it is shutting down) take it again.
                // A shed carries the worker's Retry-After hint; honor
                // it (bounded) so a saturated worker is not re-offered
                // the job faster than its queue drains.
                let wait = client::retry_after_ms_from_error(&e)
                    .map(|ms| Duration::from_millis(ms.min(10_000)))
                    .unwrap_or(self.opts.poll_interval)
                    .max(self.opts.poll_interval);
                self.release(node, id, token);
                std::thread::sleep(wait);
                return;
            }
            Err(_) => {
                self.node_down(node, generation, id, token);
                return;
            }
        };
        if resp.cached {
            self.counters
                .jobs_cached_on_worker
                .fetch_add(1, Ordering::Relaxed);
        }
        loop {
            {
                let inner = self.lock();
                if inner.shutdown {
                    return;
                }
                // Abandon if the claim is stale (monitor declared this
                // node dead and the job moved on).
                match inner.jobs.get(&id).map(|j| &j.state) {
                    Some(CJobState::Dispatched { token: t, .. }) if *t == token => {}
                    _ => return,
                }
            }
            match client::poll_with(&addr, resp.job, &self.opts.retry, CONTROL_READ_TIMEOUT) {
                Ok((state, v)) => match state.as_str() {
                    "done" => {
                        let result = v
                            .as_map()
                            .and_then(|m| serde::map_get(m, "result").ok())
                            .cloned()
                            .unwrap_or(Value::Null);
                        let pretty = serde_json::to_string_pretty(&result).expect("serializes");
                        self.complete(node, id, token, Ok(pretty));
                        return;
                    }
                    "failed" => {
                        // A deterministic simulator panic: re-running
                        // reproduces it, so the failure is final.
                        let err = v
                            .as_map()
                            .and_then(|m| serde::map_get(m, "error").ok())
                            .and_then(|e| e.as_str())
                            .unwrap_or("unknown error")
                            .to_owned();
                        self.complete(node, id, token, Err(err));
                        return;
                    }
                    _ => std::thread::sleep(self.opts.poll_interval),
                },
                Err(_) => {
                    self.node_down(node, generation, id, token);
                    return;
                }
            }
        }
    }

    /// Returns a claimed-but-unstarted job to the queues.
    fn release(self: &Arc<Self>, node: &str, id: u64, token: u64) {
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(&id) {
            if job.state
                == (CJobState::Dispatched {
                    node: node.to_owned(),
                    token,
                })
            {
                job.state = CJobState::Pending;
                inner.unassigned.push_back(id);
                self.reshard_pending(&mut inner);
            }
        }
        if let Some(m) = inner.members.get_mut(node) {
            m.inflight = m.inflight.saturating_sub(1);
        }
        drop(inner);
        self.work.notify_all();
    }

    fn node_down(self: &Arc<Self>, node: &str, generation: u64, _id: u64, _token: u64) {
        // fail_node re-homes every job dispatched to `node`, including
        // this one, and bumps the generation so sibling threads exit.
        self.fail_node(node, generation);
    }

    /// First-terminal-transition-wins completion: a stale claim (token
    /// mismatch) or an already-terminal job is a no-op, so re-dispatch
    /// can never lose or double-count a job.
    fn complete(
        self: &Arc<Self>,
        node: &str,
        id: u64,
        token: u64,
        outcome: Result<String, String>,
    ) {
        let mut inner = self.lock();
        let Some(job) = inner.jobs.get_mut(&id) else {
            return;
        };
        let ours = matches!(&job.state,
            CJobState::Dispatched { node: n, token: t } if n == node && *t == token);
        if ours && !job.state.is_terminal() {
            let sweep = job.sweep;
            match outcome {
                Ok(pretty) => {
                    job.state = CJobState::Done(pretty);
                    self.journal.done(id);
                    self.counters.jobs_done.fetch_add(1, Ordering::Relaxed);
                    if let Some(s) = sweep.and_then(|s| inner.sweeps.get_mut(&s)) {
                        s.done += 1;
                    }
                }
                Err(err) => {
                    job.state = CJobState::Failed(err.clone());
                    self.journal.fail(id, &err);
                    self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    if let Some(s) = sweep.and_then(|s| inner.sweeps.get_mut(&s)) {
                        s.failed += 1;
                    }
                }
            }
            if let Some(m) = inner.members.get_mut(node) {
                m.inflight = m.inflight.saturating_sub(1);
                m.jobs_done += 1;
                m.last_seen = Instant::now();
            }
        }
        drop(inner);
        self.work.notify_all();
    }

    /// Liveness + straggler-signal monitor; run on a dedicated thread.
    /// Polls every alive worker's `/v1/status`; a worker that neither
    /// heartbeats nor answers within `heartbeat_timeout` is failed.
    pub fn monitor_loop(self: &Arc<Self>) {
        loop {
            let targets: Vec<(String, String, u64)> = {
                let inner = self.lock();
                if inner.shutdown {
                    return;
                }
                inner
                    .members
                    .iter()
                    .filter(|(_, m)| m.alive && !m.draining)
                    .map(|(n, m)| (n.clone(), m.addr.clone(), m.generation))
                    .collect()
            };
            for (node, addr, generation) in targets {
                match client::request_with(
                    &addr,
                    "GET",
                    "/v1/status",
                    None,
                    &RetryPolicy::none(),
                    Duration::from_secs(2),
                ) {
                    Ok((200, body)) => {
                        let (p95, depth) = parse_status_signal(&body);
                        let mut inner = self.lock();
                        if let Some(m) = inner.members.get_mut(&node) {
                            if m.generation == generation {
                                m.last_seen = Instant::now();
                                m.run_p95_us = p95;
                                m.queue_depth = depth;
                            }
                        }
                    }
                    _ => {
                        let stale = {
                            let inner = self.lock();
                            inner.members.get(&node).is_some_and(|m| {
                                m.generation == generation
                                    && m.last_seen.elapsed() > self.opts.heartbeat_timeout
                            })
                        };
                        if stale {
                            self.fail_node(&node, generation);
                        }
                    }
                }
            }
            let inner = self.lock();
            if inner.shutdown {
                return;
            }
            let (inner, _) = self
                .work
                .wait_timeout(inner, self.opts.monitor_interval)
                .unwrap_or_else(|e| e.into_inner());
            drop(inner);
        }
    }

    /// Flags shutdown without joining (the `POST /v1/shutdown` path:
    /// the HTTP handler cannot join threads while a request is open).
    pub fn request_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// Blocks until shutdown has been requested.
    pub fn wait_shutdown(&self) {
        let mut inner = self.lock();
        while !inner.shutdown {
            inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Requests shutdown and joins every dispatcher thread. In-flight
    /// polls notice within one poll interval.
    pub fn shutdown(&self) {
        self.request_shutdown();
        loop {
            let Some(handle) = self.lock().threads.pop() else {
                break;
            };
            let _ = handle.join();
        }
    }

    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Read access for the HTTP layer and tests.
    pub fn with_job<T>(&self, id: u64, f: impl FnOnce(&CJob) -> T) -> Option<T> {
        let inner = self.lock();
        inner.jobs.get(&id).map(f)
    }

    pub fn sweep_state(&self, id: u64) -> Option<(SweepState, u64)> {
        let inner = self.lock();
        let s = inner.sweeps.get(&id)?;
        Some((s.clone(), s.jobs.len() as u64))
    }

    /// The report bodies of a finished sweep, in cell order. `None`
    /// while any cell is unfinished; failed cells are reported by
    /// [`Cluster::sweep_state`].
    pub fn sweep_report(&self, id: u64) -> Option<Vec<String>> {
        let inner = self.lock();
        let s = inner.sweeps.get(&id)?;
        let mut out = Vec::with_capacity(s.jobs.len());
        for jid in &s.jobs {
            match inner.jobs.get(jid).map(|j| &j.state) {
                Some(CJobState::Done(pretty)) => out.push(pretty.clone()),
                _ => return None,
            }
        }
        Some(out)
    }

    /// Per-member snapshot for `/v1/status` and `/metrics`.
    pub fn members_snapshot(&self) -> Vec<(String, MemberSnapshot)> {
        let inner = self.lock();
        let mut v: Vec<(String, MemberSnapshot)> = inner
            .members
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    MemberSnapshot {
                        addr: m.addr.clone(),
                        alive: m.alive,
                        draining: m.draining,
                        inflight: m.inflight as u64,
                        pending: inner.pending.get(n).map(|q| q.len() as u64).unwrap_or(0),
                        jobs_done: m.jobs_done,
                        run_p95_us: m.run_p95_us,
                        queue_depth: m.queue_depth,
                        last_seen_ms: m.last_seen.elapsed().as_millis() as u64,
                    },
                )
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Job counts by state: (queued, running, done, failed, unassigned).
    pub fn job_counts(&self) -> (u64, u64, u64, u64, u64) {
        let inner = self.lock();
        let mut c = (0u64, 0u64, 0u64, 0u64, 0u64);
        for j in inner.jobs.values() {
            match j.state {
                CJobState::Pending => c.0 += 1,
                CJobState::Dispatched { .. } => c.1 += 1,
                CJobState::Done(_) => c.2 += 1,
                CJobState::Failed(_) => c.3 += 1,
            }
        }
        c.4 = inner.unassigned.len() as u64;
        c
    }

    pub fn sweep_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.lock().sweeps.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub fn journal_path(&self) -> Option<std::path::PathBuf> {
        self.journal.path().map(|p| p.to_owned())
    }
}

/// One member's externally visible state.
#[derive(Debug, Clone)]
pub struct MemberSnapshot {
    pub addr: String,
    pub alive: bool,
    pub draining: bool,
    pub inflight: u64,
    pub pending: u64,
    pub jobs_done: u64,
    pub run_p95_us: f64,
    pub queue_depth: u64,
    pub last_seen_ms: u64,
}

/// Extracts `(stages.run_us.p95_us, queue_depth)` from a worker's
/// `/v1/status` body; zeros when absent.
fn parse_status_signal(body: &str) -> (f64, u64) {
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        return (0.0, 0);
    };
    let get = |m: &[(String, Value)], k: &str| -> Option<Value> {
        m.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let m = match v.as_map() {
        Some(m) => m.to_vec(),
        None => return (0.0, 0),
    };
    let depth = match get(&m, "queue_depth") {
        Some(Value::U64(n)) => n,
        Some(Value::I64(n)) => n.max(0) as u64,
        _ => 0,
    };
    let p95 = get(&m, "stages")
        .and_then(|s| s.as_map().map(|x| x.to_vec()))
        .and_then(|s| get(&s, "run_us"))
        .and_then(|r| r.as_map().map(|x| x.to_vec()))
        .and_then(|r| get(&r, "p95_us"))
        .map(|p| match p {
            Value::U64(n) => n as f64,
            Value::I64(n) => n as f64,
            Value::F64(f) => f,
            _ => 0.0,
        })
        .unwrap_or(0.0);
    (p95, depth)
}
