//! The daemon: HTTP front end + resident worker threads.
//!
//! Data flow: `POST /v1/jobs` resolves the spec, fingerprints it, and
//! either (a) returns a run-cache hit as an immediately-done job, (b)
//! coalesces onto an identical in-flight job, or (c) enqueues a new job
//! in the bounded [`JobQueue`] (full queue => 429 shed). The queue is
//! the daemon's only one: each of [`ServerOptions::workers`] threads
//! pops it in priority/fairness order and runs the job itself, so a job
//! is either queued (visible to priority, aging and `/v1/status`) or
//! running on a worker. Each execution is panic-isolated, so an invalid
//! configuration (the simulator validates with asserts) fails that one
//! job while the daemon keeps serving.
//!
//! Every state transition is journaled; on restart, each job is looked
//! up in the run cache: a hit is done, the first miss of a fingerprint is
//! re-queued and the later ones wait for its run, a failed job stays
//! failed (see [`crate::journal`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use esteem_core::{SimReport, Simulator};
use esteem_harness::runcache;
use esteem_stats::{
    labeled, HistogramSnapshot, IntervalObserver, IntervalSample, Scope, StatsReading, StatsSource,
};
use serde::{Serialize, Value};

use crate::cluster::{ClusterAgent, ClusterConfig, ClusterHook};
use crate::http::{Handler, HandlerResult, HttpCounters, HttpServer};
use crate::job::{EventStream, FinishedJob, Job, JobSpec, JobState};
use crate::journal::{recover, Journal, RecoveredOutcome};
use crate::observe::{JobTiming, Outcome, ServeMetrics};
use crate::queue::{JobQueue, PushError, QueuedJob};

/// Crate version, exported as a `build_info` label and in `/v1/status`.
const VERSION: &str = env!("CARGO_PKG_VERSION");
/// Git revision baked in at build time (`ESTEEM_GIT_HASH`), when the
/// build script or CI sets it.
const GIT_HASH: &str = match option_env!("ESTEEM_GIT_HASH") {
    Some(h) => h,
    None => "unknown",
};
/// Prometheus text exposition content type served on `/metrics`.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Daemon configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Resident worker threads executing simulations.
    pub workers: usize,
    /// Queue bound: submissions beyond it are shed with 429.
    pub queue_capacity: usize,
    /// Append-only journal path (`None` disables crash recovery).
    pub journal_path: Option<PathBuf>,
    /// Start with the queue paused (tests and drain-and-inspect
    /// operation; resume with [`Daemon::resume`]).
    pub start_paused: bool,
    /// How long shutdown waits for open connections to finish.
    pub drain_timeout: Duration,
    /// Flight-recorder depth: how many recent per-job stage timing
    /// records `GET /v1/flight-recorder` can return.
    pub flight_recorder_jobs: usize,
    /// Where to write a flight-recorder dump when a job panics
    /// (`None` disables the crash dump).
    pub flight_dump: Option<PathBuf>,
    /// Join a cluster as a worker: register/heartbeat with this
    /// coordinator (`None` = standalone daemon).
    pub cluster: Option<ClusterConfig>,
    /// Queue priority aging: bump effective priority one level per this
    /// many pops spent waiting (0 = off). See [`JobQueue::with_aging`].
    pub aging_pops: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            journal_path: None,
            start_paused: false,
            drain_timeout: Duration::from_secs(10),
            flight_recorder_jobs: 256,
            flight_dump: None,
            cluster: None,
            aging_pops: 0,
        }
    }
}

/// Daemon-level counters, exported under `serve/` in `/metrics`.
#[derive(Debug, Default)]
pub struct ServeCounters {
    pub submitted: AtomicU64,
    pub coalesced: AtomicU64,
    /// Submissions answered straight from the run cache.
    pub cached: AtomicU64,
    /// Submissions shed because the queue was full.
    pub shed: AtomicU64,
    /// Submissions rejected at resolve time (bad spec).
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    /// Jobs reconstructed from the journal at startup.
    pub recovered: AtomicU64,
    /// Corrupt/torn journal lines skipped during recovery.
    pub journal_skipped: AtomicU64,
}

impl StatsSource for ServeCounters {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter("jobs_submitted", self.submitted.load(Ordering::Relaxed));
        out.counter("jobs_coalesced", self.coalesced.load(Ordering::Relaxed));
        out.counter("jobs_cached", self.cached.load(Ordering::Relaxed));
        out.counter("jobs_shed", self.shed.load(Ordering::Relaxed));
        out.counter("jobs_rejected", self.rejected.load(Ordering::Relaxed));
        out.counter("jobs_completed", self.completed.load(Ordering::Relaxed));
        out.counter("jobs_failed", self.failed.load(Ordering::Relaxed));
        out.counter("jobs_recovered", self.recovered.load(Ordering::Relaxed));
        out.counter(
            "journal_skipped_lines",
            self.journal_skipped.load(Ordering::Relaxed),
        );
    }
}

/// One entry of the job table: a live job, or the compact record that
/// replaces it once it is terminal.
#[derive(Clone)]
enum Tracked {
    Live(Arc<Job>),
    Finished(Arc<FinishedJob>),
}

impl Tracked {
    fn state(&self) -> JobState {
        match self {
            Tracked::Live(job) => job.state(),
            Tracked::Finished(f) => f.state.clone(),
        }
    }
}

/// Jobs by id. Live jobs are few (the queue and the workers bound them)
/// and sit in a map. Finished jobs are all the others, and the table
/// keeps every one. A finished job names its record by number: each
/// executed or failed job has a record of its own, and the run-cache
/// hits of one fingerprint share one. Ids are allocated sequentially, so
/// the numbers sit in a vector indexed by id, 4 bytes a job, grown
/// without rehashing. A finished id far past the end (only a strange
/// journal can hold one) goes to a map instead of growing the vector to
/// it.
#[derive(Default)]
struct JobTable {
    live: HashMap<u64, Arc<Job>>,
    /// Record `n` is `records[n - 1]`; 0 names none. A record whose job
    /// id is reused (only a strange journal does that) stays here.
    records: Vec<Arc<FinishedJob>>,
    /// fingerprint -> the record its run-cache hits share.
    shared: HashMap<u64, u32>,
    /// Finished job id -> its record.
    slots: Vec<u32>,
    far: HashMap<u64, u32>,
    len: usize,
}

/// How far past the end of the slot vector an id may land.
const MAX_ID_GAP: u64 = 1 << 16;

impl JobTable {
    fn get(&self, id: u64) -> Option<Tracked> {
        if let Some(job) = self.live.get(&id) {
            return Some(Tracked::Live(Arc::clone(job)));
        }
        let record = match usize::try_from(id).ok().and_then(|i| self.slots.get(i)) {
            Some(&record) => record,
            None => *self.far.get(&id)?,
        };
        self.record(record)
            .map(|f| Tracked::Finished(Arc::clone(f)))
    }

    fn record(&self, record: u32) -> Option<&Arc<FinishedJob>> {
        self.records.get((record as usize).checked_sub(1)?)
    }

    /// Puts live `job` under its id, in place of what was there.
    fn insert_live(&mut self, job: Arc<Job>) {
        self.remove(job.id);
        self.live.insert(job.id, job);
        self.len += 1;
    }

    /// Finishes job `id` with a record of its own.
    fn finish(&mut self, id: u64, record: FinishedJob) {
        let record = self.push(record);
        self.set(id, record);
    }

    /// Finishes job `id` as a run-cache hit of `fp`, with the record every
    /// hit of `fp` shares: made, its status body rendered, on the first.
    fn finish_cached(&mut self, id: u64, fp: u64, workload: &str, report: Arc<SimReport>) {
        let shared = self.shared.get(&fp).copied().filter(|&n| {
            self.record(n).is_some_and(|f| {
                &*f.workload == workload
                    && matches!(&f.state, JobState::Done(r) if Arc::ptr_eq(r, &report))
            })
        });
        let record = match shared {
            Some(n) => n,
            None => {
                let n = self.push(cached_record(fp, workload, report));
                self.shared.insert(fp, n);
                n
            }
        };
        self.set(id, record);
    }

    fn push(&mut self, record: FinishedJob) -> u32 {
        self.records.push(Arc::new(record));
        u32::try_from(self.records.len()).expect("fewer than 2^32 job records")
    }

    fn set(&mut self, id: u64, record: u32) {
        self.remove(id);
        let end = self.slots.len() as u64;
        if id < end {
            self.slots[id as usize] = record;
        } else if id - end <= MAX_ID_GAP {
            self.slots.resize(id as usize, 0);
            self.slots.push(record);
        } else {
            self.far.insert(id, record);
        }
        self.len += 1;
    }

    fn remove(&mut self, id: u64) {
        let old = self.live.remove(&id).is_some()
            || match usize::try_from(id).ok().and_then(|i| self.slots.get_mut(i)) {
                Some(slot) => std::mem::take(slot) != 0,
                None => self.far.remove(&id).is_some(),
            };
        self.len -= usize::from(old);
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The record of every finished job, shared ones once per job.
    fn finished(&self) -> impl Iterator<Item = &Arc<FinishedJob>> {
        let records = self.slots.iter().chain(self.far.values());
        records.filter_map(|&n| self.record(n))
    }
}

/// The daemon's one job plane: the job table, the queue, the journal
/// and the counters every submit and every run goes through. A
/// [`Runner`] and a [`ClusterHook`] see the daemon through it.
pub struct Plane {
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    /// fingerprint -> primary job id, for every job not yet terminal.
    inflight: Mutex<HashMap<u64, u64>>,
    /// fingerprint -> the recovered jobs waiting for its run (see
    /// `recover_jobs`).
    followers: Mutex<HashMap<u64, Vec<Follower>>>,
    queue: JobQueue,
    journal: Journal,
    counters: ServeCounters,
    /// Signaled by `POST /v1/shutdown`.
    shutdown: (Mutex<bool>, Condvar),
    /// Filled in once the HTTP server is bound (the server owns them).
    http_counters: Mutex<Option<Arc<HttpCounters>>>,
    /// Job timing: stage histograms, worker utilization, the flight
    /// recorder, and the clock they share.
    metrics: ServeMetrics,
    /// Crash-dump target when a job panics.
    flight_dump: Option<PathBuf>,
    /// Where a job's report comes from.
    runner: Arc<dyn Runner>,
    /// The daemon's cluster role, if any: a worker's membership agent
    /// (set once the address is bound) or the coordinator's fleet.
    cluster: OnceLock<Arc<dyn ClusterHook>>,
}

impl Plane {
    /// Submits `spec` through the daemon's one submit path (resolve,
    /// coalesce, run-cache hit, journal, queue) and returns the job id,
    /// or the HTTP status and message of a refusal. Cells of `sweep`
    /// enter the queue past its capacity cap.
    pub fn submit(&self, spec: JobSpec, sweep: Option<u64>) -> Result<u64, (u16, String)> {
        match submit(self, spec, sweep) {
            Ok(Submitted::New(id) | Submitted::Coalesced(id) | Submitted::Cached(id)) => Ok(id),
            Err(reject) => Err((reject.status, reject.msg)),
        }
    }

    /// State of job `id`, live or finished.
    pub fn job_state(&self, id: u64) -> Option<JobState> {
        self.tracked(id).map(|t| t.state())
    }

    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Pauses or resumes the queue (see [`Daemon::pause`]).
    pub fn set_paused(&self, paused: bool) {
        self.queue.set_paused(paused);
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        *self.shutdown.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sleeps for `d`, waking early when shutdown is requested. Returns
    /// whether it has been.
    pub fn sleep(&self, d: Duration) -> bool {
        let (lock, cv) = &self.shutdown;
        let flag = lock.lock().unwrap_or_else(|e| e.into_inner());
        let (flag, _) = cv
            .wait_timeout_while(flag, d, |stop| !*stop)
            .unwrap_or_else(|e| e.into_inner());
        *flag
    }

    fn tracked(&self, id: u64) -> Option<Tracked> {
        self.table().get(id)
    }

    /// The live (queued or running) job `id`.
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        match self.tracked(id)? {
            Tracked::Live(job) => Some(job),
            Tracked::Finished(_) => None,
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn request_shutdown(&self) {
        let (lock, cv) = &self.shutdown;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    fn wait_shutdown(&self) {
        let (lock, cv) = &self.shutdown;
        let mut flag = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*flag {
            flag = cv.wait(flag).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// What a [`Runner`] made of a job.
pub enum RunOutcome {
    Done(Arc<SimReport>),
    /// The job failed for good; the message is its error.
    Failed(String),
    /// Given up because the daemon is shutting down. No terminal journal
    /// line is written, so a restart re-queues the job.
    Abandoned,
}

/// Where a job's report comes from: a job that missed the run cache is
/// queued, and the daemon's worker that pops it asks the runner. It runs
/// on the worker thread under `catch_unwind`; a panic fails the job.
pub trait Runner: Send + Sync {
    fn run(&self, plane: &Plane, job: &Job) -> RunOutcome;
}

/// The stock runner: simulates the job in-process, streaming its interval
/// samples to the job's events.
pub struct LocalRunner;

impl Runner for LocalRunner {
    fn run(&self, _plane: &Plane, job: &Job) -> RunOutcome {
        let resolved = job
            .spec
            .resolve()
            .expect("spec resolved at submit; workloads/techniques are static");
        let sink = EventSink {
            events: Arc::clone(&job.events),
        };
        let sim = Simulator::new(resolved.cfg, &resolved.profiles, &resolved.label)
            .with_observer(Box::new(sink));
        RunOutcome::Done(Arc::new(sim.run()))
    }
}

/// Streams interval samples into the job's event buffer as JSONL.
struct EventSink {
    events: Arc<crate::job::JobEvents>,
}

impl IntervalObserver for EventSink {
    fn on_interval(&mut self, sample: &IntervalSample) {
        self.events
            .push(serde_json::to_string(sample).expect("sample serializes"));
    }
}

/// A running daemon. Dropping it without [`Daemon::wait`] aborts
/// ungracefully; the intended lifecycle is `spawn` -> (work) -> HTTP
/// shutdown or [`Daemon::shutdown`] -> `wait`.
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<Plane>,
    http: Option<std::thread::JoinHandle<bool>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    http_handle: crate::http::ServerHandle,
}

impl Daemon {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pauses the queue: queued jobs, and jobs submitted from now on,
    /// stay queued. Running jobs are unaffected.
    pub fn pause(&self) {
        self.state.queue.set_paused(true);
    }

    pub fn resume(&self) {
        self.state.queue.set_paused(false);
    }

    /// Programmatic equivalent of `POST /v1/shutdown`.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Counter snapshot (tests; the HTTP view is `/metrics`).
    pub fn counters(&self) -> &ServeCounters {
        &self.state.counters
    }

    /// The daemon's job timing: stage histograms, utilization and the
    /// flight recorder. Recording methods are public, which doubles as
    /// the injection point for latency tests: record known values, then
    /// read them back via `/v1/status`.
    pub fn serve_metrics(&self) -> &ServeMetrics {
        &self.state.metrics
    }

    /// Blocks until shutdown is requested, then drains: the queue
    /// closes, every already-accepted job still runs to completion (a
    /// paused queue drains too), the workers join, and the HTTP
    /// listener stops. Returns `true` when all connections drained
    /// within the timeout.
    pub fn wait(mut self) -> bool {
        self.state.wait_shutdown();
        // Leave the cluster first: the coordinator stops routing new
        // work here while we drain what we already accepted.
        if let Some(hook) = self.state.cluster.get() {
            hook.stop();
        }
        // No new pushes; the workers drain the queue then exit.
        self.state.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Every job is now terminal; close any event streams of jobs
        // that never ran.
        for job in self.state.table().live.values() {
            job.events.close();
        }
        self.http_handle.stop();
        match self.http.take() {
            Some(h) => h.join().unwrap_or(false),
            None => true,
        }
    }
}

/// Binds, recovers the journal, and starts the worker + HTTP threads.
/// Jobs run in-process ([`LocalRunner`]).
pub fn spawn(opts: ServerOptions) -> std::io::Result<Daemon> {
    spawn_with(opts, Arc::new(LocalRunner), None)
}

/// [`spawn`] with the runner that produces reports and, for a cluster
/// coordinator, its [`ClusterHook`]. A worker's hook is the membership
/// agent `opts.cluster` starts.
pub fn spawn_with(
    opts: ServerOptions,
    runner: Arc<dyn Runner>,
    hook: Option<Arc<dyn ClusterHook>>,
) -> std::io::Result<Daemon> {
    let journal = match &opts.journal_path {
        Some(p) => Journal::open(p)?,
        None => Journal::none(),
    };
    let state = Arc::new(Plane {
        jobs: Mutex::new(JobTable::default()),
        next_id: AtomicU64::new(0),
        inflight: Mutex::new(HashMap::new()),
        followers: Mutex::new(HashMap::new()),
        queue: JobQueue::new(opts.queue_capacity).with_aging(opts.aging_pops),
        journal,
        counters: ServeCounters::default(),
        shutdown: (Mutex::new(false), Condvar::new()),
        http_counters: Mutex::new(None),
        metrics: ServeMetrics::new(opts.workers.max(1), opts.flight_recorder_jobs),
        flight_dump: opts.flight_dump.clone(),
        runner,
        cluster: OnceLock::new(),
    });
    if let Some(hook) = hook {
        let _ = state.cluster.set(hook);
    }
    state.queue.set_paused(opts.start_paused);

    if let Some(path) = &opts.journal_path {
        recover_jobs(&state, path)?;
    }

    let workers = (0..state.metrics.workers())
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("esteem-serve-worker-{i}"))
                .spawn(move || worker_loop(&state, i))
                .expect("spawn worker thread")
        })
        .collect();

    let handler = make_handler(Arc::clone(&state));
    let server = HttpServer::bind(&opts.addr, handler)?;
    let addr = server.local_addr();
    let http_handle = server.handle();
    *state
        .http_counters
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&server.counters));
    // The agent needs the bound address (ephemeral-port workers
    // advertise it), so it starts only now.
    if let Some(cfg) = opts.cluster.clone() {
        let _ = state.cluster.set(ClusterAgent::spawn(cfg, addr));
    }
    let drain = opts.drain_timeout;
    let http = std::thread::Builder::new()
        .name("esteem-serve-http".into())
        .spawn(move || server.serve(drain))
        .expect("spawn http thread");

    Ok(Daemon {
        addr,
        state,
        http: Some(http),
        workers,
        http_handle,
    })
}

fn recover_jobs(state: &Plane, path: &std::path::Path) -> std::io::Result<()> {
    let rec = recover(path)?;
    if let Some(hook) = state.cluster.get() {
        hook.recovered(&rec);
    }
    if rec.skipped_lines > 0 {
        eprintln!(
            "esteem-serve: journal {}: skipped {} corrupt line(s) during recovery",
            path.display(),
            rec.skipped_lines
        );
        state
            .counters
            .journal_skipped
            .fetch_add(rec.skipped_lines, Ordering::Relaxed);
    }
    state.next_id.store(rec.max_id, Ordering::Relaxed);
    for r in rec.jobs {
        let job = Job::new(r.id, r.spec, r.fingerprint);
        job.born_at_us
            .store(state.metrics.now_us(), Ordering::Relaxed);
        let fp = r.fingerprint;
        let unfinished = r.outcome == RecoveredOutcome::Unfinished;
        // Every job is looked up in the run cache at most once before it
        // can run: at submit, or here; a worker runs what it pops. The
        // first job of a fingerprint the cache does not hold re-runs
        // (deterministic, so clients see the identical report), and the
        // later ones wait for that run instead of each running again. An
        // unfinished job whose report the cache holds is done here.
        match r.outcome {
            RecoveredOutcome::Failed(err) => {
                let record = job.finished(JobState::Failed(err));
                state.table().finish(r.id, record);
            }
            _ if state
                .inflight
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains_key(&fp) =>
            {
                let job = Arc::new(job);
                job.set_state(JobState::Queued);
                let follower = Follower {
                    job: Arc::clone(&job),
                    unfinished,
                };
                state
                    .followers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry(fp)
                    .or_default()
                    .push(follower);
                state.table().insert_live(job);
            }
            _ => match runcache::lookup(fp) {
                Some(report) => finish_recovered(state, &job, report, unfinished),
                None => {
                    let job = Arc::new(job);
                    requeue_recovered(state, &job);
                    state.table().insert_live(job);
                }
            },
        }
        state.counters.recovered.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// A recovered job that waits for the run of its fingerprint.
struct Follower {
    job: Arc<Job>,
    /// Whether its last life left it unfinished (not done).
    unfinished: bool,
}

/// Finishes recovered `job` with `report`, which it did not run for. A
/// job that was done before the restart only gets its record back; an
/// unfinished one is done now, and counts as a cached job.
fn finish_recovered(state: &Plane, job: &Job, report: Arc<SimReport>, unfinished: bool) {
    if unfinished {
        state.journal.done(job.id);
        let born_at_us = job.born_at_us.load(Ordering::Relaxed);
        finish_cached_job(
            state,
            job.id,
            job.fingerprint,
            &job.spec,
            report,
            born_at_us,
            0,
        );
    } else {
        let workload = &job.spec.workload;
        state
            .table()
            .finish_cached(job.id, job.fingerprint, workload, report);
    }
}

/// Finishes the recovered jobs that waited for a run of fingerprint `fp`
/// with its `report`. When the run failed, the first of them runs
/// instead and the others wait for it.
fn release_followers(
    state: &Plane,
    fp: u64,
    report: Option<Arc<SimReport>>,
    followers: Vec<Follower>,
) {
    let Some(report) = report else {
        let mut rest = followers.into_iter();
        if let Some(next) = rest.next() {
            state
                .followers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(fp)
                .or_default()
                .extend(rest);
            requeue_recovered(state, &next.job);
        }
        return;
    };
    for Follower { job, unfinished } in followers {
        finish_recovered(state, &job, Arc::clone(&report), unfinished);
        job.events.close();
    }
}

fn requeue_recovered(state: &Plane, job: &Arc<Job>) {
    job.set_state(JobState::Queued);
    job.born_at_us
        .store(state.metrics.now_us(), Ordering::Relaxed);
    state
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job.fingerprint, job.id);
    let _ = state.queue.push_recovered(QueuedJob {
        job_id: job.id,
        priority: job.spec.priority,
        client: job.spec.client.clone(),
    });
}

/// One resident worker: pops jobs in priority/fairness order and runs
/// each to a terminal state, until the queue is closed and drained.
fn worker_loop(state: &Plane, worker: usize) {
    // A worker keeps its CPU for its lifetime, so a daemon with as many
    // workers as CPUs leaves none spare for a run's front-end thread.
    let _cpu = esteem_par::hold_cpu();
    while let Some(queued) = state.queue.pop_blocking() {
        let Some(job) = state.job(queued.job_id) else {
            continue;
        };
        // `submit` holds the inflight lock until the job's submit line is
        // written: waiting for it here keeps `start` (and `done`) after it.
        drop(state.inflight.lock().unwrap_or_else(|e| e.into_inner()));
        state.journal.start(job.id);
        job.set_state(JobState::Running);
        let queue_wait_us = state.metrics.since(job.born_at_us.load(Ordering::Relaxed));
        execute(state, &job, worker, queue_wait_us);
    }
}

/// Runs one job on worker `worker` with panic isolation, timing its run
/// and serialize stages into its one [`JobTiming`].
fn execute(state: &Plane, job: &Arc<Job>, worker: usize, queue_wait_us: u64) {
    let fp = job.fingerprint;
    let m = &state.metrics;
    // Set inside the panic-isolated closure; a panic leaves them 0.
    let (mut run_us, mut serialize_us) = (0, 0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let t0 = m.now_us();
        let report = match state.runner.run(state, job) {
            RunOutcome::Done(report) => report,
            RunOutcome::Failed(msg) => return Err(msg),
            RunOutcome::Abandoned => return Ok(None),
        };
        run_us = m.since(t0);
        let t0 = m.now_us();
        runcache::insert(fp, Arc::clone(&report));
        serialize_us = m.since(t0);
        Ok(Some(report))
    }));
    let result = result.unwrap_or_else(|payload| Err(esteem_par::panic_message(payload.as_ref())));
    let (outcome, terminal) = match result {
        Ok(Some(report)) => {
            state.journal.done(job.id);
            state.counters.completed.fetch_add(1, Ordering::Relaxed);
            (Outcome::Done, JobState::Done(report))
        }
        Err(msg) => {
            state.journal.fail(job.id, &msg);
            state.counters.failed.fetch_add(1, Ordering::Relaxed);
            (Outcome::Failed, JobState::Failed(msg))
        }
        // Shutting down: the job stays unfinished, in the table and in
        // the journal, and `Daemon::wait` closes its events.
        Ok(None) => {
            job.set_state(JobState::Queued);
            return;
        }
    };
    m.record(JobTiming {
        job: job.id,
        client: job.spec.client.clone(),
        workload: job.spec.workload.clone(),
        outcome,
        fingerprint: fp,
        worker: Some(worker),
        queue_wait_us,
        cache_lookup_us: job.cache_lookup_us.load(Ordering::Relaxed),
        run_us,
        serialize_us,
        e2e_us: m.since(job.born_at_us.load(Ordering::Relaxed)),
    });
    if outcome == Outcome::Failed {
        dump_flight_recorder(state);
    }
    let report = match &terminal {
        JobState::Done(report) => Some(Arc::clone(report)),
        _ => None,
    };
    let followers = {
        // Under the inflight lock, so no submit coalesces onto the job
        // after its coalesced count is copied into the compact record.
        let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
        inflight.remove(&fp);
        state.table().finish(job.id, job.finished(terminal));
        state
            .followers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&fp)
    };
    job.events.close();
    if let Some(followers) = followers {
        release_followers(state, fp, report, followers);
    }
}

/// Best-effort crash dump: the `/v1/flight-recorder` body, written to
/// the configured path.
fn dump_flight_recorder(state: &Plane) {
    let Some(path) = &state.flight_dump else {
        return;
    };
    let body = flight_recorder_body(state);
    if let Err(e) = std::fs::write(path, &body) {
        eprintln!(
            "esteem-serve: writing flight-recorder dump {}: {e}",
            path.display()
        );
    }
}

/// Submit outcome, for the response body.
enum Submitted {
    New(u64),
    Coalesced(u64),
    Cached(u64),
}

/// Submit refusal: HTTP status, body message, and (for 429 sheds) the
/// `Retry-After` hint derived from queue-wait history.
struct Reject {
    status: u16,
    msg: String,
    retry_after_ms: Option<u64>,
}

impl Reject {
    fn plain(status: u16, msg: impl Into<String>) -> Self {
        Self {
            status,
            msg: msg.into(),
            retry_after_ms: None,
        }
    }
}

/// `Retry-After` hint for queue-full sheds: queue-wait p50 says how
/// long a slot typically takes to open; default 1s before any job has
/// flowed through, capped so a latency spike cannot park clients.
fn queue_full_retry_hint_ms(state: &Plane) -> u64 {
    let snap = state.metrics.queue_wait_us.snapshot();
    if snap.count() == 0 {
        return 1_000;
    }
    (snap.quantile(0.5) / 1_000).clamp(1, 30_000)
}

fn submit(state: &Plane, spec: JobSpec, sweep: Option<u64>) -> Result<Submitted, Reject> {
    let born_at_us = state.metrics.now_us();
    let resolved = spec.resolve().map_err(|e| {
        state.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Reject::plain(400, e)
    })?;
    let fp = resolved.fingerprint;

    // Coalesce + enqueue under the inflight lock, so a duplicate either
    // sees the primary (and coalesces) or races cleanly to be primary.
    // A job leaves `inflight` under this lock as it becomes terminal, so
    // a primary found here is still live.
    let mut inflight = state.inflight.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&primary) = inflight.get(&fp) {
        if let Some(job) = state.job(primary) {
            job.coalesced.fetch_add(1, Ordering::Relaxed);
            state.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            state.journal.coalesce(primary);
            return Ok(Submitted::Coalesced(primary));
        }
        inflight.remove(&fp);
    }

    // The job's one run-cache lookup (see `recover_jobs`). A hit is born
    // done.
    let lookup_t0 = state.metrics.now_us();
    let hit = runcache::lookup(fp);
    let cache_lookup_us = state.metrics.since(lookup_t0);
    if let Some(report) = hit {
        drop(inflight);
        let id = state.alloc_id();
        state.journal.cached(id, sweep, fp, &spec);
        state.counters.submitted.fetch_add(1, Ordering::Relaxed);
        finish_cached_job(state, id, fp, &spec, report, born_at_us, cache_lookup_us);
        return Ok(Submitted::Cached(id));
    }

    let id = state.alloc_id();
    let job = Arc::new(Job::new(id, spec.clone(), fp));
    job.born_at_us.store(born_at_us, Ordering::Relaxed);
    job.cache_lookup_us
        .store(cache_lookup_us, Ordering::Relaxed);
    // Publish the job before enqueueing its id: a worker may pop
    // the entry the instant `push` releases the queue lock, and it must
    // find the job in the table.
    state.table().insert_live(Arc::clone(&job));
    let queued = QueuedJob {
        job_id: id,
        priority: spec.priority,
        client: spec.client.clone(),
    };
    // A sweep's cells were accepted as a whole; they queue past the cap.
    let pushed = match sweep {
        Some(_) => state.queue.push_recovered(queued),
        None => state.queue.push(queued),
    };
    match pushed {
        Ok(()) => {
            inflight.insert(fp, id);
            state.journal.submit(id, sweep, fp, &spec);
            state.counters.submitted.fetch_add(1, Ordering::Relaxed);
            Ok(Submitted::New(id))
        }
        Err(PushError::Full) => {
            state.table().remove(id);
            state.counters.shed.fetch_add(1, Ordering::Relaxed);
            Err(Reject {
                status: 429,
                msg: "queue full".into(),
                retry_after_ms: Some(queue_full_retry_hint_ms(state)),
            })
        }
        Err(PushError::Closed) => {
            state.table().remove(id);
            Err(Reject::plain(503, "daemon is shutting down"))
        }
    }
}

/// Finishes job `id` of fingerprint `fp` with a report it did not run
/// for: a run-cache hit, or the report of the run it waited for. It
/// counts as completed and cached, with its timing record.
fn finish_cached_job(
    state: &Plane,
    id: u64,
    fp: u64,
    spec: &JobSpec,
    report: Arc<SimReport>,
    born_at_us: u64,
    cache_lookup_us: u64,
) {
    state.counters.cached.fetch_add(1, Ordering::Relaxed);
    state.counters.completed.fetch_add(1, Ordering::Relaxed);
    state.table().finish_cached(id, fp, &spec.workload, report);
    state.metrics.record(JobTiming {
        job: id,
        client: spec.client.clone(),
        workload: spec.workload.clone(),
        outcome: Outcome::Cached,
        fingerprint: fp,
        worker: None,
        queue_wait_us: 0,
        cache_lookup_us,
        run_us: 0,
        serialize_us: 0,
        e2e_us: state.metrics.since(born_at_us),
    });
}

fn json_err(status: u16, msg: &str) -> HandlerResult {
    HandlerResult::Json(
        status,
        serde_json::to_string(&Value::Map(vec![("error".into(), Value::Str(msg.into()))]))
            .expect("serializes"),
    )
}

/// A [`Reject`] as a response: the error body plus, when a retry hint
/// is present, both the standard seconds-granularity `Retry-After` and
/// the precise `retry-after-ms` extension header.
fn reject_response(reject: &Reject) -> HandlerResult {
    let body = serde_json::to_string(&Value::Map(vec![(
        "error".into(),
        Value::Str(reject.msg.clone()),
    )]))
    .expect("serializes");
    match reject.retry_after_ms {
        Some(ms) => HandlerResult::JsonHeaders(
            reject.status,
            body,
            vec![
                ("Retry-After".into(), ms.div_ceil(1_000).max(1).to_string()),
                ("retry-after-ms".into(), ms.to_string()),
            ],
        ),
        None => HandlerResult::Json(reject.status, body),
    }
}

/// `GET /v1/jobs/{id}`: the same bytes for a live job, its compact
/// record, and a shared cached record's stored text.
fn job_status_body(id: u64, tracked: &Tracked) -> String {
    match tracked {
        Tracked::Live(job) => render_status(
            id,
            &job.spec.workload,
            job.fingerprint,
            job.coalesced.load(Ordering::Relaxed),
            &job.state(),
        ),
        Tracked::Finished(f) => match &f.status_tail {
            Some(tail) => {
                let mut body = String::with_capacity(tail.len() + 28);
                body.push_str(STATUS_HEAD);
                body.push_str(&id.to_string());
                body.push_str(tail);
                body
            }
            None => render_status(id, &f.workload, f.fingerprint, f.coalesced, &f.state),
        },
    }
}

/// What every status body starts with, before its job id.
const STATUS_HEAD: &str = "{\"job\":";

fn render_status(
    id: u64,
    workload: &str,
    fingerprint: u64,
    coalesced: u64,
    state: &JobState,
) -> String {
    let mut m: Vec<(String, Value)> = vec![
        ("job".into(), id.to_value()),
        ("state".into(), Value::Str(state.name().into())),
        ("workload".into(), Value::Str(workload.to_owned())),
        (
            "fingerprint".into(),
            Value::Str(format!("{fingerprint:016x}")),
        ),
        ("coalesced".into(), coalesced.to_value()),
    ];
    match state {
        JobState::Done(report) => m.push(("result".into(), report.to_value())),
        JobState::Failed(err) => m.push(("error".into(), Value::Str(err.clone()))),
        _ => {}
    }
    serde_json::to_string(&Value::Map(m)).expect("serializes")
}

/// The record run-cache hits of `fp` share, with its status body
/// rendered once (everything after the job id).
fn cached_record(fp: u64, workload: &str, report: Arc<SimReport>) -> FinishedJob {
    let state = JobState::Done(report);
    let body = render_status(0, workload, fp, 0, &state);
    let tail = body
        .strip_prefix(STATUS_HEAD)
        .and_then(|rest| rest.strip_prefix('0'))
        .expect("a status body starts with its job id");
    FinishedJob {
        fingerprint: fp,
        workload: workload.into(),
        coalesced: 0,
        state,
        events: Box::default(),
        status_tail: Some(tail.into()),
    }
}

fn metrics_body(state: &Plane) -> String {
    let mut r = StatsReading::new();
    r.register("serve", &state.counters);
    r.register("serve", &state.metrics);
    r.scope("pool", |s| state.metrics.collect_pool(s));
    r.scope("serve", |s| {
        s.gauge("queue_depth", state.queue.len() as f64);
        s.gauge("jobs_tracked", state.table().len() as f64);
        // Constant-1 info metric: the labels carry the payload.
        s.counter(
            &labeled("build_info", &[("version", VERSION), ("git", GIT_HASH)]),
            1,
        );
    });
    let cs = runcache::cache_stats();
    r.scope("runcache", |s| {
        s.counter("hits", cs.hits);
        s.counter("misses", cs.misses);
        s.counter("disk_evictions", cs.disk_evictions);
        s.gauge("mem_entries", cs.mem_entries as f64);
    });
    if let Some(hook) = state.cluster.get() {
        r.scope("cluster", |s| hook.metrics(s));
    }
    let hc = state
        .http_counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    if let Some(hc) = hc {
        r.scope("http", |s| {
            s.counter("accepted", hc.accepted.load(Ordering::Relaxed));
            s.counter("requests", hc.requests.load(Ordering::Relaxed));
            s.counter("responses_2xx", hc.responses_2xx.load(Ordering::Relaxed));
            s.counter("responses_4xx", hc.responses_4xx.load(Ordering::Relaxed));
            s.counter("responses_5xx", hc.responses_5xx.load(Ordering::Relaxed));
            s.counter("parse_errors", hc.parse_errors.load(Ordering::Relaxed));
        });
    }
    r.render_text()
}

/// Percentile summary of one stage histogram for `/v1/status`, plus a
/// compact bucket array for sparkline rendering.
fn stage_value(snap: &HistogramSnapshot) -> Value {
    Value::Map(vec![
        ("count".into(), snap.count().to_value()),
        ("p50_us".into(), snap.quantile(0.5).to_value()),
        ("p95_us".into(), snap.quantile(0.95).to_value()),
        ("p99_us".into(), snap.quantile(0.99).to_value()),
        ("max_us".into(), snap.max().to_value()),
        ("mean_us".into(), Value::F64(snap.mean())),
        (
            "cells".into(),
            Value::Seq(
                snap.compact_cells(24)
                    .iter()
                    .map(|c| c.to_value())
                    .collect(),
            ),
        ),
    ])
}

/// `GET /v1/status`: one JSON snapshot of everything `esteem-top`
/// renders — identity, uptime, queue/jobs, run-cache hit rate, worker
/// utilization, and per-stage latency percentiles.
fn status_body(state: &Plane) -> String {
    let mut by_state = [0u64; 4]; // queued, running, done, failed
    let mut count = |state: &JobState| {
        let i = match state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done(_) => 2,
            JobState::Failed(_) => 3,
        };
        by_state[i] += 1;
    };
    let tracked = {
        let jobs = state.table();
        for job in jobs.live.values() {
            count(&job.state());
        }
        for f in jobs.finished() {
            count(&f.state);
        }
        jobs.len() as u64
    };
    let c = &state.counters;
    let counters = Value::Map(vec![
        (
            "submitted".into(),
            c.submitted.load(Ordering::Relaxed).to_value(),
        ),
        (
            "coalesced".into(),
            c.coalesced.load(Ordering::Relaxed).to_value(),
        ),
        ("cached".into(), c.cached.load(Ordering::Relaxed).to_value()),
        ("shed".into(), c.shed.load(Ordering::Relaxed).to_value()),
        (
            "rejected".into(),
            c.rejected.load(Ordering::Relaxed).to_value(),
        ),
        (
            "completed".into(),
            c.completed.load(Ordering::Relaxed).to_value(),
        ),
        ("failed".into(), c.failed.load(Ordering::Relaxed).to_value()),
    ]);
    let cs = runcache::cache_stats();
    let lookups = cs.hits + cs.misses;
    let runcache = Value::Map(vec![
        ("hits".into(), cs.hits.to_value()),
        ("misses".into(), cs.misses.to_value()),
        (
            "hit_rate".into(),
            Value::F64(if lookups > 0 {
                cs.hits as f64 / lookups as f64
            } else {
                0.0
            }),
        ),
    ]);
    let m = &state.metrics;
    let per_worker: Vec<Value> = (0..m.workers())
        .map(|i| Value::F64(m.worker_utilization(i)))
        .collect();
    let workers = Value::Map(vec![
        ("count".into(), (per_worker.len() as u64).to_value()),
        ("active".into(), by_state[1].to_value()),
        ("utilization".into(), Value::F64(m.mean_utilization())),
        ("per_worker".into(), Value::Seq(per_worker)),
    ]);
    let stages = Value::Map(vec![
        ("submit_us".into(), stage_value(&m.submit_us.snapshot())),
        (
            "queue_wait_us".into(),
            stage_value(&m.queue_wait_us.snapshot()),
        ),
        (
            "cache_lookup_us".into(),
            stage_value(&m.cache_lookup_us.snapshot()),
        ),
        ("run_us".into(), stage_value(&m.run_us.snapshot())),
        (
            "serialize_us".into(),
            stage_value(&m.serialize_us.snapshot()),
        ),
    ]);
    let e2e = Value::Map(
        [Outcome::Done, Outcome::Failed, Outcome::Cached]
            .iter()
            .map(|&o| (o.name().to_owned(), stage_value(&m.e2e_us(o))))
            .collect(),
    );
    let mut body = Value::Map(vec![
        ("version".into(), Value::Str(VERSION.into())),
        ("git".into(), Value::Str(GIT_HASH.into())),
        ("uptime_seconds".into(), Value::F64(m.uptime_seconds())),
        ("queue_depth".into(), (state.queue.len() as u64).to_value()),
        (
            "jobs".into(),
            Value::Map(vec![
                ("queued".into(), by_state[0].to_value()),
                ("running".into(), by_state[1].to_value()),
                ("done".into(), by_state[2].to_value()),
                ("failed".into(), by_state[3].to_value()),
                ("tracked".into(), tracked.to_value()),
            ]),
        ),
        ("counters".into(), counters),
        ("runcache".into(), runcache),
        ("workers".into(), workers),
        ("stages".into(), stages),
        ("e2e_us".into(), e2e),
        (
            "flight_recorder_jobs".into(),
            (m.flight_len() as u64).to_value(),
        ),
    ]);
    if let (Some(hook), Value::Map(m)) = (state.cluster.get(), &mut body) {
        m.push(("cluster".into(), hook.status_value(state)));
    }
    serde_json::to_string(&body).expect("serializes")
}

/// `GET /v1/flight-recorder` (and the crash dump): recent job timings.
fn flight_recorder_body(state: &Plane) -> String {
    serde_json::to_string(&state.metrics.flight_dump()).expect("serializes")
}

fn make_handler(state: Arc<Plane>) -> Handler {
    Arc::new(move |req| {
        let parts: Vec<&str> = req.path.split('/').filter(|p| !p.is_empty()).collect();
        match (req.method.as_str(), parts.as_slice()) {
            ("POST", ["v1", "jobs"]) => {
                let body = match std::str::from_utf8(&req.body) {
                    Ok(b) => b,
                    Err(_) => return json_err(400, "body is not UTF-8"),
                };
                let spec: JobSpec = match serde_json::from_str(body) {
                    Ok(s) => s,
                    Err(e) => return json_err(400, &format!("bad job spec: {e}")),
                };
                let submit_t0 = state.metrics.now_us();
                let outcome = submit(&state, spec, None);
                state
                    .metrics
                    .submit_us
                    .record(state.metrics.since(submit_t0));
                match outcome {
                    Ok(outcome) => {
                        let (id, coalesced, cached) = match outcome {
                            Submitted::New(id) => (id, false, false),
                            Submitted::Coalesced(id) => (id, true, false),
                            Submitted::Cached(id) => (id, false, true),
                        };
                        let body = format!(
                            "{{\"job\":{id},\"coalesced\":{coalesced},\"cached\":{cached}}}"
                        );
                        HandlerResult::Json(202, body)
                    }
                    Err(reject) => reject_response(&reject),
                }
            }
            ("GET", ["v1", "jobs", id]) => {
                let id = id.parse::<u64>().ok();
                match id.and_then(|i| state.tracked(i).map(|t| (i, t))) {
                    Some((id, tracked)) => HandlerResult::Json(200, job_status_body(id, &tracked)),
                    None => json_err(404, "no such job"),
                }
            }
            ("GET", ["v1", "jobs", id, "events"]) => {
                match id.parse::<u64>().ok().and_then(|i| state.tracked(i)) {
                    Some(Tracked::Live(job)) => HandlerResult::Stream(
                        200,
                        Box::new(EventStream::new(Arc::clone(&job.events))),
                    ),
                    Some(Tracked::Finished(f)) => HandlerResult::Stream(
                        200,
                        Box::new(f.events.clone().into_vec().into_iter()),
                    ),
                    None => json_err(404, "no such job"),
                }
            }
            ("GET", ["metrics"]) => {
                HandlerResult::Typed(200, METRICS_CONTENT_TYPE, metrics_body(&state))
            }
            ("GET", ["v1", "status"]) => HandlerResult::Json(200, status_body(&state)),
            ("GET", ["v1", "flight-recorder"]) => {
                HandlerResult::Json(200, flight_recorder_body(&state))
            }
            ("GET", ["v1", "health"]) => {
                let body = serde_json::to_string(&Value::Map(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("queue_depth".into(), (state.queue.len() as u64).to_value()),
                ]))
                .expect("serializes");
                HandlerResult::Json(200, body)
            }
            ("POST", ["v1", "shutdown"]) => {
                state.request_shutdown();
                HandlerResult::Json(200, "{\"shutting_down\":true}".into())
            }
            _ => match state.cluster.get().and_then(|hook| hook.route(&state, req)) {
                Some(response) => response,
                None if matches!(req.method.as_str(), "POST" | "GET") => {
                    json_err(404, "no such endpoint")
                }
                None => json_err(405, "method not allowed"),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Arc<SimReport> {
        let r = JobSpec {
            workload: "gamess".into(),
            instructions: 20_000,
            warmup: Some(20_000),
            ..JobSpec::default()
        }
        .resolve()
        .unwrap();
        Arc::new(Simulator::new(r.cfg, &r.profiles, &r.label).run())
    }

    /// A terminal job renders the same status body whether the table
    /// holds it live or as its compact record.
    #[test]
    fn compact_record_renders_like_the_live_job() {
        let spec = JobSpec {
            workload: "gamess".into(),
            ..JobSpec::default()
        };
        for terminal in [JobState::Done(report()), JobState::Failed("boom".into())] {
            let job = Arc::new(Job::new(7, spec.clone(), 0xfeed));
            job.coalesced.store(2, Ordering::Relaxed);
            job.events.push("{\"interval\":0}".into());
            job.set_state(terminal.clone());
            let finished = Arc::new(job.finished(terminal));
            assert_eq!(
                job_status_body(7, &Tracked::Live(Arc::clone(&job))),
                job_status_body(7, &Tracked::Finished(Arc::clone(&finished)))
            );
            assert_eq!(*finished.events, job.events.lines());
        }
    }

    #[test]
    fn job_table_is_dense_by_id_and_maps_far_ids() {
        let failed = || Job::new(0, JobSpec::default(), 1).finished(JobState::Failed("x".into()));
        let mut table = JobTable::default();
        for id in [3, 1, 2] {
            table.finish(id, failed());
        }
        let far = 1 << 40;
        table.finish(far, failed());
        assert_eq!(table.slots, vec![0, 2, 3, 1], "4-byte slots 0..=3");
        assert_eq!(table.far.len(), 1);
        assert_eq!(table.len(), 4);
        assert!(table.get(far).is_some() && table.get(2).is_some());
        assert!(table.get(0).is_none() && table.get(4).is_none());
        table.finish(2, failed());
        table.remove(2);
        table.remove(far);
        table.remove(99);
        assert_eq!(table.len(), 2);
        assert_eq!(table.finished().count(), 2);
        assert!(table.get(2).is_none() && table.get(far).is_none());

        // A live job replaces the record under its id, and its record
        // replaces it again.
        let live = Arc::new(Job::new(1, JobSpec::default(), 1));
        table.insert_live(Arc::clone(&live));
        assert!(matches!(table.get(1), Some(Tracked::Live(_))));
        assert_eq!((table.len(), table.live.len()), (2, 1));
        table.finish(1, live.finished(JobState::Failed("y".into())));
        assert!(matches!(table.get(1), Some(Tracked::Finished(_))));
        assert_eq!((table.len(), table.live.len()), (2, 0));
    }

    /// Run-cache hits of one fingerprint share one record; a new report
    /// for the fingerprint gets a new record, and earlier hits keep theirs.
    #[test]
    fn cached_hits_of_a_fingerprint_share_a_record() {
        let (a, b) = (report(), report());
        let mut table = JobTable::default();
        table.finish_cached(1, 0xf, "gamess", Arc::clone(&a));
        table.finish_cached(2, 0xf, "gamess", Arc::clone(&a));
        table.finish_cached(3, 0xe, "gamess", Arc::clone(&a));
        table.finish_cached(4, 0xf, "gamess", Arc::clone(&b));
        assert_eq!(table.slots, vec![0, 1, 1, 2, 3]);
        assert_eq!(table.records.len(), 3);
        let record = |id| match table.get(id) {
            Some(Tracked::Finished(f)) => f,
            _ => panic!("job {id} is not finished"),
        };
        assert!(Arc::ptr_eq(&record(1), &record(2)));
        assert!(matches!(&record(4).state, JobState::Done(r) if Arc::ptr_eq(r, &b)));
        assert_eq!(table.finished().count(), 4);
    }

    /// A shared cached record's status body, its job id spliced in front
    /// of the stored text, is the body a live job of the same
    /// fingerprint renders, for any id.
    #[test]
    fn cached_status_body_renders_like_the_slow_path() {
        let spec = JobSpec {
            workload: "gamess".into(),
            ..JobSpec::default()
        };
        let report = report();
        let record = Arc::new(cached_record(0xfeed, &spec.workload, Arc::clone(&report)));
        for id in [7, 1_234_567_890_123] {
            let live = Arc::new(Job::new(id, spec.clone(), 0xfeed));
            live.set_state(JobState::Done(Arc::clone(&report)));
            let fast = job_status_body(id, &Tracked::Finished(Arc::clone(&record)));
            assert_eq!(fast, job_status_body(id, &Tracked::Live(live)));
            assert_eq!(
                fast,
                render_status(
                    id,
                    "gamess",
                    0xfeed,
                    0,
                    &JobState::Done(Arc::clone(&report))
                )
            );
        }
    }
}
