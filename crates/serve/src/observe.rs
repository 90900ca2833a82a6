//! Daemon observability: stage-latency histograms and a flight recorder.
//!
//! [`ServeMetrics`] times every job through the daemon's pipeline —
//! submit handling, queue wait, cache lookup, simulation run, report
//! serialization, and submit-to-terminal end-to-end — into
//! [`Histogram`]s that `/metrics` renders as cumulative bucket lines
//! and `/v1/status` summarizes as percentiles. End-to-end time is also
//! broken out by outcome (`done`/`failed`/`cached`) and, with bounded
//! cardinality, by submitting client.
//!
//! [`WorkerStats`] records what the resident workers do: each job's
//! execution time and each worker's busy share of wall time.
//!
//! [`FlightRecorder`] keeps the last N per-job stage timing records in
//! a fixed-size ring. Together with the tracer's non-destructive event
//! snapshot it backs `GET /v1/flight-recorder` and the crash dump the
//! daemon writes when a job panics (`--flight-dump`): enough recent
//! history to reconstruct "what was the daemon doing just before this
//! happened" without unbounded memory.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use esteem_stats::{labeled, Histogram, HistogramSnapshot, Scope, StatsSource};
use esteem_trace::TraceEvent;
use serde::{Serialize, Value};

/// How a job reached its terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Executed and completed.
    Done,
    /// Executed and panicked (bad configuration, simulator assert).
    Failed,
    /// Answered straight from the run cache at submit.
    Cached,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Done => "done",
            Outcome::Failed => "failed",
            Outcome::Cached => "cached",
        }
    }
}

const OUTCOMES: [Outcome; 3] = [Outcome::Done, Outcome::Failed, Outcome::Cached];

/// Distinct `client` label values tracked individually; the rest pool
/// into `client="other"` so a sweep with unbounded client names cannot
/// grow the metric set without bound.
const MAX_CLIENT_LABELS: usize = 16;

/// Stage-latency instrumentation for the daemon. All recording methods
/// take `&self` (histograms are atomic); one instance lives in the
/// server state and is shared with the workers.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Construction time: uptime origin and the epoch for
    /// [`Self::now_us`] job timestamps.
    epoch: Instant,
    /// Wall time of the `POST /v1/jobs` handler (resolve + dedupe +
    /// enqueue), all submissions including rejected and shed.
    pub submit_us: Histogram,
    /// Queue push to worker start.
    pub queue_wait_us: Histogram,
    /// Run-cache lookup inside the worker.
    pub cache_lookup_us: Histogram,
    /// Simulation run (cache misses only).
    pub run_us: Histogram,
    /// Report serialization + run-cache insert.
    pub serialize_us: Histogram,
    /// Submit to terminal state, by outcome (indexed like [`OUTCOMES`]).
    e2e_us: [Histogram; 3],
    /// Per-client end-to-end, bounded by [`MAX_CLIENT_LABELS`].
    clients: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            submit_us: Histogram::new(),
            queue_wait_us: Histogram::new(),
            cache_lookup_us: Histogram::new(),
            run_us: Histogram::new(),
            serialize_us: Histogram::new(),
            e2e_us: [Histogram::new(), Histogram::new(), Histogram::new()],
            clients: Mutex::new(HashMap::new()),
        }
    }

    /// Microseconds since the daemon started (job timestamp clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    pub fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records a terminal transition: end-to-end latency by outcome and
    /// by (bounded) client.
    pub fn record_e2e(&self, outcome: Outcome, client: &str, us: u64) {
        self.e2e_us[outcome as usize].record(us);
        self.client_hist(client).record(us);
    }

    pub fn e2e_us(&self, outcome: Outcome) -> HistogramSnapshot {
        self.e2e_us[outcome as usize].snapshot()
    }

    /// The histogram for `client`, creating it while under the label
    /// budget and falling back to the shared `other` slot beyond it.
    fn client_hist(&self, client: &str) -> Arc<Histogram> {
        let mut map = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = map.get(client) {
            return Arc::clone(h);
        }
        let key = if map.len() < MAX_CLIENT_LABELS || client == "other" {
            client.to_owned()
        } else {
            "other".to_owned()
        };
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Histogram::new())))
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsSource for ServeMetrics {
    fn collect(&self, out: &mut Scope<'_>) {
        out.gauge("uptime_seconds", self.uptime_seconds());
        out.histogram("stage/submit_us", self.submit_us.snapshot());
        out.histogram("stage/queue_wait_us", self.queue_wait_us.snapshot());
        out.histogram("stage/cache_lookup_us", self.cache_lookup_us.snapshot());
        out.histogram("stage/run_us", self.run_us.snapshot());
        out.histogram("stage/serialize_us", self.serialize_us.snapshot());
        for o in OUTCOMES {
            out.histogram(
                &labeled("stage/e2e_us", &[("outcome", o.name())]),
                self.e2e_us(o),
            );
        }
        let mut clients: Vec<(String, HistogramSnapshot)> = self
            .clients
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        clients.sort_by(|a, b| a.0.cmp(&b.0));
        for (client, snap) in clients {
            out.histogram(&labeled("client_e2e_us", &[("client", &client)]), snap);
        }
    }
}

/// Activity of the daemon's resident workers, exported under `pool/` in
/// `/metrics` and as the `/v1/status` `workers` block. Recording is
/// lock-free.
#[derive(Debug)]
pub struct WorkerStats {
    /// Wall time of each executed job, microseconds.
    task_us: Histogram,
    /// Cumulative busy microseconds per worker.
    busy_us: Box<[AtomicU64]>,
    /// Jobs executing right now.
    active: AtomicU64,
    /// Jobs executed to a terminal state.
    completed: AtomicU64,
    /// Utilization denominator: construction time.
    epoch: Instant,
}

impl WorkerStats {
    pub fn new(workers: usize) -> Self {
        Self {
            task_us: Histogram::new(),
            busy_us: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            active: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Runs `task` as one job of worker `worker`: counted active while
    /// it runs, then its duration is recorded.
    pub fn run(&self, worker: usize, task: impl FnOnce()) {
        self.active.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        task();
        let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.task_us.record(us);
        self.busy_us[worker].fetch_add(us, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn workers(&self) -> usize {
        self.busy_us.len()
    }

    /// Jobs executing right now.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Job execution-time distribution so far.
    pub fn task_us(&self) -> HistogramSnapshot {
        self.task_us.snapshot()
    }

    /// Fraction of wall time worker `i` spent running jobs since the
    /// daemon started (clamped to 1.0 against timer skew).
    pub fn worker_utilization(&self, i: usize) -> f64 {
        let elapsed = self.epoch.elapsed().as_micros().max(1) as f64;
        (self.busy_us[i].load(Ordering::Relaxed) as f64 / elapsed).min(1.0)
    }

    /// Mean utilization across all workers.
    pub fn mean_utilization(&self) -> f64 {
        if self.busy_us.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.workers())
            .map(|i| self.worker_utilization(i))
            .sum();
        sum / self.workers() as f64
    }
}

impl StatsSource for WorkerStats {
    fn collect(&self, out: &mut Scope<'_>) {
        out.gauge("active", self.active() as f64);
        out.counter("completed", self.completed.load(Ordering::Relaxed));
        out.histogram("task_us", self.task_us());
        out.gauge("utilization", self.mean_utilization());
        out.scope("workers", |s| {
            for i in 0..self.workers() {
                s.gauge(&format!("{i}/utilization"), self.worker_utilization(i));
            }
        });
    }
}

/// One job's trip through the pipeline, for the flight recorder.
#[derive(Debug, Clone)]
pub struct JobTiming {
    pub job: u64,
    pub client: String,
    pub workload: String,
    pub outcome: Outcome,
    pub fingerprint: u64,
    pub queue_wait_us: u64,
    pub cache_lookup_us: u64,
    pub run_us: u64,
    pub serialize_us: u64,
    pub e2e_us: u64,
}

impl Serialize for JobTiming {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("job".into(), self.job.to_value()),
            ("client".into(), Value::Str(self.client.clone())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("outcome".into(), Value::Str(self.outcome.name().into())),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("queue_wait_us".into(), self.queue_wait_us.to_value()),
            ("cache_lookup_us".into(), self.cache_lookup_us.to_value()),
            ("run_us".into(), self.run_us.to_value()),
            ("serialize_us".into(), self.serialize_us.to_value()),
            ("e2e_us".into(), self.e2e_us.to_value()),
        ])
    }
}

/// Bounded ring of recent [`JobTiming`] records.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<JobTiming>>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    pub fn record(&self, timing: JobTiming) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(timing);
    }

    /// Recent records, oldest first.
    pub fn snapshot(&self) -> Vec<JobTiming> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The flight-recorder dump: recent job timings plus a non-destructive
/// snapshot of the tracer ring. Serves `GET /v1/flight-recorder` and the
/// panic crash dump.
pub fn flight_dump_value(jobs: &[JobTiming], trace: &[TraceEvent]) -> Value {
    Value::Map(vec![
        (
            "jobs".into(),
            Value::Seq(jobs.iter().map(|t| t.to_value()).collect()),
        ),
        (
            "trace".into(),
            Value::Seq(trace.iter().map(|e| e.to_value()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_labels_are_bounded_with_overflow_to_other() {
        let m = ServeMetrics::new();
        for i in 0..MAX_CLIENT_LABELS + 5 {
            m.record_e2e(Outcome::Done, &format!("client-{i:02}"), 100);
        }
        let map = m.clients.lock().unwrap();
        // The first MAX_CLIENT_LABELS names are tracked individually;
        // the five beyond the budget pooled into "other".
        assert_eq!(map.len(), MAX_CLIENT_LABELS + 1);
        assert_eq!(map.get("other").unwrap().snapshot().count(), 5);
        assert_eq!(map.get("client-00").unwrap().snapshot().count(), 1);
        drop(map);
        assert_eq!(
            m.e2e_us(Outcome::Done).count() as usize,
            MAX_CLIENT_LABELS + 5
        );
    }

    #[test]
    fn stats_source_emits_labeled_stage_histograms() {
        let m = ServeMetrics::new();
        m.submit_us.record(40);
        m.record_e2e(Outcome::Failed, "ci", 1234);
        let mut r = esteem_stats::StatsReading::new();
        r.register("serve", &m);
        assert_eq!(r.histogram("serve/stage/submit_us").unwrap().count(), 1);
        assert_eq!(
            r.histogram("serve/stage/e2e_us{outcome=\"failed\"}")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            r.histogram("serve/client_e2e_us{client=\"ci\"}")
                .unwrap()
                .count(),
            1
        );
        let text = r.render_text();
        assert!(
            text.contains("serve/stage/e2e_us_bucket{outcome=\"failed\",le="),
            "labeled buckets missing:\n{text}"
        );
    }

    #[test]
    fn worker_stats_record_tasks_and_utilization() {
        let w = WorkerStats::new(2);
        for _ in 0..3 {
            w.run(1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        assert_eq!(w.active(), 0);
        assert!(w.task_us().quantile(0.5) >= 1_000, "tasks slept ~2ms");
        assert_eq!(w.worker_utilization(0), 0.0);
        assert!(w.worker_utilization(1) > 0.0);
        assert!(w.mean_utilization() <= 1.0);
        let mut r = esteem_stats::StatsReading::new();
        r.register("pool", &w);
        assert_eq!(r.histogram("pool/task_us").unwrap().count(), 3);
        assert_eq!(r.counter("pool/completed"), 3);
        let text = r.render_text();
        for needle in [
            "pool/active 0.0",
            "pool/utilization ",
            "pool/workers/1/utilization ",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn flight_recorder_ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(JobTiming {
                job: i,
                client: "c".into(),
                workload: "gamess".into(),
                outcome: Outcome::Done,
                fingerprint: 7,
                queue_wait_us: 1,
                cache_lookup_us: 2,
                run_us: 3,
                serialize_us: 4,
                e2e_us: 10,
            });
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<u64> = snap.iter().map(|t| t.job).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest evicted, order preserved");
        let v = flight_dump_value(&snap, &[]);
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("\"run_us\":3") && text.contains("\"trace\":[]"));
    }
}
