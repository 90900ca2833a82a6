//! Daemon observability: one timing record per job.
//!
//! Each job's stages — queue wait, cache lookup, simulation run, report
//! serialization and submit-to-terminal end-to-end — are timed once, on
//! the [`ServeMetrics`] clock, into the job's [`JobTiming`]. One call,
//! [`ServeMetrics::record`], made as the job becomes terminal, feeds
//! every view of it: the stage [`Histogram`]s that `/metrics` renders as
//! cumulative bucket lines and `/v1/status` summarizes as percentiles,
//! end-to-end time by outcome (`done`/`failed`/`cached`), the busy time
//! of the worker that ran it, and the flight recorder: a ring of the
//! last N records behind `GET /v1/flight-recorder` and the crash dump
//! the daemon writes when a job panics (`--flight-dump`).
//!
//! The submit stage is the one exception: the `POST /v1/jobs` handler
//! times every request into `submit_us`, rejected ones too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use esteem_stats::{labeled, Histogram, HistogramSnapshot, Scope, StatsSource};
use serde::{Serialize, Value};

/// How a job reached its terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Executed and completed.
    Done,
    /// Executed and panicked (bad configuration, simulator assert).
    Failed,
    /// Answered from the run cache without running.
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

/// One job's trip through the pipeline, in microseconds on the
/// [`ServeMetrics`] clock.
#[derive(Debug, Clone)]
pub struct JobTiming {
    pub job: u64,
    pub client: String,
    pub workload: String,
    pub outcome: Outcome,
    pub fingerprint: u64,
    /// The worker that ran the job (`None` for a cached job).
    pub worker: Option<usize>,
    /// Queue push to worker start (0 for a cached job).
    pub queue_wait_us: u64,
    pub cache_lookup_us: u64,
    /// Simulation run (0 unless the run completed).
    pub run_us: u64,
    /// Run-cache insert of the report (0 unless the run completed).
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
            ("worker".into(), self.worker.map(|w| w as u64).to_value()),
            ("queue_wait_us".into(), self.queue_wait_us.to_value()),
            ("cache_lookup_us".into(), self.cache_lookup_us.to_value()),
            ("run_us".into(), self.run_us.to_value()),
            ("serialize_us".into(), self.serialize_us.to_value()),
            ("e2e_us".into(), self.e2e_us.to_value()),
        ])
    }
}

/// The daemon's job timing: stage histograms, per-worker busy time and
/// the flight recorder, all fed by [`Self::record`]. Every method takes
/// `&self`; one instance lives in the server state and is shared with
/// the workers.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Construction time: the origin of [`Self::now_us`], uptime, and
    /// the utilization denominator.
    epoch: Instant,
    /// Wall time of the `POST /v1/jobs` handler (resolve + dedupe +
    /// enqueue), all submissions including rejected and shed.
    pub submit_us: Histogram,
    /// Queue push to worker start, for every job a worker ran.
    pub queue_wait_us: Histogram,
    /// Run-cache lookup at submit.
    pub cache_lookup_us: Histogram,
    /// Simulation run (completed runs only).
    pub run_us: Histogram,
    /// Report serialization + run-cache insert (completed runs only).
    pub serialize_us: Histogram,
    /// Submit to terminal state, by outcome (indexed like [`OUTCOMES`]).
    e2e_us: [Histogram; 3],
    /// Run + serialize microseconds per worker.
    busy_us: Box<[AtomicU64]>,
    flight_capacity: usize,
    /// The last `flight_capacity` records, oldest first.
    flight: Mutex<VecDeque<JobTiming>>,
}

impl ServeMetrics {
    /// Metrics for a daemon of `workers` workers whose flight recorder
    /// keeps the last `flight_jobs` records (at least one).
    pub fn new(workers: usize, flight_jobs: usize) -> Self {
        Self {
            epoch: Instant::now(),
            submit_us: Histogram::new(),
            queue_wait_us: Histogram::new(),
            cache_lookup_us: Histogram::new(),
            run_us: Histogram::new(),
            serialize_us: Histogram::new(),
            e2e_us: [Histogram::new(), Histogram::new(), Histogram::new()],
            busy_us: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            flight_capacity: flight_jobs.max(1),
            flight: Mutex::new(VecDeque::new()),
        }
    }

    /// Microseconds since the daemon started (job timestamp clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Microseconds from `t0`, a [`Self::now_us`] reading, to now.
    pub fn since(&self, t0: u64) -> u64 {
        self.now_us().saturating_sub(t0)
    }

    pub fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records a terminal job: each stage into its histogram (queue wait
    /// for jobs a worker ran, run and serialize for completed runs), its
    /// end-to-end time by outcome, its run and serialize time as its
    /// worker's busy time, and the record itself into the flight
    /// recorder.
    pub fn record(&self, t: JobTiming) {
        if t.worker.is_some() {
            self.queue_wait_us.record(t.queue_wait_us);
        }
        self.cache_lookup_us.record(t.cache_lookup_us);
        if t.run_us > 0 {
            self.run_us.record(t.run_us);
            self.serialize_us.record(t.serialize_us);
        }
        self.e2e_us[t.outcome as usize].record(t.e2e_us);
        if let Some(w) = t.worker {
            self.busy_us[w].fetch_add(t.run_us + t.serialize_us, Ordering::Relaxed);
        }
        let mut ring = self.flight();
        if ring.len() == self.flight_capacity {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    pub fn e2e_us(&self, outcome: Outcome) -> HistogramSnapshot {
        self.e2e_us[outcome as usize].snapshot()
    }

    pub fn workers(&self) -> usize {
        self.busy_us.len()
    }

    /// Fraction of wall time worker `i` spent running and serializing
    /// jobs since the daemon started (clamped to 1.0 against timer skew).
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

    /// The `pool/` metrics: mean and per-worker utilization.
    pub fn collect_pool(&self, out: &mut Scope<'_>) {
        out.gauge("utilization", self.mean_utilization());
        out.scope("workers", |s| {
            for i in 0..self.workers() {
                s.gauge(&format!("{i}/utilization"), self.worker_utilization(i));
            }
        });
    }

    /// Recent job records, oldest first.
    pub fn flight_records(&self) -> Vec<JobTiming> {
        self.flight().iter().cloned().collect()
    }

    pub fn flight_len(&self) -> usize {
        self.flight().len()
    }

    /// The flight-recorder dump, `{"jobs": [...]}`: serves
    /// `GET /v1/flight-recorder` and the panic crash dump.
    pub fn flight_dump(&self) -> Value {
        let jobs = self.flight().iter().map(|t| t.to_value()).collect();
        Value::Map(vec![("jobs".into(), Value::Seq(jobs))])
    }

    fn flight(&self) -> std::sync::MutexGuard<'_, VecDeque<JobTiming>> {
        self.flight.lock().unwrap_or_else(|e| e.into_inner())
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(job: u64, outcome: Outcome, worker: Option<usize>) -> JobTiming {
        JobTiming {
            job,
            client: "c".into(),
            workload: "gamess".into(),
            outcome,
            fingerprint: 7,
            worker,
            queue_wait_us: 1,
            cache_lookup_us: 2,
            run_us: 3,
            serialize_us: 4,
            e2e_us: 1234,
        }
    }

    #[test]
    fn stats_source_emits_labeled_stage_histograms() {
        let m = ServeMetrics::new(2, 4);
        m.submit_us.record(40);
        m.record(timing(1, Outcome::Failed, Some(1)));
        let mut r = esteem_stats::StatsReading::new();
        r.register("serve", &m);
        r.scope("pool", |s| m.collect_pool(s));
        assert_eq!(r.histogram("serve/stage/submit_us").unwrap().count(), 1);
        assert_eq!(
            r.histogram("serve/stage/e2e_us{outcome=\"failed\"}")
                .unwrap()
                .count(),
            1
        );
        let text = r.render_text();
        for needle in [
            "serve/stage/e2e_us_bucket{outcome=\"failed\",le=",
            "pool/utilization ",
            "pool/workers/1/utilization ",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn flight_recorder_ring_is_bounded_and_ordered() {
        let m = ServeMetrics::new(1, 3);
        for i in 0..5u64 {
            m.record(timing(i, Outcome::Done, Some(0)));
        }
        let ids: Vec<u64> = m.flight_records().iter().map(|t| t.job).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(m.run_us.snapshot().count(), 5, "histograms keep all five");
        let text = serde_json::to_string(&m.flight_dump()).unwrap();
        assert!(text.starts_with("{\"jobs\":[{\"job\":2,"), "{text}");
        assert!(text.contains("\"worker\":0") && text.contains("\"run_us\":3"));
    }
}
