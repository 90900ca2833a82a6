//! Job specifications and per-job state.
//!
//! A [`JobSpec`] is the JSON body of `POST /v1/jobs`. Its fields mirror
//! the `esteem-sim` CLI flags one-to-one so that a job submitted to the
//! daemon and a CLI invocation with the same options resolve to the
//! *same* [`SystemConfig`] — and therefore the same run-cache
//! fingerprint and the byte-identical report.
//!
//! The vendored serde stand-in has no `#[serde(default)]`, so
//! [`JobSpec`] implements `Deserialize` by hand: every field is
//! optional in the wire form and falls back to the CLI default, and
//! unknown fields are rejected with the offending name (a typo in a
//! sweep script should fail loudly at submit, not run the default).

use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex};

use esteem_core::{AlgoParams, SimReport, SystemConfig, Technique};
use esteem_edram::RetentionSpec;
use esteem_workloads::{benchmark_by_name, mixes::mix_by_acronym, BenchmarkProfile};
use serde::{map_get, Deserialize, Serialize, Value};

/// One job request: workload + technique + simulation knobs, plus the
/// scheduling fields `priority` and `client`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub workload: String,
    pub technique: String,
    pub retention_us: f64,
    pub instructions: u64,
    pub alpha: f64,
    pub a_min: u8,
    pub modules: Option<u16>,
    pub interval: u64,
    pub rs: u32,
    pub ecc_periods: u8,
    pub ecc_bits: u8,
    pub ways: u8,
    pub seed: u64,
    /// Warm-up cycles excluded from metrics; `None` keeps the config
    /// default (35 M, the paper's fast-forward stand-in). Load tests
    /// submit small values so a job costs milliseconds, not seconds.
    /// Part of the fingerprint: runs with different warm-up lengths are
    /// different simulations.
    pub warmup: Option<u64>,
    /// Higher runs first; ties are served fairly across clients.
    pub priority: u8,
    /// Fairness key: the queue round-robins across distinct clients.
    pub client: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        // Keep in lockstep with `esteem-sim`'s `Args::default` — the
        // whole point of the daemon is that the same options mean the
        // same simulation.
        Self {
            workload: String::new(),
            technique: "esteem".into(),
            retention_us: 50.0,
            instructions: 10_000_000,
            alpha: 0.97,
            a_min: 3,
            modules: None,
            interval: 10_000_000,
            rs: 64,
            ecc_periods: 4,
            ecc_bits: 1,
            ways: 4,
            seed: 1,
            warmup: None,
            priority: 1,
            client: "anon".into(),
        }
    }
}

/// `JobSpec::write_json` writes the same JSON without the `Value`
/// tree; change both together (a journal test pins them byte for byte).
impl Serialize for JobSpec {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("technique".into(), Value::Str(self.technique.clone())),
            ("retention_us".into(), Value::F64(self.retention_us)),
            ("instructions".into(), self.instructions.to_value()),
            ("alpha".into(), Value::F64(self.alpha)),
            ("a_min".into(), self.a_min.to_value()),
        ];
        if let Some(modules) = self.modules {
            m.push(("modules".into(), modules.to_value()));
        }
        m.extend([
            ("interval".into(), self.interval.to_value()),
            ("rs".into(), self.rs.to_value()),
            ("ecc_periods".into(), self.ecc_periods.to_value()),
            ("ecc_bits".into(), self.ecc_bits.to_value()),
            ("ways".into(), self.ways.to_value()),
            ("seed".into(), self.seed.to_value()),
        ]);
        if let Some(warmup) = self.warmup {
            m.push(("warmup".into(), warmup.to_value()));
        }
        m.extend([
            ("priority".into(), self.priority.to_value()),
            ("client".into(), Value::Str(self.client.clone())),
        ]);
        Value::Map(m)
    }
}

impl JobSpec {
    /// Appends the spec as `serde_json::to_string(&spec.to_value())`
    /// writes it: the journal's and the client's encoding of a spec.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        push_json_str(out, &self.workload);
        out.push_str(",\"technique\":");
        push_json_str(out, &self.technique);
        out.push_str(",\"retention_us\":");
        push_json_f64(out, self.retention_us);
        let _ = write!(out, ",\"instructions\":{}", self.instructions);
        out.push_str(",\"alpha\":");
        push_json_f64(out, self.alpha);
        let _ = write!(out, ",\"a_min\":{}", self.a_min);
        if let Some(modules) = self.modules {
            let _ = write!(out, ",\"modules\":{modules}");
        }
        let _ = write!(
            out,
            ",\"interval\":{},\"rs\":{},\"ecc_periods\":{},\"ecc_bits\":{},\"ways\":{},\"seed\":{}",
            self.interval, self.rs, self.ecc_periods, self.ecc_bits, self.ways, self.seed
        );
        if let Some(warmup) = self.warmup {
            let _ = write!(out, ",\"warmup\":{warmup}");
        }
        let _ = write!(out, ",\"priority\":{},\"client\":", self.priority);
        push_json_str(out, &self.client);
        out.push('}');
    }
}

/// A float as `serde_json` writes it: `{:?}`, or `null` when not finite.
fn push_json_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// A JSON string as `serde_json` writes it. Text with nothing to escape,
/// which is nearly all of it, is copied as is; the rest goes through
/// `serde_json`.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push('"');
        out.push_str(s);
        out.push('"');
    } else {
        out.push_str(&serde_json::to_string(s).expect("a string serializes"));
    }
}

const KNOWN_FIELDS: &[&str] = &[
    "workload",
    "technique",
    "retention_us",
    "instructions",
    "alpha",
    "a_min",
    "modules",
    "interval",
    "rs",
    "ecc_periods",
    "ecc_bits",
    "ways",
    "seed",
    "warmup",
    // Accepted and ignored: journals written while the simulator had a
    // refill thread count store it in every spec.
    "threads",
    "priority",
    "client",
];

/// Reads an optional field: absent (or JSON null) keeps the default.
fn opt<T: Deserialize>(m: &[(String, Value)], key: &str, slot: &mut T) -> Result<(), serde::Error> {
    match map_get(m, key) {
        Ok(Value::Null) | Err(_) => Ok(()),
        Ok(v) => {
            *slot = T::from_value(v).map_err(|e| serde::Error::custom(format!("{key}: {e}")))?;
            Ok(())
        }
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("job spec must be a JSON object"))?;
        if let Some((unknown, _)) = m.iter().find(|(k, _)| !KNOWN_FIELDS.contains(&k.as_str())) {
            return Err(serde::Error::custom(format!("unknown field `{unknown}`")));
        }
        let workload = map_get(m, "workload")
            .map_err(|_| serde::Error::custom("missing field `workload`"))?
            .as_str()
            .ok_or_else(|| serde::Error::custom("workload must be a string"))?
            .to_owned();
        let mut spec = JobSpec {
            workload,
            ..JobSpec::default()
        };
        opt(m, "technique", &mut spec.technique)?;
        opt(m, "retention_us", &mut spec.retention_us)?;
        opt(m, "instructions", &mut spec.instructions)?;
        opt(m, "alpha", &mut spec.alpha)?;
        opt(m, "a_min", &mut spec.a_min)?;
        if let Ok(v) = map_get(m, "modules") {
            if !matches!(v, Value::Null) {
                let modules = u16::from_value(v)
                    .map_err(|e| serde::Error::custom(format!("modules: {e}")))?;
                spec.modules = Some(modules);
            }
        }
        opt(m, "interval", &mut spec.interval)?;
        opt(m, "rs", &mut spec.rs)?;
        opt(m, "ecc_periods", &mut spec.ecc_periods)?;
        opt(m, "ecc_bits", &mut spec.ecc_bits)?;
        opt(m, "ways", &mut spec.ways)?;
        opt(m, "seed", &mut spec.seed)?;
        if let Ok(v) = map_get(m, "warmup") {
            if !matches!(v, Value::Null) {
                let warmup =
                    u64::from_value(v).map_err(|e| serde::Error::custom(format!("warmup: {e}")))?;
                spec.warmup = Some(warmup);
            }
        }
        opt(m, "threads", &mut 0usize)?;
        opt(m, "priority", &mut spec.priority)?;
        opt(m, "client", &mut spec.client)?;
        Ok(spec)
    }
}

/// A spec resolved to concrete simulation inputs plus its run-cache
/// fingerprint (the coalescing key).
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    pub cfg: SystemConfig,
    pub profiles: Vec<BenchmarkProfile>,
    pub label: String,
    pub fingerprint: u64,
}

impl JobSpec {
    /// Resolves the spec into simulator inputs, mirroring `esteem-sim`'s
    /// flag handling exactly.
    ///
    /// This rejects what can be rejected cheaply at submit time (unknown
    /// workload, unknown technique, unparsable retention). It does *not*
    /// run the full [`SystemConfig`] validation: the daemon treats the
    /// simulator as untrusted and lets an invalid configuration panic
    /// inside the isolated worker, which fails that one job while the
    /// daemon keeps serving.
    pub fn resolve(&self) -> Result<ResolvedJob, String> {
        let (profiles, cores) = if let Some(b) = benchmark_by_name(&self.workload) {
            (vec![b], 1)
        } else if let Some(m) = mix_by_acronym(&self.workload) {
            (vec![m.a, m.b], 2)
        } else {
            return Err(format!("unknown workload '{}'", self.workload));
        };
        let algo = AlgoParams {
            alpha: self.alpha,
            a_min: self.a_min,
            modules: self.modules.unwrap_or(if cores == 1 { 8 } else { 16 }),
            interval_cycles: self.interval,
            rs: self.rs,
            max_step: None,
            non_lru_guard: true,
            shrink_confirm: true,
        };
        let technique = match self.technique.as_str() {
            "baseline" => Technique::Baseline,
            "rpv" => Technique::Rpv,
            "rpd" => Technique::Rpd,
            "periodic-valid" => Technique::PeriodicValid,
            "esteem" => Technique::Esteem(algo),
            "ecc" => Technique::EccRefresh {
                periods: self.ecc_periods,
                ecc_bits: self.ecc_bits,
            },
            "static" => Technique::StaticWays { ways: self.ways },
            other => return Err(format!("unknown technique '{other}'")),
        };
        let mut cfg = if cores == 1 {
            SystemConfig::paper_single_core(technique)
        } else {
            SystemConfig::paper_dual_core(technique)
        };
        cfg.retention = RetentionSpec::try_from_micros(self.retention_us, 2.0)
            .map_err(|e| format!("retention_us {}: {e}", self.retention_us))?;
        cfg.sim_instructions = self.instructions;
        cfg.seed = self.seed;
        if let Some(w) = self.warmup {
            cfg.warmup_cycles = w;
        }
        let label = self.workload.clone();
        let fingerprint = esteem_harness::runcache::fingerprint(&cfg, &profiles, &label);
        Ok(ResolvedJob {
            cfg,
            profiles,
            label,
            fingerprint,
        })
    }
}

/// Lifecycle of one job. A finished report is shared with the run cache,
/// so cloning a state copies no report.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    Queued,
    Running,
    Done(Arc<SimReport>),
    Failed(String),
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Growing buffer of progress lines (JSONL interval samples) with
/// blocking subscription: a `/events` stream reads lines as they land
/// and ends when the job closes the buffer.
#[derive(Debug, Default)]
pub struct JobEvents {
    inner: Mutex<EventsInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct EventsInner {
    lines: Vec<String>,
    closed: bool,
}

impl JobEvents {
    pub fn push(&self, line: String) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return;
        }
        inner.lines.push(line);
        self.cv.notify_all();
    }

    /// Closes the buffer: every blocked and future reader drains the
    /// remaining lines and then sees end-of-stream. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        self.cv.notify_all();
    }

    /// Blocks until line `cursor` exists (returning it) or the buffer is
    /// closed with no more lines (returning `None`).
    pub fn next_after(&self, cursor: usize) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if cursor < inner.lines.len() {
                return Some(inner.lines[cursor].clone());
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Every line pushed so far.
    pub fn lines(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lines
            .clone()
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lines
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Blocking iterator over a job's event lines (feeds a chunked HTTP
/// response; ends when the job reaches a terminal state).
pub struct EventStream {
    events: Arc<JobEvents>,
    cursor: usize,
}

impl EventStream {
    pub fn new(events: Arc<JobEvents>) -> Self {
        Self { events, cursor: 0 }
    }
}

impl Iterator for EventStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let line = self.events.next_after(self.cursor)?;
        self.cursor += 1;
        Some(line)
    }
}

/// One tracked job: immutable identity plus mutable state.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    pub fingerprint: u64,
    pub state: Mutex<JobState>,
    pub events: Arc<JobEvents>,
    /// How many later submissions coalesced onto this execution.
    pub coalesced: std::sync::atomic::AtomicU64,
    /// Enqueue timestamp (`Tracer::elapsed_us` bits) for the queue-wait
    /// span; 0 until the job is queued.
    pub queued_at_us: std::sync::atomic::AtomicU64,
    /// Submit timestamp on the daemon's `ServeMetrics` clock
    /// (microseconds since daemon start), the origin for the
    /// end-to-end stage latency; 0 until the job is accepted.
    pub born_at_us: std::sync::atomic::AtomicU64,
    /// How long the run-cache lookup at submit took (0 for a job
    /// recovered from the journal).
    pub cache_lookup_us: std::sync::atomic::AtomicU64,
}

impl Job {
    pub fn new(id: u64, spec: JobSpec, fingerprint: u64) -> Self {
        Self {
            id,
            spec,
            fingerprint,
            state: Mutex::new(JobState::Queued),
            events: Arc::new(JobEvents::default()),
            coalesced: std::sync::atomic::AtomicU64::new(0),
            queued_at_us: std::sync::atomic::AtomicU64::new(0),
            born_at_us: std::sync::atomic::AtomicU64::new(0),
            cache_lookup_us: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub fn state(&self) -> JobState {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn set_state(&self, next: JobState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = next;
    }

    /// The compact record that replaces this job once it reaches the
    /// terminal `state`.
    pub fn finished(&self, state: JobState) -> FinishedJob {
        FinishedJob {
            fingerprint: self.fingerprint,
            workload: self.spec.workload.as_str().into(),
            coalesced: self.coalesced.load(std::sync::atomic::Ordering::Relaxed),
            state,
            events: self.events.lines().into_boxed_slice(),
            status_tail: None,
        }
    }
}

/// What the job table keeps of a terminal job: what its status and
/// events requests return, without the spec, the state mutex and the
/// event channel of a live [`Job`]. It holds nothing that tells one job
/// from another, so run-cache hits of one fingerprint share one record.
#[derive(Debug)]
pub struct FinishedJob {
    pub fingerprint: u64,
    pub workload: Box<str>,
    pub coalesced: u64,
    /// [`JobState::Done`] or [`JobState::Failed`].
    pub state: JobState,
    /// The job's event lines (no allocation when it produced none).
    pub events: Box<[String]>,
    /// The status body after its job id, rendered once, for the record
    /// run-cache hits of one fingerprint share: each fetch splices its
    /// own id in front. `None` renders on fetch.
    pub status_tail: Option<Box<str>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_match_cli_defaults() {
        let spec = JobSpec::default();
        assert_eq!(spec.technique, "esteem");
        assert_eq!(spec.retention_us, 50.0);
        assert_eq!(spec.instructions, 10_000_000);
        assert_eq!(spec.alpha, 0.97);
        assert_eq!(spec.a_min, 3);
        assert_eq!(spec.seed, 1);
    }

    #[test]
    fn minimal_json_gets_defaults() {
        let spec: JobSpec = serde_json::from_str("{\"workload\":\"gamess\"}").unwrap();
        assert_eq!(spec.workload, "gamess");
        assert_eq!(
            spec,
            JobSpec {
                workload: "gamess".into(),
                ..JobSpec::default()
            }
        );
    }

    #[test]
    fn unknown_field_is_rejected_by_name() {
        let err = serde_json::from_str::<JobSpec>("{\"workload\":\"gamess\",\"retention\":40}")
            .expect_err("typo must be rejected");
        assert!(err.to_string().contains("retention"), "got: {err}");
    }

    #[test]
    fn missing_workload_is_rejected() {
        let err = serde_json::from_str::<JobSpec>("{\"technique\":\"rpv\"}").unwrap_err();
        assert!(err.to_string().contains("workload"), "got: {err}");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            workload: "gamess_milc".into(),
            technique: "ecc".into(),
            retention_us: 40.0,
            modules: Some(4),
            warmup: Some(500_000),
            priority: 7,
            client: "sweeper".into(),
            ..JobSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn warmup_override_changes_the_fingerprint() {
        // Warm-up length changes the simulated region, so short-warm-up
        // load-test jobs must never hit the run cache of (or coalesce
        // with) a full-warm-up run of the same options.
        let full = JobSpec {
            workload: "gamess".into(),
            ..JobSpec::default()
        };
        let short = JobSpec {
            warmup: Some(200_000),
            ..full.clone()
        };
        let a = full.resolve().unwrap();
        let b = short.resolve().unwrap();
        assert_eq!(b.cfg.warmup_cycles, 200_000);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    /// Specs stored before the refill thread count was removed carry a
    /// `threads` key: it still decodes, and it never was part of the
    /// fingerprint.
    #[test]
    fn legacy_threads_key_decodes_with_the_same_fingerprint() {
        let with: JobSpec =
            serde_json::from_str("{\"workload\":\"gamess\",\"seed\":2,\"threads\":3}").unwrap();
        let without: JobSpec =
            serde_json::from_str("{\"workload\":\"gamess\",\"seed\":2}").unwrap();
        assert_eq!(with, without);
        assert_eq!(
            with.resolve().unwrap().fingerprint,
            without.resolve().unwrap().fingerprint
        );
        let bad = serde_json::from_str::<JobSpec>("{\"workload\":\"gamess\",\"threads\":\"x\"}")
            .expect_err("a mistyped value is still rejected");
        assert!(bad.to_string().contains("threads"), "got: {bad}");
    }

    #[test]
    fn resolve_rejects_unknown_workload_and_technique() {
        let mut spec = JobSpec {
            workload: "nope".into(),
            ..JobSpec::default()
        };
        assert!(spec.resolve().unwrap_err().contains("unknown workload"));
        spec.workload = "gamess".into();
        spec.technique = "warp".into();
        assert!(spec.resolve().unwrap_err().contains("unknown technique"));
    }

    #[test]
    fn identical_specs_share_a_fingerprint() {
        let spec = JobSpec {
            workload: "gamess".into(),
            instructions: 100_000,
            ..JobSpec::default()
        };
        let a = spec.resolve().unwrap();
        let b = spec.clone().resolve().unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        let other = JobSpec { seed: 2, ..spec };
        assert_ne!(a.fingerprint, other.resolve().unwrap().fingerprint);
    }

    #[test]
    fn events_stream_drains_then_ends() {
        let events = Arc::new(JobEvents::default());
        events.push("a".into());
        events.push("b".into());
        let feeder = Arc::clone(&events);
        let t = std::thread::spawn(move || {
            feeder.push("c".into());
            feeder.close();
        });
        let got: Vec<String> = EventStream::new(Arc::clone(&events)).collect();
        t.join().unwrap();
        assert_eq!(got, vec!["a", "b", "c"]);
        // Closed buffer refuses further lines.
        events.push("late".into());
        assert_eq!(events.len(), 3);
    }
}
