//! The daemon workloads. An in-process `esteem-serve` daemon is reached only
//! through `server::spawn` and the stock `esteem_serve::client` calls, and
//! driven by closed-loop clients: every caller of the daemon
//! (`esteem-client`, the coordinator's dispatchers, sweep scripts) waits
//! for its job before it submits the next one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esteem_core::{SimReport, Simulator};
use esteem_serve::{client, server, Daemon, JobSpec, Outcome as JobOutcome, ServerOptions};
use esteem_stats::HistogramSnapshot;

use crate::metrics::{
    mean, median, percentile, ratio, splitmix64, status_mib, Metrics, Outcome, Tally,
};
use crate::Args;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every timed job is a run-cache hit.
    Hit,
    /// No spec repeats.
    Fresh,
}

/// Closed-loop clients, one per host core.
const CLIENTS: u64 = 2;
/// Distinct specs `serve-hit` cycles through.
const HIT_SPECS: u64 = 16;
/// Daemon results compared byte for byte with direct simulator runs.
const SAMPLES: usize = 16;
/// Timed daemon starts for `setup_s`, besides the one that serves the load.
const SETUP_REPS: usize = 8;
/// Untimed jobs `serve-fresh` runs before its window.
const FRESH_WARMUP: u64 = 8;
/// Hard stop for a window that cannot reach its job quota.
const WINDOW_CAP: Duration = Duration::from_secs(120);
/// Round trips timed for `http.rtt_us`.
const RTT_REPS: usize = 200;

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    esteem_harness::runcache::clear();
    let scratch = Scratch::create(kind)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS + 1);
    for rep in 0..SETUP_REPS {
        let (daemon, _, seconds) = start(&scratch.0, &format!("setup{rep}"))?;
        setup_s.push(seconds);
        stop(daemon);
    }
    let (daemon, addr, seconds) = start(&scratch.0, "daemon")?;
    setup_s.push(seconds);
    let plan = Plan::new(kind, args.seed);
    let mut tally = Tally::default();
    warm_up(&addr, &plan, &mut tally);
    let outcome = if args.trace {
        traced(&daemon, &addr, &plan, args, tally)
    } else {
        untraced(&addr, &plan, args, &setup_s, tally)
    };
    stop(daemon);
    Ok(outcome)
}

/// The journals' directory, inside the checkout; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(kind: Kind) -> Result<Self, String> {
        let name = match kind {
            Kind::Hit => "serve-hit",
            Kind::Fresh => "serve-fresh",
        };
        let dir = Path::new(".perfbench")
            .join("tmp")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts a daemon with default options plus a journal in `dir`. Returns it
/// with its address and the time from `spawn` until the first
/// `GET /v1/status` answered 200.
fn start(dir: &Path, tag: &str) -> Result<(Daemon, String, f64), String> {
    let opts = ServerOptions {
        journal_path: Some(dir.join(format!("{tag}.journal"))),
        ..ServerOptions::default()
    };
    let t0 = Instant::now();
    let daemon = server::spawn(opts).map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = daemon.addr().to_string();
    while !matches!(
        client::request(&addr, "GET", "/v1/status", None),
        Ok((200, _))
    ) {
        if t0.elapsed() > Duration::from_secs(10) {
            stop(daemon);
            return Err("the daemon never answered GET /v1/status".into());
        }
        std::thread::yield_now();
    }
    Ok((daemon, addr, t0.elapsed().as_secs_f64()))
}

fn stop(daemon: Daemon) {
    daemon.shutdown();
    let _ = daemon.wait();
}

/// Every spec a workload submits, derived from the benchmark seed.
struct Plan {
    kind: Kind,
    base: u64,
    next: AtomicU64,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Self {
        Plan {
            kind,
            base: splitmix64(seed ^ 0x5E2E_BE4C),
            next: AtomicU64::new(0),
        }
    }

    /// The next job's index; indices never repeat within a run.
    fn next_index(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn spec(&self, i: u64, client: u64) -> JobSpec {
        let mut spec = match self.kind {
            Kind::Hit => self.hit_spec(self.hit_slot(i)),
            Kind::Fresh => self.fresh_spec(i),
        };
        spec.client = format!("c{client}");
        spec
    }

    fn hit_slot(&self, i: u64) -> u64 {
        splitmix64(self.base ^ i) % HIT_SPECS
    }

    /// One of `serve-hit`'s small specs: a cache-resident app under one of
    /// the three techniques. The sim seed, a bijection of the slot, keeps
    /// the specs distinct.
    fn hit_spec(&self, slot: u64) -> JobSpec {
        const APPS: [&str; 4] = ["gamess", "povray", "hmmer", "tonto"];
        const TECHNIQUES: [&str; 3] = ["baseline", "esteem", "rpv"];
        let h = splitmix64(self.base.wrapping_add(slot));
        JobSpec {
            workload: APPS[(h % 4) as usize].into(),
            technique: TECHNIQUES[((h >> 8) % 3) as usize].into(),
            instructions: 200_000,
            seed: h,
            warmup: Some(200_000),
            ..JobSpec::default()
        }
    }

    /// `BENCH_serve.json`'s mix: gamess at 200 k instructions, one job in
    /// five at 2 M, 200 k warm-up cycles. Job indices never repeat and the
    /// XOR is a bijection, so neither do specs.
    fn fresh_spec(&self, i: u64) -> JobSpec {
        let expensive = splitmix64(self.base.wrapping_add(i)).is_multiple_of(5);
        JobSpec {
            workload: "gamess".into(),
            instructions: if expensive { 2_000_000 } else { 200_000 },
            seed: self.base ^ i,
            warmup: Some(200_000),
            ..JobSpec::default()
        }
    }

    /// Key of a job whose result is checked against a direct run: one job
    /// per spec on `serve-hit`, a seed-fixed one in 32 on `serve-fresh`.
    fn sample_key(&self, i: u64) -> Option<u64> {
        match self.kind {
            Kind::Hit => Some(self.hit_slot(i)),
            Kind::Fresh => splitmix64(self.base ^ i ^ 0x5A4D_9E11)
                .is_multiple_of(32)
                .then_some(i),
        }
    }
}

/// One finished job: its phase times and the fetched status body.
struct Finished {
    submit_us: f64,
    wait_us: f64,
    fetch_us: f64,
    body: String,
}

/// One job as every daemon caller runs it: submit, wait on the events
/// stream (it closes when the job ends), then fetch the result once.
/// `client::fetch` is not used: it polls with a sleep as long as a cheap
/// job.
fn run_job(addr: &str, spec: &JobSpec, expect: Option<Kind>) -> Result<Finished, String> {
    let t0 = Instant::now();
    let sub = client::submit(addr, spec)?;
    let t1 = Instant::now();
    match expect {
        Some(Kind::Hit) if !sub.cached => {
            return Err(format!("job {} was not a run-cache hit", sub.job))
        }
        Some(Kind::Fresh) if sub.cached || sub.coalesced => {
            return Err(format!(
                "job {} was answered from the run cache or coalesced",
                sub.job
            ))
        }
        _ => {}
    }
    let status = client::stream_lines(addr, &format!("/v1/jobs/{}/events", sub.job), |_| {})?;
    if status != 200 {
        return Err(format!("job {} events: HTTP {status}", sub.job));
    }
    let t2 = Instant::now();
    let (status, body) = client::request(addr, "GET", &format!("/v1/jobs/{}", sub.job), None)?;
    let t3 = Instant::now();
    if status != 200 || !body.contains("\"state\":\"done\"") {
        let head: String = body.chars().take(200).collect();
        return Err(format!("job {}: HTTP {status}: {head}", sub.job));
    }
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    Ok(Finished {
        submit_us: us(t0, t1),
        wait_us: us(t1, t2),
        fetch_us: us(t2, t3),
        body,
    })
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    latency_us: Vec<f64>,
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
    fetch_us: Vec<f64>,
    fetch_bytes: u64,
    instructions: u64,
    samples: BTreeMap<u64, (JobSpec, String)>,
    tally: Tally,
    seconds: f64,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.latency_us.extend(other.latency_us);
        self.submit_us.extend(other.submit_us);
        self.wait_us.extend(other.wait_us);
        self.fetch_us.extend(other.fetch_us);
        self.fetch_bytes += other.fetch_bytes;
        self.instructions += other.instructions;
        for (key, sample) in other.samples {
            self.samples.entry(key).or_insert(sample);
        }
        self.tally.merge(other.tally);
    }
}

/// Runs the closed-loop clients until `seconds` have passed and at least
/// `min_jobs` jobs completed.
fn window(addr: &str, plan: &Plan, seconds: f64, min_jobs: u64) -> Window {
    let completed = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut total = Window::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let completed = &completed;
                s.spawn(move || {
                    let mut w = Window::default();
                    loop {
                        let elapsed = start.elapsed();
                        let done = completed.load(Ordering::Relaxed) >= min_jobs;
                        if (elapsed >= budget && done) || elapsed >= WINDOW_CAP {
                            return w;
                        }
                        let i = plan.next_index();
                        let spec = plan.spec(i, c);
                        match run_job(addr, &spec, Some(plan.kind)) {
                            Ok(job) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                w.tally.check(true, String::new);
                                w.latency_us
                                    .push(job.submit_us + job.wait_us + job.fetch_us);
                                w.submit_us.push(job.submit_us);
                                w.wait_us.push(job.wait_us);
                                w.fetch_us.push(job.fetch_us);
                                w.fetch_bytes += job.body.len() as u64;
                                w.instructions += spec.instructions;
                                if let Some(key) = plan.sample_key(i) {
                                    w.samples.entry(key).or_insert((spec, job.body));
                                }
                            }
                            Err(e) => w.tally.check(false, || e),
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            total.absorb(c.join().expect("a client thread panicked"));
        }
    });
    total.seconds = start.elapsed().as_secs_f64();
    total
}

/// Untimed jobs before the window: `serve-hit` simulates each of its specs
/// once, so that every timed job is a run-cache hit; `serve-fresh` runs a
/// few never-repeating jobs. They count toward no metric, but a failed one
/// is a failed operation.
fn warm_up(addr: &str, plan: &Plan, tally: &mut Tally) {
    let specs: Vec<JobSpec> = match plan.kind {
        Kind::Hit => (0..HIT_SPECS).map(|slot| plan.hit_spec(slot)).collect(),
        Kind::Fresh => (0..FRESH_WARMUP)
            .map(|_| plan.fresh_spec(plan.next_index()))
            .collect(),
    };
    for spec in specs {
        if let Err(e) = run_job(addr, &spec, None) {
            tally.check(false, || format!("warm-up: {e}"));
        }
    }
}

/// Compares a seed-fixed sample of daemon results byte for byte with
/// direct simulator runs of the same specs; returns the direct reports.
fn check_samples(samples: BTreeMap<u64, (JobSpec, String)>, tally: &mut Tally) -> Vec<SimReport> {
    let mut reports = Vec::new();
    for (spec, body) in samples.into_values().take(SAMPLES) {
        let direct = match spec.resolve() {
            Ok(r) => Simulator::new(r.cfg, &r.profiles, &r.label).run(),
            Err(e) => {
                tally.check(false, || e);
                continue;
            }
        };
        let want = serde_json::to_string(&direct).expect("report serializes");
        // `result` is the last field of a job's status body.
        let got = body
            .split_once(",\"result\":")
            .map(|(_, r)| r.strip_suffix('}').unwrap_or(r));
        tally.check(got == Some(want.as_str()), || {
            format!(
                "{} seed {}: the daemon's result differs from a direct run",
                spec.workload, spec.seed
            )
        });
        reports.push(direct);
    }
    reports
}

fn untraced(addr: &str, plan: &Plan, args: &Args, setup_s: &[f64], mut tally: Tally) -> Outcome {
    let mut w = window(addr, plan, args.seconds, args.min_jobs);
    tally.merge(std::mem::take(&mut w.tally));
    check_samples(std::mem::take(&mut w.samples), &mut tally);
    let latency_ms: Vec<f64> = w.latency_us.iter().map(|us| us / 1e3).collect();
    let mut m = Metrics::default();
    m.set("sim_minstr_per_s", w.instructions as f64 / 1e6 / w.seconds);
    m.set("jobs_per_s", latency_ms.len() as f64 / w.seconds);
    m.set("job_latency_p50_ms", median(&latency_ms));
    m.set("job_latency_p99_ms", percentile(&latency_ms, 0.99));
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mb", status_mib("VmHWM"));
    m.set("success_rate", 1.0 - tally.error_rate());
    let notes = vec![format!(
        "{} jobs, each a latency sample, in {:.2} s",
        latency_ms.len(),
        w.seconds
    )];
    Outcome {
        tally,
        metrics: m,
        notes,
    }
}

/// The traced run: a reference window, then a window bracketed by readings
/// of the daemon's stage histograms and counters, then the HTTP and JSON
/// entry points timed on the workload's own requests and results.
fn traced(daemon: &Daemon, addr: &str, plan: &Plan, args: &Args, mut tally: Tally) -> Outcome {
    let mut plain = window(addr, plan, args.seconds, args.min_jobs);
    tally.merge(std::mem::take(&mut plain.tally));
    let before = ServerStages::read(daemon);
    let rss_before = status_mib("VmRSS");
    let mut w = window(addr, plan, args.seconds, args.min_jobs);
    let d = ServerStages::read(daemon).since(&before);
    let rss_after = status_mib("VmRSS");
    tally.merge(std::mem::take(&mut w.tally));
    let rtt_us = http_rtt_us(addr);
    let specs: Vec<JobSpec> = w.samples.values().map(|(spec, _)| spec.clone()).collect();
    let reports = check_samples(std::mem::take(&mut w.samples), &mut tally);
    let decode_ns = spec_decode_ns(&specs);
    let encode_us = report_encode_us(&reports);
    let jobs = w.latency_us.len() as f64;
    let q = |h: &HistogramSnapshot, p: f64| h.quantile(p) as f64;

    let mut m = Metrics::default();
    m.set("http.submit_us_p50", median(&w.submit_us));
    m.set("http.submit_us_p99", percentile(&w.submit_us, 0.99));
    m.set("http.wait_us_p50", median(&w.wait_us));
    m.set("http.fetch_us_p50", median(&w.fetch_us));
    m.set("http.fetch_bytes", ratio(w.fetch_bytes as f64, jobs));
    m.set("http.rtt_us", rtt_us);
    m.set("json.spec_decode_ns", decode_ns);
    m.set("json.report_encode_us", encode_us);
    m.set("serve.submit_us_p50", q(&d.submit, 0.5));
    m.set("serve.queue_wait_us_p50", q(&d.queue_wait, 0.5));
    m.set("serve.queue_wait_us_p99", q(&d.queue_wait, 0.99));
    m.set("serve.cache_lookup_us_p50", q(&d.cache_lookup, 0.5));
    m.set("serve.run_us_p50", q(&d.run, 0.5));
    m.set("serve.serialize_us_p50", q(&d.serialize, 0.5));
    m.set("serve.e2e_us_p50", q(&d.e2e, 0.5));
    m.set("serve.submitted", d.submitted as f64);
    m.set("serve.cached", d.cached as f64);
    m.set("serve.coalesced", d.coalesced as f64);
    m.set("serve.shed", d.shed as f64);
    m.set("serve.failed", d.failed as f64);
    m.set(
        "serve.cache_hit_ratio",
        ratio(d.cached as f64, d.submitted as f64),
    );
    m.set(
        "serve.unattributed_us_p50",
        median(&w.latency_us) - q(&d.e2e, 0.5),
    );
    m.set(
        "serve.rss_mb_per_kjob",
        ratio(rss_after - rss_before, jobs / 1e3),
    );
    m.set("serve.latency_samples", jobs);

    // Self time per layer over the traced window, summed per job: the
    // daemon's own stages (end to end, less the simulation), the
    // simulation (`core`), JSON decode and encode, and three HTTP round
    // trips per job (submit, events, fetch).
    let core_ms = d.run.sum() as f64 / 1e3;
    let layer_ms = [
        (
            "self.serve_ms",
            (d.e2e.sum() as f64 / 1e3 - core_ms).max(0.0),
        ),
        ("self.core_ms", core_ms),
        ("self.json_ms", jobs * (decode_ns / 1e6 + encode_us / 1e3)),
        ("self.http_ms", jobs * 3.0 * rtt_us / 1e3),
    ];
    let mut covered_ms = 0.0;
    for (name, ms) in layer_ms {
        m.set(name, ms);
        covered_ms += ms;
    }
    let wall_ms = w.latency_us.iter().sum::<f64>() / 1e3;
    m.set("trace.wall_ms", wall_ms);
    m.set("trace.residual_frac", 1.0 - ratio(covered_ms, wall_ms));
    m.set(
        "trace.overhead_frac",
        ratio(mean(&w.latency_us), mean(&plain.latency_us)) - 1.0,
    );
    m.set("error_rate", tally.error_rate());
    let notes = vec![format!(
        "{} jobs in the traced window, {} in the reference window",
        w.latency_us.len(),
        plain.latency_us.len()
    )];
    Outcome {
        tally,
        metrics: m,
        notes,
    }
}

/// The daemon's stage histograms and counters at one instant.
struct ServerStages {
    submit: HistogramSnapshot,
    queue_wait: HistogramSnapshot,
    cache_lookup: HistogramSnapshot,
    run: HistogramSnapshot,
    serialize: HistogramSnapshot,
    e2e: HistogramSnapshot,
    submitted: u64,
    cached: u64,
    coalesced: u64,
    shed: u64,
    failed: u64,
}

impl ServerStages {
    fn read(daemon: &Daemon) -> Self {
        let m = daemon.serve_metrics();
        let c = daemon.counters();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStages {
            submit: m.submit_us.snapshot(),
            queue_wait: m.queue_wait_us.snapshot(),
            cache_lookup: m.cache_lookup_us.snapshot(),
            run: m.run_us.snapshot(),
            serialize: m.serialize_us.snapshot(),
            e2e: m
                .e2e_us(JobOutcome::Done)
                .merge(&m.e2e_us(JobOutcome::Cached))
                .merge(&m.e2e_us(JobOutcome::Failed)),
            submitted: load(&c.submitted),
            cached: load(&c.cached),
            coalesced: load(&c.coalesced),
            shed: load(&c.shed),
            failed: load(&c.failed),
        }
    }

    fn since(&self, base: &ServerStages) -> Self {
        ServerStages {
            submit: self.submit.delta_since(&base.submit),
            queue_wait: self.queue_wait.delta_since(&base.queue_wait),
            cache_lookup: self.cache_lookup.delta_since(&base.cache_lookup),
            run: self.run.delta_since(&base.run),
            serialize: self.serialize.delta_since(&base.serialize),
            e2e: self.e2e.delta_since(&base.e2e),
            submitted: self.submitted - base.submitted,
            cached: self.cached - base.cached,
            coalesced: self.coalesced - base.coalesced,
            shed: self.shed - base.shed,
            failed: self.failed - base.failed,
        }
    }
}

/// Median round trip of `GET /v1/health`, which the handler answers
/// without work: connect, the per-connection thread, request parse and
/// response.
fn http_rtt_us(addr: &str) -> f64 {
    let samples: Vec<f64> = (0..RTT_REPS)
        .filter_map(|_| {
            let t0 = Instant::now();
            let ok = matches!(
                client::request(addr, "GET", "/v1/health", None),
                Ok((200, _))
            );
            ok.then(|| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    median(&samples)
}

/// `serde_json::from_str::<JobSpec>` on the workload's own request bodies,
/// ns per decode.
fn spec_decode_ns(specs: &[JobSpec]) -> f64 {
    const REPS: usize = 4096;
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| serde_json::to_string(s).expect("spec serializes"))
        .collect();
    if bodies.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for i in 0..REPS {
        let body = black_box(&bodies[i % bodies.len()]);
        black_box(serde_json::from_str::<JobSpec>(body).expect("spec decodes"));
    }
    t0.elapsed().as_secs_f64() * 1e9 / REPS as f64
}

/// Encoding a report to JSON, as every result fetch does, µs per report.
fn report_encode_us(reports: &[SimReport]) -> f64 {
    const REPS: usize = 512;
    if reports.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for i in 0..REPS {
        let report = black_box(&reports[i % reports.len()]);
        black_box(serde_json::to_string(report).expect("report serializes"));
    }
    t0.elapsed().as_secs_f64() * 1e6 / REPS as f64
}
