//! Metric tables, the operation tally, summary statistics, and the host
//! readings every workload shares.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{map_get, Serialize, Value};

use crate::Args;

/// End-to-end metrics, printed by every untraced run. A job is one
/// simulation: a sweep cell on the `sim-*` workloads, a daemon job on the
/// `serve-*` workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_minstr_per_s", "Minstr/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics, printed by every traced run. A metric that does not
/// apply to the workload (an HTTP timing on a simulator sweep) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_bundle", "ns"),
    ("workloads.bundles", "count"),
    ("cache.l1_ns_per_access", "ns"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_ratio", "fraction"),
    ("cache.l2_ns_per_access", "ns"),
    ("cache.l2_accesses", "count"),
    ("cache.l2_hit_ratio", "fraction"),
    ("edram.refresh_ns_per_period", "ns"),
    ("edram.feed_ns_per_access", "ns"),
    ("edram.window_ns", "ns"),
    ("edram.refreshes", "count"),
    ("mem.accesses", "count"),
    ("core.controller_us_per_interval", "us"),
    ("core.intervals", "count"),
    ("core.slot_transitions", "count"),
    ("core.setup_ms", "ms"),
    ("core.report_us", "us"),
    ("span.sim_run_self_ms", "ms"),
    ("span.block_refill_ms", "ms"),
    ("span.block_barrier_ms", "ms"),
    ("span.refresh_batch_drain_ms", "ms"),
    ("span.refresh_window_ms", "ms"),
    ("span.controller_interval_ms", "ms"),
    ("http.submit_us_p50", "us"),
    ("http.submit_us_p99", "us"),
    ("http.wait_us_p50", "us"),
    ("http.fetch_us_p50", "us"),
    ("http.fetch_bytes", "bytes"),
    ("http.rtt_us", "us"),
    ("json.spec_decode_ns", "ns"),
    ("json.report_encode_us", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.cache_lookup_us_p50", "us"),
    ("serve.run_us_p50", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.e2e_us_p50", "us"),
    ("serve.submitted", "count"),
    ("serve.cached", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.unattributed_us_p50", "us"),
    ("serve.rss_mb_per_kjob", "MiB"),
    ("serve.latency_samples", "count"),
    ("self.workloads_ms", "ms"),
    ("self.cache_ms", "ms"),
    ("self.edram_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.par_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.http_ms", "ms"),
    ("self.json_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.residual_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("error_rate", "fraction"),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is in neither metric table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations attempted and failed in one run, with each failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Context for the stderr summary, such as sample counts.
    pub notes: Vec<String>,
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Median, the mean of the middle pair for an even count; 0 without
/// samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile for `q` in (0, 1]; 0 without samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a: the digest of a report's JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64, a bijection on `u64`: derives every generated input from
/// the benchmark seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A size field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MiB; 0 where
/// the file does not exist.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes the run's result beside the host it ran on and the bounds
/// `BENCHMARK.json` fixes, to `.perfbench/results/`. Best effort: the
/// result line on stdout does not depend on it.
pub fn write_result_file(args: &Args, result: &Value) {
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), args.seed.to_value()),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host()),
        ("bounds".into(), bounds()),
        ("result".into(), result.clone()),
    ]);
    let dir = Path::new(".perfbench").join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let json = serde_json::to_string_pretty(&doc).expect("result serializes");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Value::Map(vec![
        ("nproc".into(), nproc.to_value()),
        ("cpu_model".into(), Value::Str(cpu)),
        (
            "rustc".into(),
            Value::Str(env!("PERFBENCH_RUSTC").to_owned()),
        ),
        ("git_commit".into(), Value::Str(git_commit())),
    ])
}

/// The checkout's commit, read from `.git` directly; "unknown" when the
/// checkout is not a git repository.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(branch) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(branch)
        .map(|commit| commit.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == branch).then(|| commit.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The end-to-end bounds in `BENCHMARK.json`, by metric name; null when
/// the file is not in the working directory.
fn bounds() -> Value {
    let Some(doc) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
    else {
        return Value::Null;
    };
    let metrics = doc
        .as_map()
        .and_then(|m| map_get(m, "end_to_end").ok())
        .and_then(Value::as_seq)
        .unwrap_or_default();
    Value::Map(
        metrics
            .iter()
            .filter_map(|metric| {
                let m = metric.as_map()?;
                let name = map_get(m, "name").ok()?.as_str()?;
                Some((name.to_owned(), map_get(m, "bound").ok()?.clone()))
            })
            .collect(),
    )
}
