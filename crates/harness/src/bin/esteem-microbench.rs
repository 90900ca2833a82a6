//! Microbenchmark of the cost of observing: `histogram_record_ns`, the ns
//! per `esteem_stats::Histogram::record` on the log-linear latency
//! histogram every metrics tap in the daemon and the simulator uses.
//!
//! The simulator and daemon timings live in the repository benchmark
//! (`perfbench/`); this binary times only the one cost it does not.
//!
//! ```text
//! esteem-microbench
//! ```
//!
//! Prints a JSON object in the format of the committed
//! `BENCH_hotpath.json`, which `scripts/perf_gate.sh` gates and
//! `scripts/perf_gate.sh record` rewrites.

use std::process::ExitCode;
use std::time::Instant;

/// Records timed per run.
const OPS: u64 = 8_000_000;

/// Histogram recording cost: ns per `Histogram::record`. Values are
/// LCG-spread across the full tier range so the bench exercises the
/// bucket-index path, not one hot cache line. This bounds the per-event
/// overhead of attaching metrics anywhere in the stack.
fn bench_histogram_record(ops: u64) -> f64 {
    let h = esteem_stats::Histogram::new();
    // Pre-generate the values so only `record` is timed.
    let mut x = 0x9E3779B97F4A7C15u64;
    let values: Vec<u64> = (0..ops)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Spread across ~6 decades of microseconds.
            x >> (24 + (x & 31))
        })
        .collect();
    let started = Instant::now();
    for &v in &values {
        h.record(v);
    }
    let elapsed = started.elapsed();
    let snap = h.snapshot();
    assert_eq!(snap.count(), ops, "every record lands");
    assert!(
        snap.quantile(0.5) > 0,
        "spread values have a nonzero median"
    );
    elapsed.as_nanos() as f64 / ops as f64
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg != "-h" && arg != "--help" {
            eprintln!("unknown argument {arg}");
        }
        eprintln!("usage: esteem-microbench");
        return ExitCode::FAILURE;
    }
    eprintln!("histogram record ({OPS} ops)...");
    let histogram_ns = bench_histogram_record(OPS);
    eprintln!("  {histogram_ns:.2} ns/record");
    // Hand-rolled JSON: this binary intentionally takes no serializer dep.
    println!("{{\n  \"bench\": \"hotpath\",\n  \"histogram_record_ns\": {histogram_ns:.3}\n}}");
    ExitCode::SUCCESS
}
