//! Repository benchmark for the ESTEEM reproduction: a simulator sweep and
//! two daemon loads. An untraced run prints the end-to-end metrics; a
//! traced run prints a per-layer breakdown, timed from outside the program
//! through each layer's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--min-jobs N]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --print-digests [--seed N]
//! ```
//!
//! Workloads (`BENCHMARK.json` records why each one is there):
//!
//! * `sim-thrash`: the dual-core paper configuration at 40 us retention
//!   (Fig. 6); the McLu, SoMi and LsLb mixes under baseline, ESTEEM and
//!   RPV, with two refill threads.
//! * `serve-hit`: an in-process `esteem-serve` daemon and two closed-loop
//!   clients re-submitting small specs that were simulated once before the
//!   window, so every timed job is a run-cache hit.
//! * `serve-fresh`: the same daemon with specs that never repeat.
//!
//! A job is one simulation: a sweep cell on the `sim-*` workloads, a
//! daemon job on the `serve-*` workloads. The last line of stdout is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). Stderr gets
//! the same metrics as a table, and `.perfbench/results/` a result file
//! that adds the host and the bounds from `BENCHMARK.json`.
//!
//! Correctness: each simulator report's JSON is hashed and compared with
//! the digest `digests.txt` stores for its seed, where there is one, and
//! with every repeat of its cell; a seed-fixed sample of daemon results is
//! compared byte for byte with direct simulator runs. Every mismatch,
//! failed job, shed job and transport error is a failed operation.

mod layers;
mod metrics;
mod selftest;
mod serve;
mod sim;

use std::process::ExitCode;

use serde::{Serialize, Value};

use metrics::{Outcome, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 3] = ["sim-thrash", "serve-hit", "serve-fresh"];

const USAGE: &str =
    "usage: esteem-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--min-jobs N]
       esteem-perfbench --self-test
       esteem-perfbench --print-digests [--seed N]
workloads: sim-thrash serve-hit serve-fresh";

/// Options of one benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window. A sweep runs every cell at least
    /// once, even when that takes longer.
    pub seconds: f64,
    pub trace: bool,
    /// Jobs a daemon window completes at the least, so that ten samples
    /// lie beyond its p99.
    pub min_jobs: u64,
}

enum Mode {
    Run(Args),
    SelfTest,
    PrintDigests(u64),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        min_jobs: 1000,
    };
    let (mut self_test, mut print_digests) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--min-jobs" => {
                args.min_jobs = value()?.parse().map_err(|e| format!("--min-jobs: {e}"))?
            }
            "--self-test" => self_test = true,
            "--print-digests" => print_digests = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if self_test {
        return Ok(Mode::SelfTest);
    }
    if print_digests {
        return Ok(Mode::PrintDigests(args.seed));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(Mode::Run(args))
}

fn main() -> ExitCode {
    // The run cache's optional disk tier would let one run answer from
    // another's files; keep every lookup inside this process.
    std::env::remove_var("ESTEEM_RUN_CACHE_DIR");
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::SelfTest) => return selftest::run(),
        Ok(Mode::PrintDigests(seed)) => {
            sim::print_digests(seed);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "sim-thrash" => Ok(sim::run(&sim::THRASH, &args)),
        "serve-hit" => serve::run(serve::Kind::Hit, &args),
        _ => serve::run(serve::Kind::Fresh, &args),
    };
    match result.and_then(|outcome| emit(&args, &outcome)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the run's metric table to stderr and its result line to stdout,
/// and writes its result file.
fn emit(args: &Args, outcome: &Outcome) -> Result<(), String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{} seed {} ({} run):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let measured = outcome.metrics.get(name);
        let value = match measured {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        let na = if measured.is_none() { "  (n/a)" } else { "" };
        eprintln!("  {name:<34} {value:>16.4} {unit}{na}");
        metrics.push((
            name.to_owned(),
            Value::Map(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    let t = &outcome.tally;
    eprintln!(
        "  attempted {} failed {} error_rate {}",
        t.attempted,
        t.failed,
        t.error_rate()
    );
    for reason in t.reasons.iter().take(10) {
        eprintln!("  failed: {reason}");
    }
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(t.failed == 0)),
        ("attempted".into(), t.attempted.to_value()),
        ("failed".into(), t.failed.to_value()),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    metrics::write_result_file(args, &result);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(())
}
