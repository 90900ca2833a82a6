//! SLO-driven load generator for a running `esteem-serve` daemon.
//!
//! ```text
//! esteem-loadgen [options]
//!   --addr <host:port>       daemon address (default 127.0.0.1:7117)
//!   --mode open|closed       arrival model (default closed)
//!   --rps <r>                open-loop Poisson arrival rate
//!                            (default 50)
//!   --concurrency <n>        closed-loop virtual clients (default 4)
//!   --duration-s <s>         submission window (default 5)
//!   --seed <n>               schedule seed (default 0xE57EE21A)
//!   --clients <n>            distinct client labels lg0..lgN-1
//!                            (default 4)
//!   --hit-ratio <f>          fraction of jobs re-submitting an earlier
//!                            spec, i.e. run-cache hits (default 0)
//!   --expensive-frac <f>     fraction of expensive jobs (default 0.2)
//!   --cheap-instr <n>        cheap-job instructions (default 200000)
//!   --expensive-instr <n>    expensive-job instructions
//!                            (default 2000000)
//!   --workload <name>        benchmark submitted (default gamess)
//!   --warmup <cycles>        warm-up override on every job; "full"
//!                            keeps the simulator's 35M-cycle default
//!                            (default 200000 — cheap jobs are what
//!                            let a load test reach interesting rates)
//!   --priority <p>           job priority (default 1)
//!   --retries <n>            per-request retry budget; 429 retries
//!                            honor the daemon's Retry-After (default 0)
//!   --backoff-ms <ms>        base transport backoff (default 50)
//!   --poll-ms <ms>           completion poll cadence (default 5)
//!   --max-in-flight <n>      open-loop client-side cap (default 256)
//!   --out <file>             write the report there instead of stdout
//!   --smoke                  print the deterministic schedule digest
//!                            for the first 256 planned jobs and exit
//!                            (no daemon needed)
//! ```
//!
//! A run prints a JSON [`esteem_serve::loadgen::Report`].

use std::process::ExitCode;
use std::time::Duration;

use esteem_serve::client::RetryPolicy;
use esteem_serve::loadgen::{self, LoadgenOptions, Mode};
use serde::Serialize;

const HELP: &str = "usage: esteem-loadgen [--addr host:port] [--mode open|closed] [--rps r] \
     [--concurrency n] [--duration-s s] [--seed n] [--clients n] [--hit-ratio f] \
     [--expensive-frac f] [--cheap-instr n] [--expensive-instr n] [--workload name] \
     [--warmup cycles|full] \
     [--priority p] [--retries n] [--backoff-ms ms] [--poll-ms ms] [--max-in-flight n] \
     [--out file] [--smoke]";

struct Cli {
    opts: LoadgenOptions,
    out: Option<std::path::PathBuf>,
    smoke: bool,
}

fn parse() -> Result<Cli, String> {
    let mut opts = LoadgenOptions::default();
    let mut mode_open = false;
    let mut rps = 50.0f64;
    let mut concurrency = 4usize;
    let mut retries = 0u32;
    let mut backoff_ms = 50u64;
    let mut out = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = next(&mut it, "--addr")?,
            "--mode" => {
                mode_open = match next(&mut it, "--mode")?.as_str() {
                    "open" => true,
                    "closed" => false,
                    other => return Err(format!("--mode: open or closed, not {other}")),
                }
            }
            "--rps" => {
                rps = next(&mut it, "--rps")?
                    .parse()
                    .map_err(|e| format!("--rps: {e}"))?;
                if !rps.is_finite() || rps <= 0.0 {
                    return Err("--rps must be > 0".into());
                }
            }
            "--concurrency" => {
                concurrency = next(&mut it, "--concurrency")?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?;
                if concurrency == 0 {
                    return Err("--concurrency must be >= 1".into());
                }
            }
            "--duration-s" => {
                let s: f64 = next(&mut it, "--duration-s")?
                    .parse()
                    .map_err(|e| format!("--duration-s: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--duration-s must be > 0".into());
                }
                opts.duration = Duration::from_secs_f64(s);
            }
            "--seed" => {
                opts.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--clients" => {
                opts.clients = next(&mut it, "--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
                if opts.clients == 0 {
                    return Err("--clients must be >= 1".into());
                }
            }
            "--hit-ratio" => {
                opts.hit_ratio = next(&mut it, "--hit-ratio")?
                    .parse()
                    .map_err(|e| format!("--hit-ratio: {e}"))?;
                if !(0.0..=1.0).contains(&opts.hit_ratio) {
                    return Err("--hit-ratio must be in [0, 1]".into());
                }
            }
            "--expensive-frac" => {
                opts.expensive_frac = next(&mut it, "--expensive-frac")?
                    .parse()
                    .map_err(|e| format!("--expensive-frac: {e}"))?;
                if !(0.0..=1.0).contains(&opts.expensive_frac) {
                    return Err("--expensive-frac must be in [0, 1]".into());
                }
            }
            "--cheap-instr" => {
                opts.cheap_instructions = next(&mut it, "--cheap-instr")?
                    .parse()
                    .map_err(|e| format!("--cheap-instr: {e}"))?
            }
            "--expensive-instr" => {
                opts.expensive_instructions = next(&mut it, "--expensive-instr")?
                    .parse()
                    .map_err(|e| format!("--expensive-instr: {e}"))?
            }
            "--workload" => opts.workload = next(&mut it, "--workload")?,
            "--warmup" => {
                let v = next(&mut it, "--warmup")?;
                opts.warmup = if v == "full" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("--warmup: {e}"))?)
                };
            }
            "--priority" => {
                opts.priority = next(&mut it, "--priority")?
                    .parse()
                    .map_err(|e| format!("--priority: {e}"))?
            }
            "--retries" => {
                retries = next(&mut it, "--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--backoff-ms" => {
                backoff_ms = next(&mut it, "--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?
            }
            "--poll-ms" => {
                let ms: u64 = next(&mut it, "--poll-ms")?
                    .parse()
                    .map_err(|e| format!("--poll-ms: {e}"))?;
                opts.poll_interval = Duration::from_millis(ms.max(1));
            }
            "--max-in-flight" => {
                opts.max_in_flight = next(&mut it, "--max-in-flight")?
                    .parse()
                    .map_err(|e| format!("--max-in-flight: {e}"))?;
                if opts.max_in_flight == 0 {
                    return Err("--max-in-flight must be >= 1".into());
                }
            }
            "--out" => out = Some(next(&mut it, "--out")?.into()),
            "--smoke" => smoke = true,
            "-h" | "--help" => return Err(HELP.into()),
            other => return Err(format!("unknown flag {other}\n{HELP}")),
        }
    }
    opts.mode = if mode_open {
        Mode::Open { rps }
    } else {
        Mode::Closed { concurrency }
    };
    if retries > 0 {
        opts.retry = RetryPolicy::new(retries, backoff_ms).with_seed(opts.seed);
    }
    Ok(Cli { opts, out, smoke })
}

fn emit(out: &Option<std::path::PathBuf>, body: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, format!("{body}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => {
            println!("{body}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.smoke {
        // Pure planning path: prints the digest CI pins, no daemon.
        println!(
            "schedule digest: {:016x}",
            loadgen::schedule_digest(&cli.opts, 256)
        );
        return ExitCode::SUCCESS;
    }
    let report = loadgen::run(&cli.opts);
    let body = serde_json::to_string_pretty(&report.to_value()).expect("serializes");
    match emit(&cli.out, &body) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
