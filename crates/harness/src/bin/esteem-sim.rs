//! Single-simulation CLI: run one workload under one technique and print
//! the full report.
//!
//! ```text
//! esteem-sim [options] <benchmark | mix-acronym>
//!   --technique baseline|rpv|rpd|periodic-valid|esteem|ecc|static
//!                             (default esteem)
//!   --retention <us>          retention period (default 50)
//!   --instructions <N>        per-core instructions (default 10M)
//!   --alpha <f> --a-min <n> --modules <m> --interval <cycles> --rs <n>
//!   --ecc-periods <k> --ecc-bits <b>     (ecc technique)
//!   --ways <n>                fixed way count (static technique, default 4)
//!   --seed <n>
//!   --warmup <cycles>         warm-up cycles excluded from metrics
//!                             (default 35M, the paper stand-in; small
//!                             values make smoke runs cheap)
//!   --json                    print the report as JSON
//!   --interval-log <file>     stream one JSONL record per interval
//!   --trace <file>            export a trace: .json -> Chrome trace-event
//!                             JSON (Perfetto/chrome://tracing), any other
//!                             extension -> compact JSONL for esteem-analyze
//!   --trace-filter <kinds>    comma list of reconfig,refresh,bank,
//!                             runcache,interval,span (default all)
//!   --trace-buffer <N>        ring-buffer capacity in events (default 1M;
//!                             oldest events drop beyond it)
//! ```
//!
//! One run simulates on one thread, and fills its front ends (workload
//! generation plus the private L1s) on a second one when a CPU is spare
//! (`ESTEEM_THREADS=1` keeps it to one). To run many simulations in
//! parallel, use `esteem-repro --threads N` or the `esteem-serve` daemon.

use std::io::BufWriter;
use std::process::ExitCode;

use esteem_core::{AlgoParams, Simulator, SystemConfig, Technique};
use esteem_edram::RetentionSpec;
use esteem_stats::JsonlSink;
use esteem_trace::{export, TraceFilter, Tracer};
use esteem_workloads::{benchmark_by_name, mixes::mix_by_acronym};

#[derive(Debug)]
struct Args {
    workload: String,
    technique: String,
    retention_us: f64,
    instructions: u64,
    alpha: f64,
    a_min: u8,
    modules: Option<u16>,
    interval: u64,
    rs: u32,
    ecc_periods: u8,
    ecc_bits: u8,
    ways: u8,
    seed: u64,
    warmup: Option<u64>,
    json: bool,
    interval_log: Option<String>,
    trace: Option<String>,
    trace_filter: TraceFilter,
    trace_buffer: usize,
}

impl Default for Args {
    fn default() -> Self {
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
            json: false,
            interval_log: None,
            trace: None,
            trace_filter: TraceFilter::all(),
            trace_buffer: 1 << 20,
        }
    }
}

fn parse() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--technique" => a.technique = next(&mut it, "--technique")?,
            "--retention" => {
                a.retention_us = next(&mut it, "--retention")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--instructions" => {
                a.instructions = next(&mut it, "--instructions")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--alpha" => {
                a.alpha = next(&mut it, "--alpha")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--a-min" => {
                a.a_min = next(&mut it, "--a-min")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--modules" => {
                a.modules = Some(
                    next(&mut it, "--modules")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--interval" => {
                a.interval = next(&mut it, "--interval")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--rs" => a.rs = next(&mut it, "--rs")?.parse().map_err(|e| format!("{e}"))?,
            "--ecc-periods" => {
                a.ecc_periods = next(&mut it, "--ecc-periods")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--ecc-bits" => {
                a.ecc_bits = next(&mut it, "--ecc-bits")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--ways" => {
                a.ways = next(&mut it, "--ways")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--seed" => {
                a.seed = next(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--warmup" => {
                a.warmup = Some(
                    next(&mut it, "--warmup")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--json" => a.json = true,
            "--interval-log" => a.interval_log = Some(next(&mut it, "--interval-log")?),
            "--trace" => a.trace = Some(next(&mut it, "--trace")?),
            "--trace-filter" => {
                a.trace_filter = TraceFilter::parse(&next(&mut it, "--trace-filter")?)?
            }
            "--trace-buffer" => {
                a.trace_buffer = next(&mut it, "--trace-buffer")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if a.trace_buffer == 0 {
                    return Err("--trace-buffer must be positive".into());
                }
            }
            "-h" | "--help" => return Err(HELP.into()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}\n{HELP}")),
            other => a.workload = other.to_owned(),
        }
    }
    if a.workload.is_empty() {
        return Err(HELP.into());
    }
    Ok(a)
}

const HELP: &str = "usage: esteem-sim [options] <benchmark|mix>  (see source header for options)";

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Resolve workload: single benchmark or dual mix.
    let (profiles, label, cores) = if let Some(b) = benchmark_by_name(&args.workload) {
        (vec![b], args.workload.clone(), 1)
    } else if let Some(m) = mix_by_acronym(&args.workload) {
        (vec![m.a, m.b], args.workload.clone(), 2)
    } else {
        eprintln!("unknown workload '{}'", args.workload);
        return ExitCode::FAILURE;
    };

    let algo = AlgoParams {
        alpha: args.alpha,
        a_min: args.a_min,
        modules: args.modules.unwrap_or(if cores == 1 { 8 } else { 16 }),
        interval_cycles: args.interval,
        rs: args.rs,
        max_step: None,
        non_lru_guard: true,
        shrink_confirm: true,
    };
    let technique = match args.technique.as_str() {
        "baseline" => Technique::Baseline,
        "rpv" => Technique::Rpv,
        "rpd" => Technique::Rpd,
        "periodic-valid" => Technique::PeriodicValid,
        "esteem" => Technique::Esteem(algo),
        "ecc" => Technique::EccRefresh {
            periods: args.ecc_periods,
            ecc_bits: args.ecc_bits,
        },
        "static" => Technique::StaticWays { ways: args.ways },
        other => {
            eprintln!("unknown technique '{other}'");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = if cores == 1 {
        SystemConfig::paper_single_core(technique)
    } else {
        SystemConfig::paper_dual_core(technique)
    };
    cfg.retention = match RetentionSpec::try_from_micros(args.retention_us, 2.0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("--retention {}: {e}", args.retention_us);
            return ExitCode::FAILURE;
        }
    };
    cfg.sim_instructions = args.instructions;
    cfg.seed = args.seed;
    if let Some(w) = args.warmup {
        cfg.warmup_cycles = w;
    }
    // Reject impossible configurations with a one-line error instead of
    // letting a validation assert unwind with a backtrace.
    if let Err(e) = cfg.check() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }

    let mut sim = Simulator::new(cfg, &profiles, &label);
    if let Some(path) = &args.interval_log {
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        sim = sim.with_observer(Box::new(JsonlSink::new(BufWriter::new(file))));
    }
    let tracer = match &args.trace {
        Some(_) => Tracer::ring(args.trace_buffer, args.trace_filter),
        None => Tracer::off(),
    };
    if tracer.is_on() {
        sim = sim.with_tracer(tracer.clone());
    }
    let report = sim.run();
    if let Some(path) = &args.trace {
        match export::export_to_path(&tracer, std::path::Path::new(path)) {
            Ok(n) => eprintln!("wrote {n} trace events to {path}"),
            Err(e) => {
                eprintln!("writing trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
    } else {
        println!("workload:      {}", report.workload);
        println!("technique:     {}", report.technique);
        println!("cycles:        {}", report.cycles);
        for (i, c) in report.per_core.iter().enumerate() {
            println!(
                "core {i}:        IPC {:.3} ({} instrs, L1 miss {:.1}%)",
                c.ipc,
                c.instructions,
                c.l1_misses as f64 / (c.l1_hits + c.l1_misses).max(1) as f64 * 100.0
            );
        }
        println!(
            "L2:            {} hits, {} misses, {} writebacks",
            report.l2_hits, report.l2_misses, report.l2_writebacks
        );
        println!(
            "refreshes:     {} (RPKI {:.1})",
            report.refreshes,
            report.rpki()
        );
        println!("invalidations: {}", report.refresh_invalidations);
        println!("mem accesses:  {}", report.mem_accesses);
        println!("active ratio:  {:.1}%", report.active_ratio * 100.0);
        let e = &report.energy;
        println!(
            "energy:        {:.4} J = L2(leak {:.4} + dyn {:.4} + refresh {:.4}) + MM(leak {:.4} + dyn {:.4}) + algo {:.6}",
            e.total(), e.l2_leakage, e.l2_dynamic, e.l2_refresh, e.mm_leakage, e.mm_dynamic, e.algo
        );
    }
    ExitCode::SUCCESS
}
