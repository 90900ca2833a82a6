//! Regenerates the paper's tables and figures. See crate docs for usage.

use std::path::PathBuf;
use std::process::ExitCode;

use esteem_harness::experiments::{
    ablations, breakdown, calib, ecc, fig2, figs, overhead, table1, table2, table3,
};
use esteem_harness::{results, Scale};
use esteem_trace::{export, prof_span, TraceFilter, Tracer};

struct Args {
    scale: Scale,
    threads: usize,
    json_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    experiments: Vec<String>,
}

fn usage() -> &'static str {
    "usage: esteem-repro [--scale bench|quick|default|paper] [--threads N] [--json DIR] [--trace FILE] <experiment>...\n\
     experiments: table1 table2 overhead fig2 fig3 fig4 fig5 fig6 table3 table3-dual calib ecc ablations breakdown:<bench> all\n\
     --trace FILE: harness self-trace (run-cache lookups + per-experiment wall-clock spans);\n\
                   .json -> Chrome trace-event JSON, else JSONL"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Default,
        threads: esteem_par::default_threads(),
        json_dir: None,
        trace: None,
        experiments: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = Scale::parse(&v).ok_or_else(|| format!("bad scale {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if args.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a directory")?;
                args.json_dir = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file")?;
                args.trace = Some(PathBuf::from(v));
            }
            "-h" | "--help" => return Err(usage().to_owned()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.experiments.push(other.to_owned()),
        }
    }
    if args.experiments.is_empty() {
        return Err(usage().to_owned());
    }
    Ok(args)
}

fn save<T: serde::Serialize>(args: &Args, name: &str, value: &T) {
    if let Some(dir) = &args.json_dir {
        match results::write_json(dir, name, value) {
            Ok(p) => eprintln!("wrote {}", p.display()),
            Err(e) => eprintln!("failed to write {name}.json: {e}"),
        }
    }
}

fn save_csv(args: &Args, name: &str, csv: String) {
    if let Some(dir) = &args.json_dir {
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, csv) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {name}.csv: {e}"),
        }
    }
}

fn run_one(args: &Args, tracer: &Tracer, name: &str) -> Result<(), String> {
    prof_span!(tracer, name);
    let (scale, threads) = (args.scale, args.threads);
    match name {
        "table1" => print!("{}", table1::render()),
        "table2" => print!("{}", table2::render()),
        "overhead" => print!("{}", overhead::render()),
        "fig2" => {
            let r = fig2::run(scale, "h264ref");
            print!("{}", fig2::render(&r));
            save(args, "fig2", &r);
        }
        "fig3" => {
            let r = figs::run_single_core(scale, 50.0, threads, None);
            print!("{}", figs::render(&r));
            save(args, "fig3_single_core_50us", &r);
            save_csv(args, "fig3_single_core_50us", figs::to_csv(&r));
        }
        "fig4" => {
            let r = figs::run_dual_core(scale, 50.0, threads, None);
            print!("{}", figs::render(&r));
            save(args, "fig4_dual_core_50us", &r);
            save_csv(args, "fig4_dual_core_50us", figs::to_csv(&r));
        }
        "fig5" => {
            let r = figs::run_single_core(scale, 40.0, threads, None);
            print!("{}", figs::render(&r));
            save(args, "fig5_single_core_40us", &r);
            save_csv(args, "fig5_single_core_40us", figs::to_csv(&r));
        }
        "fig6" => {
            let r = figs::run_dual_core(scale, 40.0, threads, None);
            print!("{}", figs::render(&r));
            save(args, "fig6_dual_core_40us", &r);
            save_csv(args, "fig6_dual_core_40us", figs::to_csv(&r));
        }
        "table3" => {
            let r = table3::run(1, scale, threads, None);
            print!("{}", table3::render(&r));
            save(args, "table3_single_core", &r);
        }
        "table3-dual" => {
            let r = table3::run(2, scale, threads, None);
            print!("{}", table3::render(&r));
            save(args, "table3_dual_core", &r);
        }
        "ecc" => {
            let rows = ecc::run(scale, threads, &["hmmer", "bzip2", "milc"]);
            print!("{}", ecc::render(&rows));
            save(args, "ecc_extension", &rows);
        }
        "ablations" => {
            let rows = ablations::run(scale, threads);
            print!("{}", ablations::render(&rows));
            save(args, "ablations", &rows);
        }
        name if name.starts_with("breakdown:") => {
            let bench = &name["breakdown:".len()..];
            if esteem_workloads::benchmark_by_name(bench).is_none() {
                return Err(format!("unknown benchmark {bench:?} in {name}"));
            }
            let rows = breakdown::run(scale, bench);
            print!("{}", breakdown::render(bench, &rows));
        }
        "calib" => {
            let rows = calib::run(scale, threads);
            print!("{}", calib::render(&rows));
            save(args, "calibration", &rows);
        }
        "all" => {
            for e in [
                "table1",
                "table2",
                "overhead",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "table3",
                "table3-dual",
            ] {
                println!();
                run_one(args, tracer, e)?;
            }
        }
        other => return Err(format!("unknown experiment {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "scale={} ({} instrs/core), threads={}",
        args.scale.name(),
        args.scale.instructions(),
        args.threads
    );
    let tracer = match &args.trace {
        // The harness self-trace is unbounded in principle but tiny in
        // practice (one event per cache lookup, one span per experiment);
        // a generous ring keeps worst-case memory bounded anyway.
        Some(_) => Tracer::ring(1 << 20, TraceFilter::all()),
        None => Tracer::off(),
    };
    if tracer.is_on() {
        esteem_harness::runcache::set_tracer(tracer.clone());
    }
    for e in &args.experiments.clone() {
        let started = std::time::Instant::now();
        if let Err(msg) = run_one(&args, &tracer, e) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        let (hits, misses) = esteem_harness::runcache::stats();
        eprintln!(
            "[{e}] finished in {:.1}s (run cache: {hits} hits, {misses} misses)",
            started.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = &args.trace {
        match export::export_to_path(&tracer, path) {
            Ok(n) => eprintln!("wrote {n} trace events to {}", path.display()),
            Err(e) => {
                eprintln!("writing trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
