//! The job-server daemon.
//!
//! ```text
//! esteem-serve [options]
//!   --addr <host:port>      bind address (default 127.0.0.1:7117;
//!                           port 0 picks an ephemeral port, printed
//!                           on stdout as "listening on <addr>")
//!   --workers <n>           resident simulation workers (default 2)
//!   --queue-capacity <n>    bound before 429 shed (default 64)
//!   --journal <file>        append-only job journal; enables crash
//!                           recovery on restart
//!   --flight-dump <file>    write the flight recorder's recent job
//!                           timing records, as {"jobs": [...]},
//!                           whenever a job fails
//!   --flight-jobs <n>       flight-recorder depth (default 256)
//!   --compact-journal       rewrite --journal keeping only terminal
//!                           job records, print stats, and exit (the
//!                           daemon does not start)
//!   --coordinator <addr>    join a cluster: register/heartbeat with
//!                           this esteem-coord coordinator
//!   --node-id <name>        stable cluster node name
//!                           (default worker-<pid>)
//!   --advertise <addr>      address other nodes dial for this worker
//!                           (default: the bound address)
//!   --heartbeat-ms <ms>     cluster heartbeat interval (default 1000)
//!   --aging <pops>          queue priority aging: +1 effective priority
//!                           level per this many pops waited (default 0
//!                           = off)
//! ```
//!
//! The daemon exits after `POST /v1/shutdown`: the queue closes, every
//! accepted job runs to completion, workers join, and the listener
//! stops.

use std::io::Write;
use std::process::ExitCode;

use esteem_serve::ServerOptions;

const HELP: &str = "usage: esteem-serve [--addr host:port] [--workers n] [--queue-capacity n] \
     [--journal file] [--flight-dump file] [--flight-jobs n] [--compact-journal] \
     [--coordinator addr] [--node-id name] [--advertise addr] [--heartbeat-ms ms] \
     [--aging pops]";

fn parse() -> Result<(ServerOptions, bool), String> {
    let mut opts = ServerOptions {
        addr: "127.0.0.1:7117".into(),
        ..ServerOptions::default()
    };
    let mut compact = false;
    let mut coordinator: Option<String> = None;
    let mut node_id: Option<String> = None;
    let mut advertise: Option<String> = None;
    let mut heartbeat_ms: u64 = 1000;
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--compact-journal" => compact = true,
            "--addr" => opts.addr = next(&mut it, "--addr")?,
            "--workers" => {
                opts.workers = next(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--queue-capacity" => {
                opts.queue_capacity = next(&mut it, "--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
                if opts.queue_capacity == 0 {
                    return Err("--queue-capacity must be >= 1".into());
                }
            }
            "--journal" => opts.journal_path = Some(next(&mut it, "--journal")?.into()),
            "--flight-dump" => opts.flight_dump = Some(next(&mut it, "--flight-dump")?.into()),
            "--flight-jobs" => {
                opts.flight_recorder_jobs = next(&mut it, "--flight-jobs")?
                    .parse()
                    .map_err(|e| format!("--flight-jobs: {e}"))?;
                if opts.flight_recorder_jobs == 0 {
                    return Err("--flight-jobs must be >= 1".into());
                }
            }
            "--coordinator" => coordinator = Some(next(&mut it, "--coordinator")?),
            "--node-id" => node_id = Some(next(&mut it, "--node-id")?),
            "--advertise" => advertise = Some(next(&mut it, "--advertise")?),
            "--heartbeat-ms" => {
                heartbeat_ms = next(&mut it, "--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
                if heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be >= 1".into());
                }
            }
            "--aging" => {
                opts.aging_pops = next(&mut it, "--aging")?
                    .parse()
                    .map_err(|e| format!("--aging: {e}"))?;
            }
            "-h" | "--help" => return Err(HELP.into()),
            other => return Err(format!("unknown flag {other}\n{HELP}")),
        }
    }
    if let Some(coordinator) = coordinator {
        let node_id = node_id.unwrap_or_else(|| format!("worker-{}", std::process::id()));
        let mut cfg = esteem_serve::ClusterConfig::new(coordinator, node_id);
        cfg.advertise = advertise;
        cfg.heartbeat = std::time::Duration::from_millis(heartbeat_ms);
        opts.cluster = Some(cfg);
    } else if node_id.is_some() || advertise.is_some() {
        return Err("--node-id/--advertise need --coordinator".into());
    }
    Ok((opts, compact))
}

fn main() -> ExitCode {
    let (opts, compact) = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if compact {
        let Some(path) = opts.journal_path.as_deref() else {
            eprintln!("--compact-journal needs --journal <file>");
            return ExitCode::FAILURE;
        };
        return match esteem_serve::journal::compact(path) {
            Ok(s) => {
                println!(
                    "compacted {}: {} jobs ({} terminal, {} unfinished), \
                     {} lines -> {} ({} corrupt dropped)",
                    path.display(),
                    s.jobs,
                    s.terminal,
                    s.unfinished,
                    s.lines_before,
                    s.lines_after,
                    s.skipped
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compacting {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let daemon = match esteem_serve::spawn(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("starting daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts (and the smoke test) parse this line for the ephemeral
    // port, so flush it before blocking.
    println!("listening on {}", daemon.addr());
    let _ = std::io::stdout().flush();
    let drained = daemon.wait();
    if !drained {
        eprintln!("warning: some connections did not drain before the timeout");
    }
    ExitCode::SUCCESS
}
