//! The cluster coordinator daemon and journal-merge tool.
//!
//! ```text
//! esteem-coord [options]                 run the coordinator
//!   --addr <host:port>          bind address (default 127.0.0.1:7118;
//!                               port 0 picks an ephemeral port, printed
//!                               on stdout as "listening on <addr>")
//!   --journal <file>            coordinator journal; enables restart
//!                               recovery
//!   --workers <n>               jobs in flight across the fleet
//!                               (default 4); each live worker runs at
//!                               most ceil(n / live workers) of them
//!   --heartbeat-timeout-ms <ms> a worker silent this long gets no new
//!                               jobs (default 5000)
//!
//! esteem-coord merge <name>=<journal> [<name>=<journal> ...]
//!   fold per-worker journals into one JSON view on stdout (outcome
//!   precedence done > failed > unfinished; done/failed disagreements
//!   are listed under "conflicts")
//! ```
//!
//! The coordinator is an `esteem-serve` daemon whose jobs run on the
//! workers that register with it; it exits after `POST /v1/shutdown`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use esteem_cluster::merge_journals;
use esteem_serve::ServerOptions;

const HELP: &str = "usage: esteem-coord [--addr host:port] [--journal file] [--workers n] \
     [--heartbeat-timeout-ms ms]\n\
       esteem-coord merge name=journal [name=journal ...]";

fn parse() -> Result<(ServerOptions, Duration), String> {
    let mut opts = ServerOptions {
        addr: "127.0.0.1:7118".into(),
        workers: 4,
        ..ServerOptions::default()
    };
    let mut heartbeat_timeout = Duration::from_secs(5);
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = next(&mut it, "--addr")?,
            "--journal" => opts.journal_path = Some(next(&mut it, "--journal")?.into()),
            "--workers" => {
                opts.workers = next(&mut it, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if opts.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--heartbeat-timeout-ms" => {
                let ms: u64 = next(&mut it, "--heartbeat-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--heartbeat-timeout-ms must be >= 1".into());
                }
                heartbeat_timeout = Duration::from_millis(ms);
            }
            "-h" | "--help" => return Err(HELP.into()),
            other => return Err(format!("unknown flag {other}\n{HELP}")),
        }
    }
    Ok((opts, heartbeat_timeout))
}

fn run_merge(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("merge needs at least one name=journal argument\n{HELP}");
        return ExitCode::FAILURE;
    }
    let mut inputs: Vec<(String, PathBuf)> = Vec::with_capacity(args.len());
    for arg in args {
        let Some((name, path)) = arg.split_once('=') else {
            eprintln!("merge argument '{arg}' is not name=journal");
            return ExitCode::FAILURE;
        };
        if name.is_empty() || path.is_empty() {
            eprintln!("merge argument '{arg}' is not name=journal");
            return ExitCode::FAILURE;
        }
        inputs.push((name.to_owned(), PathBuf::from(path)));
    }
    let borrowed: Vec<(String, &std::path::Path)> = inputs
        .iter()
        .map(|(n, p)| (n.clone(), p.as_path()))
        .collect();
    match merge_journals(&borrowed) {
        Ok(view) => {
            println!(
                "{}",
                serde_json::to_string_pretty(&view.to_value()).expect("serializes")
            );
            if view.conflicts.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "warning: {} fingerprint(s) with done/failed disagreement",
                    view.conflicts.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("merging journals: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return run_merge(&args[1..]);
    }
    let (opts, heartbeat_timeout) = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let coord = match esteem_cluster::spawn(opts, heartbeat_timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("starting coordinator: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts parse this line for the ephemeral port; flush before
    // blocking.
    println!("listening on {}", coord.daemon.addr());
    let _ = std::io::stdout().flush();
    let drained = coord.daemon.wait();
    if !drained {
        eprintln!("warning: some connections did not drain before the timeout");
    }
    ExitCode::SUCCESS
}
