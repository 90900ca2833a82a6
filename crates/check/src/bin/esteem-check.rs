//! Differential fuzzing driver.
//!
//! ```text
//! esteem-check [--seed N] [--cases N] [--out DIR] [--max-divergences N]
//!              [--replay FILE] [--quiet]
//! ```
//!
//! Fuzz mode (default): generates `--cases` random configurations and
//! operation streams from `--seed`, runs each through the optimized stack
//! and the oracle in lockstep, and for every divergence writes a minimized
//! reproducer JSON into `--out` (default `results/repros/`). Each case
//! also fuzzes Algorithm 1 against its reference transcription. The run
//! ends with a line `L1 replica: N of M cases` counting the cases that
//! were also replayed through the L1 batch kernel, and a line
//! `Polyphase: N of M cases (K with reconfiguration)` counting the cases
//! under a polyphase refresh policy, K of which also turn ways off (the
//! path where the cache invalidates lines behind the refresh engine's
//! back). Exit code is nonzero iff any divergence was found.
//!
//! Replay mode: `--replay FILE` re-runs one saved reproducer and reports
//! whether it still diverges (exit 1) or has been fixed (exit 0).

use std::path::PathBuf;
use std::process::ExitCode;

use esteem_check::fuzz::{case_rng, gen_algo1_case, gen_case, Op};
use esteem_check::lockstep::{install_quiet_panic_hook, run_case, runs_l1_replica};
use esteem_check::minimize::minimize;
use esteem_check::{oracle_algorithm1, repro};
use esteem_core::esteem::algorithm1;

struct Args {
    seed: u64,
    cases: u64,
    out: PathBuf,
    max_divergences: usize,
    replay: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0,
        cases: 1000,
        out: PathBuf::from("results/repros"),
        max_divergences: 10,
        replay: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--cases" => {
                args.cases = val("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--max-divergences" => {
                args.max_divergences = val("--max-divergences")?
                    .parse()
                    .map_err(|e| format!("--max-divergences: {e}"))?
            }
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: esteem-check [--seed N] [--cases N] [--out DIR] \
                     [--max-divergences N] [--replay FILE] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esteem-check: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        return replay(path);
    }

    install_quiet_panic_hook();
    let mut divergences = 0usize;
    let mut ran = 0u64;
    let mut l1_cases = 0u64;
    let (mut polyphase, mut polyphase_reconfig) = (0u64, 0u64);
    for i in 0..args.cases {
        let case = gen_case(&mut case_rng(args.seed, i));
        ran += 1;
        l1_cases += u64::from(runs_l1_replica(&case));
        if case.config.policy.is_polyphase() {
            polyphase += 1;
            polyphase_reconfig +=
                u64::from(case.ops.iter().any(|op| matches!(op, Op::Reconfig { .. })));
        }
        if let Some(raw) = run_case(&case) {
            divergences += 1;
            eprintln!("case {i} (seed {}): {raw}", args.seed);
            let (min, div) = minimize(&case);
            let r = repro::Repro {
                seed: args.seed,
                case_index: i,
                config: min.config.clone(),
                ops: min.ops.clone(),
                divergence: div.clone(),
            };
            match repro::save(&args.out, &r) {
                Ok(path) => eprintln!(
                    "  minimized to {} ops: {div}\n  reproducer: {}",
                    min.ops.len(),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "  minimized to {} ops: {div}\n  (save failed: {e})",
                    min.ops.len()
                ),
            }
            if divergences >= args.max_divergences {
                eprintln!("stopping after {divergences} divergences");
                break;
            }
        }

        // Algorithm 1 differential: reference transcription vs optimized.
        let ac = gen_algo1_case(&mut case_rng(args.seed ^ 0xa160_0001, i));
        let want = oracle_algorithm1(&ac.hits, ac.alpha, ac.a_min, ac.non_lru_guard);
        let got = algorithm1(&ac.hits, ac.alpha, ac.a_min, ac.non_lru_guard);
        if want != got {
            divergences += 1;
            eprintln!(
                "case {i}: algorithm1 diverged: oracle={want} optimized={got} \
                 (hits={:?} alpha={} a_min={} guard={})",
                ac.hits, ac.alpha, ac.a_min, ac.non_lru_guard
            );
            if divergences >= args.max_divergences {
                eprintln!("stopping after {divergences} divergences");
                break;
            }
        }

        if !args.quiet && (i + 1) % 1000 == 0 {
            eprintln!(
                "… {}/{} cases, {divergences} divergences",
                i + 1,
                args.cases
            );
        }
    }

    println!("L1 replica: {l1_cases} of {ran} cases");
    println!("Polyphase: {polyphase} of {ran} cases ({polyphase_reconfig} with reconfiguration)");
    if divergences == 0 {
        println!(
            "esteem-check: {} cases (seed {}), zero divergences",
            args.cases, args.seed
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "esteem-check: {divergences} divergence(s) over {} cases (seed {}); reproducers in {}",
            args.cases,
            args.seed,
            args.out.display()
        );
        ExitCode::FAILURE
    }
}

fn replay(path: &std::path::Path) -> ExitCode {
    let r = match repro::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("esteem-check: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} ({} ops, recorded divergence: {})",
        path.display(),
        r.ops.len(),
        r.divergence
    );
    match run_case(&r.case()) {
        Some(d) => {
            println!("still diverges: {d}");
            ExitCode::FAILURE
        }
        None => {
            println!("no divergence — this reproducer is fixed");
            ExitCode::SUCCESS
        }
    }
}
