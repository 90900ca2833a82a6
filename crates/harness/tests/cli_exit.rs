//! CLI error behaviour: invalid flag values must produce a one-line
//! error on stderr and a nonzero exit code — never a panic backtrace.

use std::process::{Command, Output};

fn run_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esteem-sim"))
        .args(args)
        .output()
        .expect("spawn esteem-sim")
}

fn run_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_esteem-repro"))
        .args(args)
        .output()
        .expect("spawn esteem-repro")
}

fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected nonzero exit, got {:?} (stderr: {stderr})",
        out.status
    );
    assert!(
        !stderr.contains("panicked at"),
        "stderr must not contain a panic backtrace: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr should mention `{needle}`: {stderr}"
    );
}

#[test]
fn sim_rejects_zero_static_ways() {
    let out = run_sim(&[
        "--technique",
        "static",
        "--ways",
        "0",
        "--instructions",
        "1000",
        "gamess",
    ]);
    assert_clean_failure(&out, "static way count");
}

#[test]
fn sim_rejects_zero_a_min() {
    let out = run_sim(&["--a-min", "0", "--instructions", "1000", "gamess"]);
    assert_clean_failure(&out, "A_min");
}

#[test]
fn sim_rejects_zero_retention() {
    let out = run_sim(&["--retention", "0", "--instructions", "1000", "gamess"]);
    assert_clean_failure(&out, "retention");
}

#[test]
fn sim_rejects_zero_instructions() {
    let out = run_sim(&["--instructions", "0", "gamess"]);
    assert_clean_failure(&out, "sim_instructions");
}

#[test]
fn sim_rejects_bad_alpha() {
    let out = run_sim(&["--alpha", "1.5", "--instructions", "1000", "gamess"]);
    assert_clean_failure(&out, "alpha");
}

#[test]
fn sim_rejects_indivisible_modules() {
    let out = run_sim(&["--modules", "3", "--instructions", "1000", "gamess"]);
    assert_clean_failure(&out, "modules");
}

#[test]
fn sim_rejects_unknown_workload_and_flag() {
    assert_clean_failure(&run_sim(&["no-such-benchmark"]), "unknown workload");
    assert_clean_failure(&run_sim(&["--frobnicate", "gamess"]), "unknown flag");
}

#[test]
fn sim_rejects_unparsable_number() {
    let out = run_sim(&["--instructions", "many", "gamess"]);
    assert_clean_failure(&out, "invalid digit");
}

#[test]
fn repro_rejects_bad_values() {
    assert_clean_failure(&run_repro(&["--threads", "0", "table1"]), "--threads");
    assert_clean_failure(&run_repro(&["--scale", "huge", "table1"]), "bad scale");
    assert_clean_failure(&run_repro(&["no-such-experiment"]), "unknown experiment");
    assert_clean_failure(&run_repro(&["breakdown:nosuch"]), "unknown benchmark");
    assert_clean_failure(&run_repro(&["breakdown:"]), "unknown benchmark");
}

#[test]
fn valid_run_still_succeeds() {
    let out = run_sim(&[
        "--technique",
        "baseline",
        "--instructions",
        "200000",
        "gamess",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
