//! Golden-report guard: the exact `SimReport` JSON for the Table 3
//! "Default" configuration, captured before the controller/stats
//! refactor, plus the polyphase refresh policies (RPV and RPD on
//! single-core `gamess`, RPV on the dual-core `GcGa` mix). Any byte-level
//! drift in the report (field order, counter values, float formatting)
//! breaks the run-cache fingerprint contract, so these tests compare the
//! serialized report against the committed golden file verbatim.
//!
//! Regenerate (only when an intentional behavior change is made — bump
//! `runcache::FINGERPRINT_VERSION` in the same commit!) with:
//!
//! ```text
//! ESTEEM_BLESS=1 cargo test -p esteem-harness --test golden_report
//! ```

use esteem_core::{Simulator, SystemConfig, Technique};
use esteem_harness::{default_algo, dual_core_cfg, single_core_cfg, Scale};
use esteem_workloads::{benchmark_by_name, mixes::mix_by_acronym};

/// The Table 3 "Default" row's pair of runs at bench scale (the same
/// config construction as `experiments::table3::run_cell`).
fn table3_default_cfg(technique: Technique) -> SystemConfig {
    single_core_cfg(technique, Scale::Bench, 50.0)
}

fn run(technique: Technique) -> String {
    let p = benchmark_by_name("gamess").unwrap();
    let report = Simulator::new(
        table3_default_cfg(technique),
        std::slice::from_ref(&p),
        "gamess",
    )
    .run();
    serde_json::to_string_pretty(&report).expect("report serializes")
}

fn check_or_bless(file: &str, json: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("ESTEEM_BLESS").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    assert_eq!(
        json, golden,
        "SimReport JSON drifted from the pre-refactor golden ({file}); \
         if intentional, re-bless and bump FINGERPRINT_VERSION"
    );
}

#[test]
fn table3_default_esteem_report_matches_golden() {
    let mut algo = default_algo(1);
    algo.interval_cycles = Scale::Bench.interval_cycles();
    check_or_bless(
        "simreport_table3_default_esteem.json",
        &run(Technique::Esteem(algo)),
    );
}

#[test]
fn table3_default_baseline_report_matches_golden() {
    check_or_bless(
        "simreport_table3_default_baseline.json",
        &run(Technique::Baseline),
    );
}

#[test]
fn single_core_rpv_report_matches_golden() {
    check_or_bless("simreport_gamess_rpv.json", &run(Technique::Rpv));
}

#[test]
fn single_core_rpd_report_matches_golden() {
    check_or_bless("simreport_gamess_rpd.json", &run(Technique::Rpd));
}

/// Two cores share the L2, so the polyphase schedule sees interleaved
/// touches from both streams.
#[test]
fn dual_core_rpv_report_matches_golden() {
    let m = mix_by_acronym("GcGa").expect("Table 1 mix");
    let cfg = dual_core_cfg(Technique::Rpv, Scale::Bench, 50.0);
    let report = Simulator::new(cfg, &[m.a, m.b], "GcGa").run();
    check_or_bless(
        "simreport_gcga_rpv.json",
        &serde_json::to_string_pretty(&report).expect("report serializes"),
    );
}

/// Tracing is a strictly read-only tap: running the same configuration
/// with a full-filter tracer attached must reproduce the golden report
/// byte for byte (and therefore the same run-cache fingerprint).
#[test]
fn tracing_enabled_report_matches_golden_bytes() {
    use esteem_trace::{TraceFilter, Tracer};

    let mut algo = default_algo(1);
    algo.interval_cycles = Scale::Bench.interval_cycles();
    let p = benchmark_by_name("gamess").unwrap();
    let tracer = Tracer::ring(1 << 20, TraceFilter::all());
    let report = Simulator::new(
        table3_default_cfg(Technique::Esteem(algo)),
        std::slice::from_ref(&p),
        "gamess",
    )
    .with_tracer(tracer.clone())
    .run();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert!(!tracer.drain().is_empty(), "tracer captured events");
    if std::env::var_os("ESTEEM_BLESS").is_some() {
        return; // the golden is blessed by the untraced test above
    }
    check_or_bless("simreport_table3_default_esteem.json", &json);
}
