//! Content-addressed memoization of simulation runs.
//!
//! The experiment sweeps re-run identical simulations many times over: a
//! figure at 50 us and Table 3's "Default" variant share every baseline
//! run, and 13 of Table 3's 17 variants only perturb ESTEEM's algorithm
//! parameters, so their *baseline* runs are all the same simulation. A
//! run is fully determined by its [`SystemConfig`], its benchmark
//! profiles, and its workload label (the simulator is deterministic:
//! same config + same profiles + same seed => bit-identical
//! [`SimReport`]). This module keys finished reports by a stable
//! fingerprint of exactly those inputs and returns the memoized report
//! instead of re-simulating.
//!
//! The cache is process-wide and thread-safe. Simulations run *outside*
//! the lock: two threads racing on the same fingerprint may both
//! simulate, but both produce the identical report, so the second insert
//! is a harmless overwrite — never a wrong answer.
//!
//! Optional on-disk persistence: set `ESTEEM_RUN_CACHE_DIR` to a
//! directory (e.g. `results/cache/`) and every computed report is also
//! written there as `run-<fingerprint>.json`; later processes with the
//! same setting reload instead of re-simulating. Delete the directory
//! (or unset the variable) to drop the persisted entries. The
//! fingerprint embeds [`FINGERPRINT_VERSION`]; bump it whenever the
//! simulator's observable behavior changes so stale on-disk entries
//! can never be revived.
//!
//! The disk cache is bounded: `ESTEEM_RUN_CACHE_MAX_BYTES` (plain bytes
//! or with a `K`/`M`/`G` suffix) caps the total size of `run-*.json`
//! entries; after every store the oldest entries (by modification time)
//! are evicted until the directory fits. Unset means unbounded, matching
//! the previous behavior. Evictions are counted in [`cache_stats`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use esteem_core::{SimReport, Simulator, SystemConfig, Technique};
use esteem_trace::{EventKind, TraceEvent, Tracer};
use esteem_workloads::BenchmarkProfile;

/// Bump when simulator behavior changes (invalidates persisted entries).
pub const FINGERPRINT_VERSION: u32 = 1;

static CACHE: OnceLock<Mutex<HashMap<u64, Arc<SimReport>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static DISK_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static TRACER: OnceLock<Tracer> = OnceLock::new();

fn cache() -> &'static Mutex<HashMap<u64, Arc<SimReport>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Attaches a process-wide trace tap: every subsequent lookup emits one
/// [`TraceEvent::RunCache`] event. The cache is process-global state, so
/// its tap is too; first caller wins (later calls are ignored, matching
/// `OnceLock` semantics).
pub fn set_tracer(tracer: Tracer) {
    let _ = TRACER.set(tracer);
}

fn trace_lookup(fp: u64, was_hit: bool) {
    if let Some(t) = TRACER.get() {
        t.emit(EventKind::RunCache, || TraceEvent::RunCache {
            fingerprint: fp,
            hit: was_hit,
        });
    }
}

/// Locks the in-memory cache, recovering from poisoning: the map is
/// plain data and always consistent, and a panic on another sweep
/// thread (e.g. a failed assertion in one experiment) must not cascade
/// into every later lookup panicking too.
fn lock_cache() -> std::sync::MutexGuard<'static, HashMap<u64, Arc<SimReport>>> {
    cache().lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a (64-bit): small, stable across platforms and runs — unlike
/// `DefaultHasher`, whose output the standard library does not fix.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable fingerprint of one simulation's inputs.
///
/// Hashes the `Debug` rendering of the config and profiles plus the
/// label. `SystemConfig` and `BenchmarkProfile` are plain data (every
/// field shows up in `Debug`, including `sim_instructions` and `seed`),
/// so two runs fingerprint equal iff they would simulate identically.
pub fn fingerprint(cfg: &SystemConfig, profiles: &[BenchmarkProfile], label: &str) -> u64 {
    let mut h = fnv1a(
        format!("v{FINGERPRINT_VERSION}|{label}|{cfg:?}").as_bytes(),
        FNV_OFFSET,
    );
    for p in profiles {
        h = fnv1a(format!("|{p:?}").as_bytes(), h);
    }
    h
}

fn disk_dir() -> Option<PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| std::env::var_os("ESTEEM_RUN_CACHE_DIR").map(PathBuf::from))
        .clone()
}

fn disk_path(dir: &std::path::Path, fp: u64) -> PathBuf {
    dir.join(format!("run-{fp:016x}.json"))
}

fn load_from_disk(fp: u64) -> Option<SimReport> {
    let dir = disk_dir()?;
    let body = std::fs::read_to_string(disk_path(&dir, fp)).ok()?;
    serde_json::from_str(&body).ok()
}

/// Parses `ESTEEM_RUN_CACHE_MAX_BYTES`-style sizes: plain bytes or a
/// `K`/`M`/`G` suffix (binary multiples).
pub fn parse_size(s: &str) -> Option<u64> {
    let t = s.trim();
    let (digits, shift) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 10),
        b'm' | b'M' => (&t[..t.len() - 1], 20),
        b'g' | b'G' => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_shl(shift))
}

fn disk_max_bytes() -> Option<u64> {
    static MAX: OnceLock<Option<u64>> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var("ESTEEM_RUN_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| parse_size(&v))
    })
}

/// Evicts oldest-first (by modification time) until the total size of
/// `run-*.json` entries in `dir` is at most `max_bytes`. Returns the
/// number of entries removed. Concurrent writers make the scan racy in
/// principle; a doomed entry that disappears first is simply skipped.
pub fn enforce_disk_cap(dir: &std::path::Path, max_bytes: u64) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("run-") && name.ends_with(".json")) {
                return None;
            }
            let meta = e.metadata().ok()?;
            let mtime = meta.modified().ok()?;
            Some((mtime, meta.len(), e.path()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total <= max_bytes {
        return 0;
    }
    files.sort_by_key(|(mtime, _, _)| *mtime);
    let mut evicted = 0;
    for (_, len, path) in files {
        if total <= max_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            evicted += 1;
        }
    }
    DISK_EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    evicted
}

fn store_to_disk(fp: u64, report: &SimReport) {
    let Some(dir) = disk_dir() else { return };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok(json) = serde_json::to_string(report) {
        // Write-then-rename so a concurrent reader never sees a torn file.
        let tmp = dir.join(format!("run-{fp:016x}.json.tmp{}", std::process::id()));
        if std::fs::write(&tmp, json).is_ok() {
            let _ = std::fs::rename(&tmp, disk_path(&dir, fp));
        }
    }
    if let Some(max) = disk_max_bytes() {
        enforce_disk_cap(&dir, max);
    }
}

/// Cache lookup by fingerprint (memory first, then disk), counting and
/// tracing the outcome. A hit loaded from disk is promoted into memory.
///
/// This is the dedupe primitive of the `esteem-serve` job server: it
/// lets a caller that needs to *observe* a simulation (interval streams,
/// tracing) still short-circuit on a cached result, then publish its own
/// report with [`insert`]. A hit shares the stored report; nothing is
/// copied.
pub fn lookup(fp: u64) -> Option<Arc<SimReport>> {
    if let Some(hit) = lock_cache().get(&fp) {
        HITS.fetch_add(1, Ordering::Relaxed);
        trace_lookup(fp, true);
        return Some(Arc::clone(hit));
    }
    if let Some(hit) = load_from_disk(fp) {
        HITS.fetch_add(1, Ordering::Relaxed);
        trace_lookup(fp, true);
        let hit = Arc::new(hit);
        lock_cache().insert(fp, Arc::clone(&hit));
        return Some(hit);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    trace_lookup(fp, false);
    None
}

/// Publishes a computed report under `fp` (memory + optional disk).
pub fn insert(fp: u64, report: Arc<SimReport>) {
    store_to_disk(fp, &report);
    lock_cache().insert(fp, report);
}

/// Runs the simulation described by `(cfg, profiles, label)`, memoized.
///
/// On a fingerprint hit the stored report is returned without
/// simulating; on a miss the simulation runs (outside the cache lock)
/// and the report is stored for subsequent callers.
pub fn run_cached(cfg: SystemConfig, profiles: &[BenchmarkProfile], label: &str) -> SimReport {
    let fp = fingerprint(&cfg, profiles, label);
    if let Some(hit) = lookup(fp) {
        return SimReport::clone(&hit);
    }
    let report = Simulator::new(cfg, profiles, label).run();
    insert(fp, Arc::new(report.clone()));
    report
}

/// Memoized baseline-vs-technique comparison (the shape every
/// experiment and ablation uses): both runs go through [`run_cached`],
/// so e.g. Table 3's per-variant baselines collapse to one simulation.
pub fn run_comparison_cached(
    make_cfg: impl Fn(Technique) -> SystemConfig,
    technique: Technique,
    profiles: &[BenchmarkProfile],
    label: &str,
) -> esteem_core::Comparison {
    let base = run_cached(make_cfg(Technique::Baseline), profiles, label);
    let tech = run_cached(make_cfg(technique), profiles, label);
    esteem_core::Comparison::from_reports(base, tech)
}

/// `(hits, misses)` since process start.
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Full counter snapshot since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Disk entries evicted by the `ESTEEM_RUN_CACHE_MAX_BYTES` cap.
    pub disk_evictions: u64,
    /// Entries currently resident in memory.
    pub mem_entries: u64,
}

/// [`stats`] plus eviction and residency counts (the `/metrics` view).
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        disk_evictions: DISK_EVICTIONS.load(Ordering::Relaxed),
        mem_entries: lock_cache().len() as u64,
    }
}

/// Drops every in-memory entry (on-disk entries persist) and resets the
/// hit/miss counters. Tests use this for isolation.
pub fn clear() {
    lock_cache().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{single_core_cfg, Scale};
    use esteem_workloads::benchmark_by_name;

    fn profile() -> BenchmarkProfile {
        benchmark_by_name("gamess").unwrap()
    }

    #[test]
    fn cached_report_is_identical_to_fresh() {
        let p = profile();
        let cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        let fresh = Simulator::new(cfg.clone(), std::slice::from_ref(&p), "gamess").run();
        let first = run_cached(cfg.clone(), std::slice::from_ref(&p), "gamess");
        let second = run_cached(cfg, std::slice::from_ref(&p), "gamess");
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&first).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        let (hits, _) = stats();
        assert!(hits >= 1, "second lookup must hit");
    }

    #[test]
    fn distinct_inputs_get_distinct_fingerprints() {
        let p = profile();
        let ps = std::slice::from_ref(&p);
        let cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        let base = fingerprint(&cfg, ps, "gamess");
        // Different label.
        assert_ne!(base, fingerprint(&cfg, ps, "gamess2"));
        // Different retention period.
        let cfg40 = single_core_cfg(Technique::Baseline, Scale::Bench, 40.0);
        assert_ne!(base, fingerprint(&cfg40, ps, "gamess"));
        // Different seed.
        let mut seeded = cfg.clone();
        seeded.seed ^= 1;
        assert_ne!(base, fingerprint(&seeded, ps, "gamess"));
        // Different instruction budget.
        let mut longer = cfg.clone();
        longer.sim_instructions += 1;
        assert_ne!(base, fingerprint(&longer, ps, "gamess"));
        // Different technique.
        let rpv = single_core_cfg(Technique::Rpv, Scale::Bench, 50.0);
        assert_ne!(base, fingerprint(&rpv, ps, "gamess"));
        // Different profile.
        let q = benchmark_by_name("milc").unwrap();
        assert_ne!(base, fingerprint(&cfg, std::slice::from_ref(&q), "gamess"));
    }

    #[test]
    fn poisoned_cache_lock_recovers() {
        // Poison the global cache mutex from a panicking closure, as a
        // failed assertion on a sweep thread would; every later lookup
        // must recover the lock instead of cascading the panic.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache().lock().unwrap();
            panic!("poison the run-cache lock");
        }));
        assert!(cache().is_poisoned());
        let p = profile();
        let mut cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        cfg.seed ^= 0xfeed; // unique fingerprint for this test
        let a = run_cached(cfg.clone(), std::slice::from_ref(&p), "poison-test");
        let b = run_cached(cfg, std::slice::from_ref(&p), "poison-test");
        assert_eq!(a, b);
    }

    #[test]
    fn lookups_emit_trace_events() {
        use esteem_trace::{TraceFilter, Tracer};
        let tracer = Tracer::ring(1 << 12, TraceFilter::all());
        set_tracer(tracer.clone());
        let p = profile();
        let mut cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        cfg.seed ^= 0xbead; // unique fingerprint for this test
        let fp = fingerprint(&cfg, std::slice::from_ref(&p), "trace-test");
        run_cached(cfg.clone(), std::slice::from_ref(&p), "trace-test");
        run_cached(cfg, std::slice::from_ref(&p), "trace-test");
        // Other tests in this process share the global tap; look only at
        // this test's fingerprint.
        let mine: Vec<bool> = tracer
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::RunCache { fingerprint, hit } if fingerprint == fp => Some(hit),
                _ => None,
            })
            .collect();
        assert_eq!(mine, vec![false, true], "one miss then one hit");
    }

    #[test]
    fn parse_size_accepts_suffixes() {
        assert_eq!(parse_size("1024"), Some(1024));
        assert_eq!(parse_size("4K"), Some(4 << 10));
        assert_eq!(parse_size("2m"), Some(2 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size(" 8M "), Some(8 << 20));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("-1"), None);
    }

    #[test]
    fn disk_cap_evicts_oldest_first() {
        let dir = std::env::temp_dir().join(format!("esteem-cap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Four 100-byte entries with strictly increasing mtimes.
        for i in 0..4u64 {
            let p = dir.join(format!("run-{i:016x}.json"));
            std::fs::write(&p, vec![b'x'; 100]).unwrap();
            let mtime = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i * 60);
            let f = std::fs::File::options().write(true).open(&p).unwrap();
            f.set_modified(mtime).unwrap();
        }
        // Unrelated files are never touched.
        std::fs::write(dir.join("README.txt"), b"keep me").unwrap();
        let evicted = enforce_disk_cap(&dir, 250);
        assert_eq!(evicted, 2, "two entries must go to fit 250 bytes");
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            vec![
                "README.txt".to_owned(),
                format!("run-{:016x}.json", 2),
                format!("run-{:016x}.json", 3),
            ],
            "oldest two evicted, newest two and unrelated files kept"
        );
        // Under the cap: nothing further happens.
        assert_eq!(enforce_disk_cap(&dir, 250), 0);
        assert!(cache_stats().disk_evictions >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_insert_roundtrip() {
        let p = profile();
        let mut cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        cfg.seed ^= 0xcafe; // unique fingerprint for this test
        let fp = fingerprint(&cfg, std::slice::from_ref(&p), "lookup-test");
        assert_eq!(lookup(fp), None, "cold lookup misses");
        let report = Arc::new(Simulator::new(cfg, std::slice::from_ref(&p), "lookup-test").run());
        insert(fp, Arc::clone(&report));
        let hit = lookup(fp).expect("published report is returned");
        assert!(Arc::ptr_eq(&hit, &report), "a hit shares the stored report");
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let p = profile();
        let ps = std::slice::from_ref(&p);
        let cfg = single_core_cfg(Technique::Baseline, Scale::Bench, 50.0);
        assert_eq!(
            fingerprint(&cfg, ps, "gamess"),
            fingerprint(&cfg.clone(), ps, "gamess")
        );
    }
}
