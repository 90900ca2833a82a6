//! Validation of the synthetic workload twins against the behavioural
//! classes they imitate, using the reuse-distance analyzer — the checks a
//! reviewer would run before trusting the substitution (DESIGN.md §3).

use esteem::workloads::{benchmark_by_name, AccessStream, ReuseDistance};

const SAMPLE: usize = 150_000;

fn profile_of(name: &str) -> ReuseDistance {
    let p = benchmark_by_name(name).unwrap();
    let mut s = AccessStream::new(&p, 0, 11);
    let mut rd = ReuseDistance::new(1 << 15);
    for _ in 0..SAMPLE {
        rd.access(s.next_bundle().mem.block);
    }
    rd
}

/// Footprints order by working-set class: cache-resident < moderate <
/// huge.
#[test]
fn footprints_order_by_class() {
    let gamess = profile_of("gamess").footprint();
    let bzip2 = profile_of("bzip2").footprint();
    let mcf = profile_of("mcf").footprint();
    assert!(
        gamess < bzip2 && bzip2 < mcf,
        "footprints out of order: gamess {gamess}, bzip2 {bzip2}, mcf {mcf}"
    );
}

/// Cache-resident apps enjoy near-perfect hit ratios at L1 capacity;
/// streaming apps do not reuse at any small capacity.
#[test]
fn l1_scale_hit_ratios_separate_classes() {
    let l1_blocks = 512; // 32 KB
    let resident = profile_of("povray").lru_hit_ratio(l1_blocks);
    let streaming = profile_of("libquantum").lru_hit_ratio(l1_blocks);
    assert!(resident > 0.9, "povray L1-scale hit ratio {resident:.3}");
    assert!(
        streaming < resident,
        "libquantum ({streaming:.3}) should reuse less than povray ({resident:.3})"
    );
}

/// Streaming benchmarks generate a steady stream of cold (compulsory)
/// misses; cache-resident ones barely any after warmup.
#[test]
fn cold_miss_rates_separate_streaming() {
    let lbm = profile_of("lbm");
    let tonto = profile_of("tonto");
    let lbm_cold = lbm.cold_accesses() as f64 / lbm.total_accesses() as f64;
    let tonto_cold = tonto.cold_accesses() as f64 / tonto.total_accesses() as f64;
    assert!(
        lbm_cold > 5.0 * tonto_cold,
        "lbm cold {lbm_cold:.4} vs tonto cold {tonto_cold:.4}"
    );
}

/// The non-LRU scan component puts substantial reuse mass at *deep*
/// distances (beyond 4k blocks) where LRU-friendly moderates have little.
#[test]
fn scan_apps_have_deep_reuse_mass() {
    let om = profile_of("omnetpp");
    let dl = profile_of("dealII");
    let deep_mass = |rd: &ReuseDistance| {
        let h = rd.histogram();
        let deep: u64 = h[4096..].iter().sum();
        deep as f64 / rd.total_accesses() as f64
    };
    let om_deep = deep_mass(&om);
    let dl_deep = deep_mass(&dl);
    assert!(
        om_deep > 2.0 * dl_deep,
        "omnetpp deep-reuse {om_deep:.4} vs dealII {dl_deep:.4}"
    );
}
