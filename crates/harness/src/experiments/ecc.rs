//! Extension study: ECC-assisted refresh-period extension.
//!
//! The paper's related work (§2) cites error-correction approaches that
//! "allow increasing the refresh period by tolerating some failures"
//! [39, 45] as the main alternative to reconfiguration. This experiment
//! quantifies that trade-off on our substrate: sweep the refresh-period
//! multiplier `k` and the ECC strength, and report energy saving,
//! performance, and the scrub-invalidation volume — then put ESTEEM's
//! operating point next to it.

use esteem_core::Technique;
use esteem_energy::metrics;
use esteem_par::parallel_map_with;
use esteem_workloads::benchmark_by_name;
use serde::{Deserialize, Serialize};

use crate::runcache::run_cached;
use crate::tablefmt::{f, Table};
use crate::{default_algo, single_core_cfg, Scale};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EccRow {
    pub benchmark: String,
    pub label: String,
    pub energy_saving_pct: f64,
    pub ws: f64,
    pub rpki_dec: f64,
    pub mpki_inc: f64,
    pub scrub_invalidations: u64,
}

/// Sweeps `k in {2,3,4,6}` x `ecc in {0,1,2}` plus ESTEEM, per benchmark.
pub fn run(scale: Scale, threads: usize, benchmarks: &[&str]) -> Vec<EccRow> {
    let mut jobs: Vec<(String, Technique, String)> = Vec::new();
    for &b in benchmarks {
        for periods in [2u8, 3, 4, 6] {
            for ecc_bits in [0u8, 1, 2] {
                jobs.push((
                    b.to_owned(),
                    Technique::EccRefresh { periods, ecc_bits },
                    format!("k={periods} ecc={ecc_bits}"),
                ));
            }
        }
        let mut algo = default_algo(1);
        algo.interval_cycles = scale.interval_cycles();
        jobs.push((b.to_owned(), Technique::Esteem(algo), "ESTEEM".into()));
    }
    parallel_map_with(threads, &jobs, |(bench, tech, label)| {
        let p = benchmark_by_name(bench).expect("known benchmark");
        let ps = std::slice::from_ref(&p);
        // Memoized: the 13 sweep points per benchmark share one baseline.
        let base = run_cached(single_core_cfg(Technique::Baseline, scale, 50.0), ps, bench);
        let r = run_cached(single_core_cfg(*tech, scale, 50.0), ps, bench);
        EccRow {
            benchmark: bench.clone(),
            label: label.clone(),
            energy_saving_pct: esteem_energy::model::energy_saving_percent(
                base.energy.total(),
                r.energy.total(),
            ),
            ws: metrics::weighted_speedup(&r.ipcs(), &base.ipcs()),
            rpki_dec: base.rpki() - r.rpki(),
            mpki_inc: r.mpki() - base.mpki(),
            scrub_invalidations: r.refresh_invalidations,
        }
    })
}

pub fn render(rows: &[EccRow]) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "policy",
        "%E saving",
        "WS",
        "dRPKI",
        "dMPKI",
        "scrubs",
    ]);
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            r.label.clone(),
            f(r.energy_saving_pct, 2),
            f(r.ws, 3),
            f(r.rpki_dec, 1),
            f(r.mpki_inc, 3),
            r.scrub_invalidations.to_string(),
        ]);
    }
    format!(
        "== Extension: ECC-assisted refresh-period extension vs ESTEEM ==\n\
         (k = refresh-period multiplier; scrubs = uncorrectable lines invalidated)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape() {
        let rows = run(Scale::Bench, 1, &["hmmer"]);
        assert_eq!(rows.len(), 13); // 4k x 3ecc + ESTEEM
                                    // Larger k always cuts more refreshes (ecc fixed at 0).
        let k = |label: &str| rows.iter().find(|r| r.label == label).unwrap().rpki_dec;
        assert!(k("k=4 ecc=0") > k("k=2 ecc=0"));
        // ECC never increases scrub volume at fixed k.
        let scrub = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap()
                .scrub_invalidations
        };
        assert!(scrub("k=6 ecc=2") <= scrub("k=6 ecc=0"));
        let text = render(&rows);
        assert!(text.contains("ESTEEM"));
    }
}
