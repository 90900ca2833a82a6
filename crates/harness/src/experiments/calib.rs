//! Calibration probe (not a paper artifact): per-benchmark behavioural
//! characteristics under the default single-core system, used to sanity
//! check the synthetic workload models against their real counterparts'
//! published classes (miss rates, IPC range, footprints).

use esteem_core::Technique;
use esteem_par::parallel_map_with;
use esteem_workloads::all_benchmarks;
use serde::{Deserialize, Serialize};

use crate::runcache::run_cached;
use crate::tablefmt::{f, Table};
use crate::{default_algo, single_core_cfg, Scale};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibRow {
    pub name: String,
    pub base_ipc: f64,
    pub l1_miss_pct: f64,
    pub l2_mpki: f64,
    pub l2_miss_pct: f64,
    pub base_rpki: f64,
    pub valid_frac_pct: f64,
    pub esteem_active_pct: f64,
    pub esteem_saving_pct: f64,
    pub esteem_ws: f64,
    pub rpv_saving_pct: f64,
    pub esteem_mpki_inc: f64,
}

pub fn run(scale: Scale, threads: usize) -> Vec<CalibRow> {
    let benches = all_benchmarks();
    parallel_map_with(threads, &benches, |b| {
        let mut algo = default_algo(1);
        algo.interval_cycles = scale.interval_cycles();
        let run = |technique| {
            run_cached(
                single_core_cfg(technique, scale, 50.0),
                std::slice::from_ref(b),
                b.name,
            )
        };
        let base = run(Technique::Baseline);
        let est = run(Technique::Esteem(algo));
        let rpv = run(Technique::Rpv);
        let l1 = &base.per_core[0];
        let l1_total = (l1.l1_hits + l1.l1_misses).max(1);
        let l2_total = (base.l2_hits + base.l2_misses).max(1);
        CalibRow {
            name: b.name.to_owned(),
            base_ipc: l1.ipc,
            l1_miss_pct: l1.l1_misses as f64 / l1_total as f64 * 100.0,
            l2_mpki: base.mpki(),
            l2_miss_pct: base.l2_misses as f64 / l2_total as f64 * 100.0,
            base_rpki: base.rpki(),
            // Valid fraction at end of the baseline run ~= refresh volume
            // of a valid-only policy relative to capacity.
            valid_frac_pct: rpv.refreshes as f64 / base.refreshes.max(1) as f64 * 100.0,
            esteem_active_pct: est.active_ratio * 100.0,
            esteem_saving_pct: esteem_energy::model::energy_saving_percent(
                base.energy.total(),
                est.energy.total(),
            ),
            esteem_ws: est.per_core[0].ipc / l1.ipc,
            rpv_saving_pct: esteem_energy::model::energy_saving_percent(
                base.energy.total(),
                rpv.energy.total(),
            ),
            esteem_mpki_inc: est.mpki() - base.mpki(),
        }
    })
}

pub fn render(rows: &[CalibRow]) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "IPC",
        "L1miss%",
        "MPKI",
        "L2miss%",
        "RPKI",
        "RPVref%",
        "Act%",
        "E%sav",
        "WS",
        "RPV%sav",
        "dMPKI",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            f(r.base_ipc, 2),
            f(r.l1_miss_pct, 1),
            f(r.l2_mpki, 1),
            f(r.l2_miss_pct, 1),
            f(r.base_rpki, 0),
            f(r.valid_frac_pct, 0),
            f(r.esteem_active_pct, 1),
            f(r.esteem_saving_pct, 1),
            f(r.esteem_ws, 3),
            f(r.rpv_saving_pct, 1),
            f(r.esteem_mpki_inc, 2),
        ]);
    }
    t.render()
}
