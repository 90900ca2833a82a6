//! Figures 3–6: per-workload energy saving, relative performance, RPKI
//! decrease (ESTEEM and RPV), MPKI increase and active ratio (ESTEEM).
//!
//! Figure 3 = single-core @50 us, Figure 4 = dual-core @50 us,
//! Figure 5 = single-core @40 us, Figure 6 = dual-core @40 us.

use esteem_core::Technique;
use esteem_energy::metrics;
use esteem_par::parallel_map_with;
use esteem_workloads::{all_benchmarks, dual_core_mixes, BenchmarkProfile};
use serde::{Deserialize, Serialize};

use crate::runcache::run_cached;
use crate::tablefmt::{f, Table};
use crate::{default_algo, dual_core_cfg, single_core_cfg, Scale};

/// One workload's results for a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigRow {
    pub workload: String,
    pub esteem_saving_pct: f64,
    pub rpv_saving_pct: f64,
    pub esteem_ws: f64,
    pub rpv_ws: f64,
    pub esteem_fs: f64,
    pub esteem_rpki_dec: f64,
    pub rpv_rpki_dec: f64,
    pub esteem_mpki_inc: f64,
    pub esteem_active_pct: f64,
    pub base_ipc: f64,
}

/// Figure-level aggregates (the averages quoted in the paper's text).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigAverages {
    pub esteem_saving_pct: f64,
    pub rpv_saving_pct: f64,
    /// Geometric means, per the paper's methodology.
    pub esteem_ws: f64,
    pub rpv_ws: f64,
    pub esteem_fs: f64,
    pub esteem_rpki_dec: f64,
    pub rpv_rpki_dec: f64,
    pub esteem_mpki_inc: f64,
    pub esteem_active_pct: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigResult {
    pub label: String,
    pub retention_us: f64,
    pub cores: u32,
    pub scale_instructions: u64,
    pub rows: Vec<FigRow>,
    pub avg: FigAverages,
}

/// One workload job: baseline + ESTEEM + RPV on identical streams.
fn run_workload(
    cores: u32,
    scale: Scale,
    retention_us: f64,
    profiles: &[BenchmarkProfile],
    label: &str,
) -> FigRow {
    let make = |t: Technique| {
        if cores == 1 {
            single_core_cfg(t, scale, retention_us)
        } else {
            dual_core_cfg(t, scale, retention_us)
        }
    };
    let mut algo = default_algo(cores);
    algo.interval_cycles = scale.interval_cycles();

    let base = run_cached(make(Technique::Baseline), profiles, label);
    let est = run_cached(make(Technique::Esteem(algo)), profiles, label);
    let rpv = run_cached(make(Technique::Rpv), profiles, label);

    let saving = |tech: &esteem_core::SimReport| {
        esteem_energy::model::energy_saving_percent(base.energy.total(), tech.energy.total())
    };
    FigRow {
        workload: label.to_owned(),
        esteem_saving_pct: saving(&est),
        rpv_saving_pct: saving(&rpv),
        esteem_ws: metrics::weighted_speedup(&est.ipcs(), &base.ipcs()),
        rpv_ws: metrics::weighted_speedup(&rpv.ipcs(), &base.ipcs()),
        esteem_fs: metrics::fair_speedup(&est.ipcs(), &base.ipcs()),
        esteem_rpki_dec: base.rpki() - est.rpki(),
        rpv_rpki_dec: base.rpki() - rpv.rpki(),
        esteem_mpki_inc: est.mpki() - base.mpki(),
        esteem_active_pct: est.active_ratio * 100.0,
        base_ipc: base.per_core[0].ipc,
    }
}

fn averages(rows: &[FigRow]) -> FigAverages {
    let col = |g: fn(&FigRow) -> f64| -> Vec<f64> { rows.iter().map(g).collect() };
    FigAverages {
        esteem_saving_pct: metrics::arithmetic_mean(&col(|r| r.esteem_saving_pct)),
        rpv_saving_pct: metrics::arithmetic_mean(&col(|r| r.rpv_saving_pct)),
        esteem_ws: metrics::geometric_mean(&col(|r| r.esteem_ws)),
        rpv_ws: metrics::geometric_mean(&col(|r| r.rpv_ws)),
        esteem_fs: metrics::geometric_mean(&col(|r| r.esteem_fs)),
        esteem_rpki_dec: metrics::arithmetic_mean(&col(|r| r.esteem_rpki_dec)),
        rpv_rpki_dec: metrics::arithmetic_mean(&col(|r| r.rpv_rpki_dec)),
        esteem_mpki_inc: metrics::arithmetic_mean(&col(|r| r.esteem_mpki_inc)),
        esteem_active_pct: metrics::arithmetic_mean(&col(|r| r.esteem_active_pct)),
    }
}

/// Single-core figure (Fig. 3 at 50 us, Fig. 5 at 40 us). `subset`
/// restricts the benchmark list (used by smoke tests and benches).
pub fn run_single_core(
    scale: Scale,
    retention_us: f64,
    threads: usize,
    subset: Option<&[&str]>,
) -> FigResult {
    let benches: Vec<BenchmarkProfile> = all_benchmarks()
        .into_iter()
        .filter(|b| subset.is_none_or(|s| s.contains(&b.name)))
        .collect();
    let rows = parallel_map_with(threads, &benches, |b| {
        run_workload(1, scale, retention_us, std::slice::from_ref(b), b.name)
    });
    let avg = averages(&rows);
    FigResult {
        label: format!("single-core {retention_us}us"),
        retention_us,
        cores: 1,
        scale_instructions: scale.instructions(),
        rows,
        avg,
    }
}

/// Dual-core figure (Fig. 4 at 50 us, Fig. 6 at 40 us).
pub fn run_dual_core(
    scale: Scale,
    retention_us: f64,
    threads: usize,
    subset: Option<&[&str]>,
) -> FigResult {
    let mixes: Vec<_> = dual_core_mixes()
        .into_iter()
        .filter(|m| subset.is_none_or(|s| s.contains(&m.acronym)))
        .collect();
    let rows = parallel_map_with(threads, &mixes, |m| {
        let profiles = [m.a.clone(), m.b.clone()];
        run_workload(2, scale, retention_us, &profiles, m.acronym)
    });
    let avg = averages(&rows);
    FigResult {
        label: format!("dual-core {retention_us}us"),
        retention_us,
        cores: 2,
        scale_instructions: scale.instructions(),
        rows,
        avg,
    }
}

/// Exports a figure's rows as CSV (for external plotting).
pub fn to_csv(r: &FigResult) -> String {
    let mut c = crate::csv::Csv::new(&[
        "workload",
        "esteem_saving_pct",
        "rpv_saving_pct",
        "esteem_ws",
        "rpv_ws",
        "esteem_fs",
        "esteem_rpki_dec",
        "rpv_rpki_dec",
        "esteem_mpki_inc",
        "esteem_active_pct",
        "base_ipc",
    ]);
    for row in &r.rows {
        c.row(&[
            row.workload.clone(),
            format!("{:.4}", row.esteem_saving_pct),
            format!("{:.4}", row.rpv_saving_pct),
            format!("{:.4}", row.esteem_ws),
            format!("{:.4}", row.rpv_ws),
            format!("{:.4}", row.esteem_fs),
            format!("{:.2}", row.esteem_rpki_dec),
            format!("{:.2}", row.rpv_rpki_dec),
            format!("{:.4}", row.esteem_mpki_inc),
            format!("{:.2}", row.esteem_active_pct),
            format!("{:.4}", row.base_ipc),
        ]);
    }
    c.finish()
}

/// Renders a figure's data the way the paper reports it.
pub fn render(r: &FigResult) -> String {
    let mut t = Table::new(&[
        "workload",
        "ESTEEM %sav",
        "RPV %sav",
        "ESTEEM WS",
        "RPV WS",
        "ESTEEM dRPKI",
        "RPV dRPKI",
        "dMPKI",
        "Active%",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.workload.clone(),
            f(row.esteem_saving_pct, 2),
            f(row.rpv_saving_pct, 2),
            f(row.esteem_ws, 3),
            f(row.rpv_ws, 3),
            f(row.esteem_rpki_dec, 1),
            f(row.rpv_rpki_dec, 1),
            f(row.esteem_mpki_inc, 3),
            f(row.esteem_active_pct, 1),
        ]);
    }
    let a = &r.avg;
    t.row(vec![
        "AVERAGE".into(),
        f(a.esteem_saving_pct, 2),
        f(a.rpv_saving_pct, 2),
        f(a.esteem_ws, 3),
        f(a.rpv_ws, 3),
        f(a.esteem_rpki_dec, 1),
        f(a.rpv_rpki_dec, 1),
        f(a.esteem_mpki_inc, 3),
        f(a.esteem_active_pct, 1),
    ]);
    format!(
        "== {} (ESTEEM & RPV vs. baseline, {} instrs/core) ==\n{}",
        r.label,
        r.scale_instructions,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_single_core_smoke() {
        let r = run_single_core(Scale::Bench, 50.0, 2, Some(&["gamess", "milc"]));
        assert_eq!(r.rows.len(), 2);
        assert!(r.avg.esteem_saving_pct > 0.0, "{:?}", r.avg);
        assert!(r.avg.esteem_rpki_dec > r.avg.rpv_rpki_dec);
        let text = render(&r);
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("gamess"));
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
        assert!(csv.starts_with("workload,"));
    }
}
