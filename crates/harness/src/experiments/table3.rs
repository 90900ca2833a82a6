//! Table 3: parameter-sensitivity study for ESTEEM.
//!
//! Each row changes exactly one parameter from the §7 defaults and re-runs
//! the full workload suite (single-core: 34 benchmarks; dual-core: 17
//! mixes) for both the baseline and ESTEEM — the baseline is re-run
//! because the cache-geometry rows (associativity, capacity) change it
//! too. Reported per row: average % energy saving, relative performance
//! (geometric-mean weighted speedup), RPKI decrease, MPKI increase, and
//! active ratio — the paper's exact columns.

use esteem_core::{SystemConfig, Technique};
use esteem_energy::metrics;
use esteem_par::parallel_map_with;
use esteem_workloads::{all_benchmarks, dual_core_mixes, BenchmarkProfile};
use serde::{Deserialize, Serialize};

use crate::runcache::run_cached;
use crate::tablefmt::{f, Table};
use crate::{default_algo, dual_core_cfg, single_core_cfg, Scale};

/// One Table 3 row specification: the default config with one override.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    pub label: String,
    pub a_min: Option<u8>,
    pub alpha: Option<f64>,
    pub modules: Option<u16>,
    /// Interval length as a multiple of the default (0.5 = the paper's
    /// 5 M-cycle row at paper scale).
    pub interval_factor: Option<f64>,
    pub rs: Option<u32>,
    pub l2_ways: Option<u8>,
    pub l2_capacity: Option<u64>,
}

impl Variant {
    fn new(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            ..Self::default()
        }
    }
}

/// The paper's single-core variant list (first column of Table 3).
pub fn single_core_variants() -> Vec<Variant> {
    let mut v = vec![Variant::new("Default")];
    let mut add = |label: &str, edit: fn(&mut Variant)| {
        let mut x = Variant::new(label);
        edit(&mut x);
        v.push(x);
    };
    add("A_min=2", |x| x.a_min = Some(2));
    add("A_min=4", |x| x.a_min = Some(4));
    add("alpha=0.95", |x| x.alpha = Some(0.95));
    add("alpha=0.99", |x| x.alpha = Some(0.99));
    add("2 modules", |x| x.modules = Some(2));
    add("4 modules", |x| x.modules = Some(4));
    add("16 modules", |x| x.modules = Some(16));
    add("32 modules", |x| x.modules = Some(32));
    add("5M interval", |x| x.interval_factor = Some(0.5));
    add("15M interval", |x| x.interval_factor = Some(1.5));
    add("Rs=32", |x| x.rs = Some(32));
    add("Rs=128", |x| x.rs = Some(128));
    add("8-way L2", |x| x.l2_ways = Some(8));
    add("32-way L2", |x| x.l2_ways = Some(32));
    add("2MB L2", |x| x.l2_capacity = Some(2 << 20));
    add("8MB L2", |x| x.l2_capacity = Some(8 << 20));
    v
}

/// The paper's dual-core variant list (defaults differ: M=16, 8MB).
pub fn dual_core_variants() -> Vec<Variant> {
    let mut v = vec![Variant::new("Default")];
    let mut add = |label: &str, edit: fn(&mut Variant)| {
        let mut x = Variant::new(label);
        edit(&mut x);
        v.push(x);
    };
    add("A_min=2", |x| x.a_min = Some(2));
    add("A_min=4", |x| x.a_min = Some(4));
    add("alpha=0.95", |x| x.alpha = Some(0.95));
    add("alpha=0.99", |x| x.alpha = Some(0.99));
    add("4 modules", |x| x.modules = Some(4));
    add("8 modules", |x| x.modules = Some(8));
    add("32 modules", |x| x.modules = Some(32));
    add("64 modules", |x| x.modules = Some(64));
    add("5M interval", |x| x.interval_factor = Some(0.5));
    add("15M interval", |x| x.interval_factor = Some(1.5));
    add("Rs=32", |x| x.rs = Some(32));
    add("Rs=128", |x| x.rs = Some(128));
    add("8-way L2", |x| x.l2_ways = Some(8));
    add("32-way L2", |x| x.l2_ways = Some(32));
    add("4MB L2", |x| x.l2_capacity = Some(4 << 20));
    add("16MB L2", |x| x.l2_capacity = Some(16 << 20));
    v
}

/// One computed Table 3 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub label: String,
    pub energy_saving_pct: f64,
    pub rel_perf: f64,
    pub rpki_dec: f64,
    pub mpki_inc: f64,
    pub active_ratio_pct: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Result {
    pub cores: u32,
    pub scale_instructions: u64,
    pub rows: Vec<Row>,
}

fn apply_variant(cfg: &mut SystemConfig, v: &Variant, scale: Scale) {
    if let Some(w) = v.l2_ways {
        cfg.l2_ways = w;
    }
    if let Some(c) = v.l2_capacity {
        cfg.l2_capacity = c;
    }
    let algo = match &mut cfg.technique {
        Technique::Esteem(a) => a,
        _ => return,
    };
    algo.interval_cycles = scale.interval_cycles();
    if let Some(x) = v.a_min {
        algo.a_min = x;
    }
    if let Some(x) = v.alpha {
        algo.alpha = x;
    }
    if let Some(x) = v.modules {
        algo.modules = x;
    }
    if let Some(x) = v.interval_factor {
        algo.interval_cycles = (algo.interval_cycles as f64 * x) as u64;
    }
    if let Some(x) = v.rs {
        algo.rs = x;
    }
}

/// Per-(variant, workload) metric tuple.
#[derive(Debug, Clone, Copy)]
struct Cell {
    saving: f64,
    ws: f64,
    rpki_dec: f64,
    mpki_inc: f64,
    active: f64,
}

fn run_cell(
    cores: u32,
    scale: Scale,
    v: &Variant,
    profiles: &[BenchmarkProfile],
    label: &str,
) -> Cell {
    let make = |t: Technique| {
        let mut cfg = if cores == 1 {
            single_core_cfg(t, scale, 50.0)
        } else {
            dual_core_cfg(t, scale, 50.0)
        };
        apply_variant(&mut cfg, v, scale);
        cfg
    };
    // Memoized: most variants only perturb ESTEEM's parameters, so their
    // baseline configs are identical — the run cache collapses those
    // (and the "Default" row's runs, shared with the figures) to one
    // simulation each.
    let base = run_cached(make(Technique::Baseline), profiles, label);
    let mut algo = default_algo(cores);
    algo.interval_cycles = scale.interval_cycles();
    let est = run_cached(make(Technique::Esteem(algo)), profiles, label);
    Cell {
        saving: esteem_energy::model::energy_saving_percent(
            base.energy.total(),
            est.energy.total(),
        ),
        ws: metrics::weighted_speedup(&est.ipcs(), &base.ipcs()),
        rpki_dec: base.rpki() - est.rpki(),
        mpki_inc: est.mpki() - base.mpki(),
        active: est.active_ratio * 100.0,
    }
}

/// Runs the sensitivity table. `subset` restricts workloads (smoke tests).
pub fn run(cores: u32, scale: Scale, threads: usize, subset: Option<&[&str]>) -> Table3Result {
    let variants = if cores == 1 {
        single_core_variants()
    } else {
        dual_core_variants()
    };
    // Workload list.
    let workloads: Vec<(String, Vec<BenchmarkProfile>)> = if cores == 1 {
        all_benchmarks()
            .into_iter()
            .filter(|b| subset.is_none_or(|s| s.contains(&b.name)))
            .map(|b| (b.name.to_owned(), vec![b]))
            .collect()
    } else {
        dual_core_mixes()
            .into_iter()
            .filter(|mx| subset.is_none_or(|s| s.contains(&mx.acronym)))
            .map(|mx| (mx.acronym.to_owned(), vec![mx.a, mx.b]))
            .collect()
    };

    // Flatten (variant x workload) into one parallel job list.
    let jobs: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|vi| (0..workloads.len()).map(move |wi| (vi, wi)))
        .collect();
    let cells = parallel_map_with(threads, &jobs, |&(vi, wi)| {
        let (label, profiles) = &workloads[wi];
        run_cell(cores, scale, &variants[vi], profiles, label)
    });

    let rows = variants
        .iter()
        .enumerate()
        .map(|(vi, v)| {
            let vcells: Vec<&Cell> = jobs
                .iter()
                .zip(&cells)
                .filter(|((ji, _), _)| *ji == vi)
                .map(|(_, c)| c)
                .collect();
            let col = |g: fn(&Cell) -> f64| -> Vec<f64> { vcells.iter().map(|c| g(c)).collect() };
            Row {
                label: v.label.clone(),
                energy_saving_pct: metrics::arithmetic_mean(&col(|c| c.saving)),
                rel_perf: metrics::geometric_mean(&col(|c| c.ws)),
                rpki_dec: metrics::arithmetic_mean(&col(|c| c.rpki_dec)),
                mpki_inc: metrics::arithmetic_mean(&col(|c| c.mpki_inc)),
                active_ratio_pct: metrics::arithmetic_mean(&col(|c| c.active)),
            }
        })
        .collect();
    Table3Result {
        cores,
        scale_instructions: scale.instructions(),
        rows,
    }
}

pub fn render(r: &Table3Result) -> String {
    let mut t = Table::new(&[
        "variant",
        "%E saving",
        "Rel. Perf.",
        "RPKI dec.",
        "MPKI inc.",
        "Active%",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.label.clone(),
            f(row.energy_saving_pct, 2),
            f(row.rel_perf, 3),
            f(row.rpki_dec, 1),
            f(row.mpki_inc, 3),
            f(row.active_ratio_pct, 1),
        ]);
    }
    format!(
        "== Table 3: ESTEEM parameter sensitivity ({}-core, {} instrs/core) ==\n{}",
        r.cores,
        r.scale_instructions,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_lists_match_paper() {
        let s = single_core_variants();
        let d = dual_core_variants();
        assert_eq!(s.len(), 17); // default + 16 perturbations
        assert_eq!(d.len(), 17);
        assert!(s.iter().any(|v| v.label == "32 modules"));
        assert!(d.iter().any(|v| v.label == "64 modules"));
        assert!(d.iter().any(|v| v.label == "16MB L2"));
    }

    #[test]
    fn smoke_subset_run() {
        // One variant-compatible subset over two tiny workloads.
        let (hits_before, _) = crate::runcache::stats();
        let r = run(1, Scale::Bench, 2, Some(&["gamess", "hmmer"]));
        // 13 of the 17 variants share the default-geometry baseline per
        // workload, so the run cache must have served repeats.
        let (hits_after, _) = crate::runcache::stats();
        assert!(
            hits_after > hits_before,
            "table3 must dedup identical baseline runs"
        );
        assert_eq!(r.rows.len(), 17);
        let def = &r.rows[0];
        assert!(def.energy_saving_pct > 0.0, "{def:?}");
        let text = render(&r);
        assert!(text.contains("Default"));
        assert!(text.contains("32-way L2"));
    }
}
