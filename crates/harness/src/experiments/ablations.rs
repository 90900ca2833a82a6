//! Design-choice ablations (DESIGN.md §6): each of Algorithm 1's design
//! choices switched off on the benchmark where it matters, reported as the
//! quality effect (energy saving, weighted speedup, MPKI increase, active
//! ratio) next to the paper's setting.

use esteem_core::{AlgoParams, Technique};
use esteem_par::{parallel_map_with, ParConfig};
use esteem_workloads::benchmark_by_name;
use serde::{Deserialize, Serialize};

use crate::runcache::run_comparison_cached;
use crate::tablefmt::{f, Table};
use crate::{default_algo, single_core_cfg, Scale};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    pub ablation: String,
    pub benchmark: String,
    pub variant: String,
    pub energy_saving_pct: f64,
    pub ws: f64,
    pub mpki_inc: f64,
    pub active_pct: f64,
}

/// One design choice: the benchmark it shows on, the label of the
/// paper's setting, and the label and parameter change that switch it off.
struct Ablation {
    name: &'static str,
    benchmark: &'static str,
    on: &'static str,
    off: &'static str,
    tweak: fn(&mut AlgoParams),
}

const ABLATIONS: [Ablation; 5] = [
    Ablation {
        name: "non-LRU guard",
        benchmark: "omnetpp",
        on: "guard ON (paper)",
        off: "guard OFF",
        tweak: |a| a.non_lru_guard = false,
    },
    Ablation {
        name: "shrink confirmation",
        benchmark: "bzip2",
        on: "damping ON (default)",
        off: "damping OFF (raw Algorithm 1)",
        tweak: |a| a.shrink_confirm = false,
    },
    Ablation {
        name: "per-module vs uniform",
        benchmark: "h264ref",
        on: "8 modules (paper)",
        off: "1 module (selective-ways only)",
        tweak: |a| a.modules = 1,
    },
    Ablation {
        name: "A_min direct-mapped cliff",
        benchmark: "gobmk",
        on: "A_min=3 (paper)",
        off: "A_min=1 (direct-mapped floor)",
        tweak: |a| a.a_min = 1,
    },
    Ablation {
        name: "max_step limiter",
        benchmark: "gcc",
        on: "unbounded (paper)",
        off: "max_step=2 (future-work ext.)",
        tweak: |a| a.max_step = Some(2),
    },
];

/// Runs every ablation with its feature on and off: ten ESTEEM runs
/// against single-core baselines at 50 us retention.
pub fn run(scale: Scale, threads: usize) -> Vec<AblationRow> {
    let jobs: Vec<(&Ablation, bool)> = ABLATIONS
        .iter()
        .flat_map(|a| [(a, false), (a, true)])
        .collect();
    let cfg = ParConfig {
        threads,
        label: "ablations".into(),
        progress: false,
    };
    parallel_map_with(&cfg, &jobs, |&(ablation, off)| {
        let p = benchmark_by_name(ablation.benchmark).expect("known benchmark");
        let mut algo = default_algo(1);
        algo.interval_cycles = scale.interval_cycles();
        if off {
            (ablation.tweak)(&mut algo);
        }
        // Memoized: a variant that runs after its pair reuses the baseline.
        let c = run_comparison_cached(
            |t| single_core_cfg(t, scale, 50.0),
            Technique::Esteem(algo),
            std::slice::from_ref(&p),
            ablation.benchmark,
        );
        AblationRow {
            ablation: ablation.name.to_owned(),
            benchmark: ablation.benchmark.to_owned(),
            variant: if off { ablation.off } else { ablation.on }.to_owned(),
            energy_saving_pct: c.energy_saving_pct,
            ws: c.weighted_speedup,
            mpki_inc: c.mpki_increase,
            active_pct: c.active_ratio * 100.0,
        }
    })
}

pub fn render(rows: &[AblationRow]) -> String {
    let mut t = Table::new(&[
        "ablation",
        "benchmark",
        "variant",
        "%E saving",
        "WS",
        "dMPKI",
        "active %",
    ]);
    for r in rows {
        t.row(vec![
            r.ablation.clone(),
            r.benchmark.clone(),
            r.variant.clone(),
            f(r.energy_saving_pct, 2),
            f(r.ws, 3),
            f(r.mpki_inc, 3),
            f(r.active_pct, 1),
        ]);
    }
    format!(
        "== Ablations: Algorithm 1 design choices, each on (paper) and off ==\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shape() {
        let rows = run(Scale::Bench, 2);
        assert_eq!(rows.len(), 10); // 5 ablations x on/off
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].ablation, pair[1].ablation);
            assert_eq!(pair[0].benchmark, pair[1].benchmark);
        }
        let row = |variant: &str| rows.iter().find(|r| r.variant == variant).unwrap();
        // A direct-mapped floor costs misses; a step limit keeps more ways on.
        assert!(row("A_min=1 (direct-mapped floor)").mpki_inc > row("A_min=3 (paper)").mpki_inc);
        assert!(
            row("max_step=2 (future-work ext.)").active_pct > row("unbounded (paper)").active_pct
        );
        let text = render(&rows);
        assert!(text.contains("guard OFF"));
    }
}
