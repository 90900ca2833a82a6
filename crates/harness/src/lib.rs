//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index).
//!
//! The `esteem-repro` binary is the entry point:
//!
//! ```text
//! esteem-repro [--scale bench|quick|default|paper] [--threads N] [--json DIR] [--trace FILE] <experiment>...
//!   experiments: table1 table2 overhead fig2 fig3 fig4 fig5 fig6 table3 table3-dual
//!                calib ecc ablations breakdown:<bench> all
//! ```
//!
//! `all` runs the paper's artifacts (table1 through table3-dual); the
//! calibration probe, the ECC extension, the ablations and the power
//! breakdown run only when named.
//!
//! Every experiment prints the same rows/series the paper reports and can
//! persist machine-readable JSON next to the text output. Runs are
//! deterministic; `--scale` trades simulation length for fidelity
//! (`paper` = the full 400 M instructions per core).

pub mod csv;
pub mod experiments;
pub mod results;
pub mod runcache;
pub mod scale;
pub mod tablefmt;
pub mod traceanalyze;

pub use scale::Scale;

use esteem_core::{AlgoParams, SystemConfig, Technique};
use esteem_edram::RetentionSpec;

/// Builds the paper's single-core config for a technique at a scale and
/// retention period.
pub fn single_core_cfg(technique: Technique, scale: Scale, retention_us: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_single_core(technique);
    cfg.retention = RetentionSpec::from_micros(retention_us, 2.0);
    cfg.sim_instructions = scale.instructions();
    cfg.warmup_cycles = scale.warmup_cycles();
    cfg
}

/// Builds the paper's dual-core config for a technique at a scale and
/// retention period.
pub fn dual_core_cfg(technique: Technique, scale: Scale, retention_us: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_dual_core(technique);
    cfg.retention = RetentionSpec::from_micros(retention_us, 2.0);
    cfg.sim_instructions = scale.instructions();
    cfg.warmup_cycles = scale.warmup_cycles();
    cfg
}

/// The paper's default ESTEEM parameters for a core count (§7).
pub fn default_algo(cores: u32) -> AlgoParams {
    if cores <= 1 {
        AlgoParams::paper_single_core()
    } else {
        AlgoParams::paper_dual_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = single_core_cfg(Technique::Baseline, Scale::Quick, 40.0);
        assert_eq!(c.retention.period_cycles, 80_000);
        assert_eq!(c.sim_instructions, Scale::Quick.instructions());
        let d = dual_core_cfg(Technique::Rpv, Scale::Quick, 50.0);
        assert_eq!(d.cores, 2);
        assert_eq!(default_algo(1).modules, 8);
        assert_eq!(default_algo(2).modules, 16);
    }
}
