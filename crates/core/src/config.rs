//! System configuration (paper §6.1 and §7 defaults).

use esteem_cache::CacheGeometry;
use esteem_edram::{RefreshPolicy, RetentionSpec};
use esteem_mem::MemConfig;
use serde::{Deserialize, Serialize};

/// Parameters of ESTEEM's energy-saving algorithm (paper §7 defaults:
/// alpha 0.97, A_min 3, R_s 64, 10 M-cycle intervals, 8 modules for the
/// single-core system and 16 for the dual-core one).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgoParams {
    /// Hit-coverage threshold `alpha` (< 1).
    pub alpha: f64,
    /// Minimum ways always kept on, `A_min` (the paper never uses 1: a
    /// direct-mapped LLC loses too much performance).
    pub a_min: u8,
    /// Number of modules `M` the L2's sets are divided into.
    pub modules: u16,
    /// Interval between algorithm invocations, in cycles.
    pub interval_cycles: u64,
    /// Set-sampling ratio `R_s` (one leader set per `R_s` sets).
    pub rs: u32,
    /// Extension (paper §7.2 "future work"): bound on how many ways a
    /// module's allocation may change per interval. `None` = unbounded,
    /// as evaluated in the paper.
    pub max_step: Option<u8>,
    /// The non-LRU anomaly guard of Algorithm 1 lines 4–13; disabling it
    /// is an ablation, not a paper configuration.
    pub non_lru_guard: bool,
    /// Shrink confirmation: a module only gives up ways when two
    /// consecutive intervals request it (growth is immediate). This
    /// realises the paper's §7.2 remark that reconfiguration overhead is
    /// minimized by "detecting and avoiding frequent reconfigurations";
    /// without it, ATD sampling noise makes decisions oscillate by a way
    /// or two each interval, and every oscillation flushes and refills
    /// cache lines.
    pub shrink_confirm: bool,
}

impl AlgoParams {
    pub fn paper_single_core() -> Self {
        Self {
            alpha: 0.97,
            a_min: 3,
            modules: 8,
            interval_cycles: 10_000_000,
            rs: 64,
            max_step: None,
            non_lru_guard: true,
            shrink_confirm: true,
        }
    }

    pub fn paper_dual_core() -> Self {
        Self {
            modules: 16,
            ..Self::paper_single_core()
        }
    }

    pub fn validate(&self, ways: u8) {
        if let Err(e) = self.check(ways) {
            panic!("{e}");
        }
    }

    /// Non-panicking form of [`Self::validate`].
    pub fn check(&self, ways: u8) -> Result<(), String> {
        if self.alpha.is_nan() || self.alpha <= 0.0 || self.alpha >= 1.0 {
            return Err("alpha in (0,1)".into());
        }
        if !(1..=ways).contains(&self.a_min) {
            return Err(format!("A_min must be in 1..=A (got {})", self.a_min));
        }
        if self.interval_cycles == 0 {
            return Err("interval_cycles must be positive".into());
        }
        if self.rs < 1 {
            return Err("R_s must be >= 1".into());
        }
        if let Some(s) = self.max_step {
            if s < 1 {
                return Err("max_step must allow some movement".into());
            }
        }
        Ok(())
    }
}

/// The cache power-management technique under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Technique {
    /// eDRAM L2 that periodically refreshes *all* lines (the paper's
    /// baseline; §6.4).
    Baseline,
    /// Refrint polyphase-valid with 4 phases (the paper's comparator).
    Rpv,
    /// Refrint polyphase-dirty (described but not evaluated in the paper;
    /// provided as an extension).
    Rpd,
    /// Periodic refresh of valid lines only (Refrint's periodic-valid;
    /// extension).
    PeriodicValid,
    /// ESTEEM: dynamic per-module way reconfiguration + valid-only refresh
    /// in the active portion.
    Esteem(AlgoParams),
    /// ECC-assisted refresh-period extension (extension; the related-work
    /// family the paper cites as [39, 45]): refresh every `periods`
    /// retention periods with `ecc_bits` of per-line correction.
    EccRefresh { periods: u8, ecc_bits: u8 },
    /// Statically shrunken cache (ablation): every module is pinned to a
    /// fixed way count at the start of the run and never reconfigured
    /// again — the paper's "selective ways"-style comparison point that
    /// isolates ESTEEM's *dynamic* adaptation from the raw benefit of
    /// running a smaller cache. Refreshes valid lines in the active
    /// portion only, like ESTEEM.
    StaticWays { ways: u8 },
}

impl Technique {
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Baseline => "baseline",
            Technique::Rpv => "RPV",
            Technique::Rpd => "RPD",
            Technique::PeriodicValid => "periodic-valid",
            Technique::Esteem(_) => "ESTEEM",
            Technique::EccRefresh { .. } => "ECC-refresh",
            Technique::StaticWays { .. } => "static-ways",
        }
    }

    /// Refresh policy the technique runs the L2 with.
    pub fn refresh_policy(&self) -> RefreshPolicy {
        match self {
            Technique::Baseline => RefreshPolicy::PeriodicAll,
            Technique::Rpv => RefreshPolicy::RPV,
            Technique::Rpd => RefreshPolicy::RPD,
            Technique::PeriodicValid => RefreshPolicy::PeriodicValid,
            // "in the active portion of the cache, only the valid blocks
            // are refreshed" (paper §3.1).
            Technique::Esteem(_) => RefreshPolicy::PeriodicValid,
            Technique::EccRefresh { periods, ecc_bits } => RefreshPolicy::MultiPeriodic {
                periods: *periods,
                ecc_bits: *ecc_bits,
            },
            // Only the active portion holds data; refresh its valid lines.
            Technique::StaticWays { .. } => RefreshPolicy::PeriodicValid,
        }
    }

    pub fn algo_params(&self) -> Option<&AlgoParams> {
        match self {
            Technique::Esteem(p) => Some(p),
            _ => None,
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    pub cores: u32,
    /// Core clock (paper: 2 GHz).
    pub clock_hz: f64,
    /// Private L1D capacity/ways/latency (paper: 32 KB, 4-way, 2 cycles;
    /// the latency is pipelined and folded into the core CPI).
    pub l1_capacity: u64,
    pub l1_ways: u8,
    /// Shared L2 capacity (paper: 4 MB single-core / 8 MB dual-core).
    pub l2_capacity: u64,
    pub l2_ways: u8,
    pub l2_latency: u32,
    pub l2_banks: u8,
    /// eDRAM retention period.
    pub retention: RetentionSpec,
    pub mem: MemConfig,
    pub technique: Technique,
    /// Instructions each core must retire before its IPC is recorded
    /// (paper: 400 M; experiments scale this down, DESIGN.md §3).
    pub sim_instructions: u64,
    /// Warm-up cycles, excluded from every reported metric. Stands in for
    /// the paper's 10 B-instruction fast-forward: caches fill and ESTEEM's
    /// configuration converges (cover at least two reconfiguration
    /// intervals) before measurement starts.
    pub warmup_cycles: u64,
    /// Lines refreshed back-to-back per refresh burst in the bank
    /// contention model (see `esteem-edram::contention`).
    pub bank_burst_lines: f64,
    /// Multicore interleave quantum in cycles.
    pub quantum_cycles: u64,
    /// Out-of-order overlap window: cycles of miss latency the core hides.
    pub overlap_cycles: f64,
    /// Workload seed (streams are deterministic given it).
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's single-core system: 4 MB 16-way L2, 10 GB/s memory.
    pub fn paper_single_core(technique: Technique) -> Self {
        Self {
            cores: 1,
            clock_hz: 2.0e9,
            l1_capacity: 32 << 10,
            l1_ways: 4,
            l2_capacity: 4 << 20,
            l2_ways: 16,
            l2_latency: 12,
            l2_banks: 4,
            retention: RetentionSpec::from_micros(50.0, 2.0),
            mem: MemConfig::paper_single_core(),
            technique,
            sim_instructions: 40_000_000,
            warmup_cycles: 35_000_000,
            bank_burst_lines: 128.0,
            quantum_cycles: 1_000,
            overlap_cycles: 8.0,
            seed: 1,
        }
    }

    /// The paper's dual-core system: 8 MB shared L2, 15 GB/s memory.
    pub fn paper_dual_core(technique: Technique) -> Self {
        Self {
            cores: 2,
            l2_capacity: 8 << 20,
            mem: MemConfig::paper_dual_core(),
            ..Self::paper_single_core(technique)
        }
    }

    /// L2 geometry implied by this configuration: module count and leader
    /// stride come from the technique (non-reconfiguring techniques use a
    /// single module and no sampling).
    pub fn l2_geometry(&self) -> CacheGeometry {
        let modules = self.technique.algo_params().map(|p| p.modules).unwrap_or(1);
        CacheGeometry::from_capacity(self.l2_capacity, self.l2_ways, 64, self.l2_banks, modules)
    }

    pub fn l1_geometry(&self) -> CacheGeometry {
        CacheGeometry::from_capacity(self.l1_capacity, self.l1_ways, 64, 1, 1)
    }

    pub fn leader_stride(&self) -> Option<u32> {
        self.technique.algo_params().map(|p| p.rs)
    }

    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Non-panicking form of [`Self::validate`]: returns a one-line
    /// description of the first violated invariant instead of panicking,
    /// so front ends (CLI flag parsing, the `esteem-serve` job API) can
    /// reject a bad configuration without a backtrace.
    pub fn check(&self) -> Result<(), String> {
        if self.cores < 1 {
            return Err("cores must be >= 1".into());
        }
        if self.sim_instructions == 0 {
            return Err("sim_instructions must be positive".into());
        }
        if self.bank_burst_lines.is_nan() || self.bank_burst_lines < 1.0 {
            return Err("bank_burst_lines must be >= 1".into());
        }
        if self.quantum_cycles == 0 {
            return Err("quantum_cycles must be positive".into());
        }
        if self.overlap_cycles.is_nan() || self.overlap_cycles < 0.0 {
            return Err("overlap_cycles must be >= 0".into());
        }
        // Geometries are rebuilt through the fallible constructor: the
        // convenience accessors panic on impossible shapes (e.g. a module
        // count that does not divide the sets) before `check` could report.
        let modules = self.technique.algo_params().map(|p| p.modules).unwrap_or(1);
        let g = CacheGeometry::try_from_capacity(
            self.l2_capacity,
            self.l2_ways,
            64,
            self.l2_banks,
            modules,
        )
        .map_err(|e| format!("L2: {e}"))?;
        CacheGeometry::try_from_capacity(self.l1_capacity, self.l1_ways, 64, 1, 1)
            .map_err(|e| format!("L1: {e}"))?;
        // The L1 batch kernel keeps a set's recency order as a code over
        // four ways (`SetAssocCache::supports_l1_batch`).
        if self.l1_ways > 4 {
            return Err(format!("L1: at most 4 ways (got {})", self.l1_ways));
        }
        if let Some(p) = self.technique.algo_params() {
            p.check(self.l2_ways)?;
            if u32::from(p.modules) > g.sets {
                return Err("more modules than sets".into());
            }
        }
        if let Technique::StaticWays { ways } = self.technique {
            if !(1..=self.l2_ways).contains(&ways) {
                return Err(format!("static way count must be in 1..=A (got {ways})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        SystemConfig::paper_single_core(Technique::Baseline).validate();
        SystemConfig::paper_single_core(Technique::Rpv).validate();
        SystemConfig::paper_single_core(Technique::Esteem(AlgoParams::paper_single_core()))
            .validate();
        SystemConfig::paper_dual_core(Technique::Esteem(AlgoParams::paper_dual_core())).validate();
    }

    #[test]
    fn geometry_reflects_technique() {
        let base = SystemConfig::paper_single_core(Technique::Baseline);
        assert_eq!(base.l2_geometry().modules, 1);
        assert_eq!(base.leader_stride(), None);
        let est =
            SystemConfig::paper_single_core(Technique::Esteem(AlgoParams::paper_single_core()));
        assert_eq!(est.l2_geometry().modules, 8);
        assert_eq!(est.leader_stride(), Some(64));
        assert_eq!(est.l2_geometry().sets, 4096);
    }

    #[test]
    fn refresh_policies_per_technique() {
        assert_eq!(
            Technique::Baseline.refresh_policy(),
            RefreshPolicy::PeriodicAll
        );
        assert_eq!(Technique::Rpv.refresh_policy(), RefreshPolicy::RPV);
        assert_eq!(
            Technique::Esteem(AlgoParams::paper_single_core()).refresh_policy(),
            RefreshPolicy::PeriodicValid
        );
    }

    #[test]
    fn retention_cycles() {
        let c = SystemConfig::paper_single_core(Technique::Baseline);
        assert_eq!(c.retention.period_cycles, 100_000);
    }

    #[test]
    fn wide_l1_rejected() {
        let mut c = SystemConfig::paper_single_core(Technique::Baseline);
        c.l1_ways = 8;
        assert_eq!(c.check(), Err("L1: at most 4 ways (got 8)".into()));
        c.l1_ways = 2;
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let mut p = AlgoParams::paper_single_core();
        p.alpha = 1.5;
        p.validate(16);
    }
}
