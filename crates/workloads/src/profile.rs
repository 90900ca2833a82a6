//! Benchmark profile schema.

use serde::{Deserialize, Serialize};

/// Which suite a benchmark belongs to (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suite {
    Spec2006,
    Hpc,
}

/// One phase of a benchmark's execution. The access-stream generator
/// cycles through the profile's phases; a single-phase profile is a
/// stationary workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Phase length in instructions.
    pub duration_instrs: u64,
    /// Fraction of instructions that are memory references.
    pub mem_ratio: f64,
    /// Fraction of memory references that are writes.
    pub write_ratio: f64,
    /// Size of the innermost (hottest) zone, in 64 B blocks. Roughly the
    /// L1-resident footprint (512 blocks = 32 KB).
    pub hot_blocks: u64,
    /// Probability that a (non-stream, non-scan) reference targets the hot
    /// zone. Real programs keep ~90% of references within an L1-resident
    /// footprint; this is the main L1-hit-rate dial.
    pub hot_weight: f64,
    /// Full reuse working-set size, in blocks (outermost zone).
    pub ws_blocks: u64,
    /// Geometric weight decay across nested zones, in (0, 1]: smaller
    /// means accesses concentrate in the inner zones (stronger locality).
    pub locality_decay: f64,
    /// Number of nested zones between `hot_blocks` and `ws_blocks`.
    pub zones: u8,
    /// Fraction of references served by the sequential streaming component.
    pub stream_frac: f64,
    /// Streaming region size in blocks (the stream pointer wraps here).
    pub stream_blocks: u64,
    /// Fraction of references served by the cyclic-scan (non-LRU)
    /// component.
    pub scan_frac: f64,
    /// Cyclic-scan region size in blocks.
    pub scan_blocks: u64,
}

impl PhaseSpec {
    /// Validates structural invariants; panics with a message on violation.
    pub fn validate(&self) {
        assert!(self.duration_instrs > 0, "phase must have instructions");
        // The lower bound keeps a bundle's instruction count below 2^31
        // (the batched generator counts the gap credit in fixed point).
        assert!(
            self.mem_ratio >= 1.0 / f64::from(1u32 << 30) && self.mem_ratio <= 1.0,
            "mem_ratio in [2^-30, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_ratio),
            "write_ratio in [0,1]"
        );
        assert!(self.hot_blocks >= 1 && self.ws_blocks >= self.hot_blocks);
        assert!(
            self.hot_weight > 0.0 && self.hot_weight < 1.0,
            "hot_weight in (0,1)"
        );
        assert!(
            self.locality_decay > 0.0 && self.locality_decay <= 1.0,
            "locality_decay in (0,1]"
        );
        assert!(self.zones >= 1);
        assert!(self.stream_frac >= 0.0 && self.scan_frac >= 0.0);
        assert!(
            self.stream_frac + self.scan_frac <= 1.0,
            "component fractions must leave room for zone accesses"
        );
        if self.stream_frac > 0.0 {
            assert!(self.stream_blocks >= 1);
        }
        if self.scan_frac > 0.0 {
            assert!(self.scan_blocks >= 1);
        }
    }
}

/// The statistical twin of one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Full benchmark name, e.g. `"h264ref"`.
    pub name: &'static str,
    /// Two-letter acronym from Table 1, e.g. `"H2"`.
    pub acronym: &'static str,
    pub suite: Suite,
    /// CPI of non-memory work (issue/execute), excluding memory stalls.
    pub cpi_base: f64,
    /// Memory-level parallelism: overlapping misses divide the visible
    /// stall of L2/memory latencies.
    pub mlp: f64,
    pub phases: Vec<PhaseSpec>,
}

impl BenchmarkProfile {
    pub fn validate(&self) {
        assert!(!self.phases.is_empty(), "{}: needs phases", self.name);
        assert!(self.cpi_base > 0.0 && self.mlp >= 1.0, "{}", self.name);
        for p in &self.phases {
            p.validate();
        }
    }

    /// Largest working set across phases (for documentation/tests).
    pub fn max_ws_blocks(&self) -> u64 {
        self.phases.iter().map(|p| p.ws_blocks).max().unwrap_or(0)
    }
}

/// A single-phase spec with library defaults; the suite tables override
/// the fields that characterise each benchmark.
pub fn base_phase() -> PhaseSpec {
    PhaseSpec {
        duration_instrs: u64::MAX, // single phase never expires
        mem_ratio: 0.33,
        write_ratio: 0.25,
        hot_blocks: 384,
        hot_weight: 0.90,
        ws_blocks: 16_384,
        locality_decay: 0.45,
        zones: 6,
        stream_frac: 0.02,
        stream_blocks: 1 << 21,
        scan_frac: 0.0,
        scan_blocks: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_phase_is_valid() {
        base_phase().validate();
    }

    #[test]
    #[should_panic(expected = "mem_ratio")]
    fn rejects_zero_mem_ratio() {
        let mut p = base_phase();
        p.mem_ratio = 0.0;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "mem_ratio")]
    fn rejects_bundles_of_2_pow_31_instructions() {
        let mut p = base_phase();
        p.mem_ratio = 1.0 / f64::from(1u32 << 31);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "leave room")]
    fn rejects_overfull_fractions() {
        let mut p = base_phase();
        p.stream_frac = 0.7;
        p.scan_frac = 0.5;
        p.validate();
    }
}
