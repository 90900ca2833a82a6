//! Simulation-length presets.

/// How many instructions each core retires before its IPC is recorded.
///
/// The paper simulates 400 M instructions per core after a 10 B fast
/// forward. Our synthetic streams are stationary-by-phase, so shorter runs
/// retain the qualitative results; `Paper` reproduces the full length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2 M instructions — smoke tests and the CI experiment runs.
    Bench,
    /// 10 M instructions — fast iteration.
    Quick,
    /// 60 M instructions — the default for reported results (enough for
    /// several 10 M-cycle reconfiguration intervals).
    Default,
    /// 400 M instructions — the paper's published length.
    Paper,
}

impl Scale {
    pub fn instructions(self) -> u64 {
        match self {
            Scale::Bench => 2_000_000,
            Scale::Quick => 10_000_000,
            Scale::Default => 60_000_000,
            Scale::Paper => 400_000_000,
        }
    }

    /// ESTEEM interval length appropriate for the scale: the paper's 10 M
    /// cycles for the realistic scales, shortened for the tiny ones so the
    /// algorithm still gets several intervals to act.
    pub fn interval_cycles(self) -> u64 {
        match self {
            Scale::Bench => 500_000,
            Scale::Quick => 2_000_000,
            Scale::Default | Scale::Paper => 10_000_000,
        }
    }

    /// Warm-up cycles (excluded from all metrics) — the stand-in for the
    /// paper's 10 B fast-forward. Covers at least two reconfiguration
    /// intervals so ESTEEM's damped convergence completes before
    /// measurement.
    pub fn warmup_cycles(self) -> u64 {
        match self {
            Scale::Bench => 2_200_000,
            Scale::Quick => 7_500_000,
            Scale::Default | Scale::Paper => 35_000_000,
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "bench" => Some(Scale::Bench),
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [Scale::Bench, Scale::Quick, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn ordering_of_lengths() {
        assert!(Scale::Bench.instructions() < Scale::Quick.instructions());
        assert!(Scale::Quick.instructions() < Scale::Default.instructions());
        assert!(Scale::Default.instructions() < Scale::Paper.instructions());
        assert_eq!(Scale::Paper.instructions(), 400_000_000);
        assert_eq!(Scale::Paper.interval_cycles(), 10_000_000);
    }
}
