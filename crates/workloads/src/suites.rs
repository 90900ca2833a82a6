//! The 34 benchmark profiles (Table 1 of the paper).
//!
//! Parameters are chosen from the public characterisation of SPEC CPU2006
//! and the HPC proxy apps (working-set sizes, L2 MPKI classes, streaming
//! vs. pointer-chasing behaviour, LRU-friendliness) — see DESIGN.md §3 for
//! the substitution rationale. Sizes are in 64 B blocks (16384 blocks =
//! 1 MB; the single-core 4 MB L2 holds 65536 blocks over 4096 sets).
//!
//! Rough taxonomy realised below:
//! * *cache-resident* (gamess, povray, tonto, hmmer, namd, gromacs,
//!   calculix, nekbone): tiny working sets and high hot-zone weight;
//!   ESTEEM's best cases.
//! * *moderate* (bzip2, dealII, gcc, perlbench, sjeng, h264ref, comd,
//!   wrf, zeusmp, astar): working sets of a few MB.
//! * *streaming / memory-bound* (libquantum, milc, lbm, bwaves, leslie3d,
//!   gemsFDTD, sphinx, cactusADM, lulesh, amg2013): large sequential
//!   components, near-100% L2 miss rates for the purest ones.
//! * *huge-working-set* (mcf, soplex, xsbench): bigger than any evaluated
//!   L2, with low hot-zone weight (pointer chasing leaks through the L1);
//!   ESTEEM can lose slightly here (paper §7.2).
//! * *non-LRU* (omnetpp, xalancbmk): cyclic scans put hits at deep LRU
//!   positions; phases vary the scan length so the per-position histogram
//!   is non-monotone at several positions (triggering Algorithm 1's
//!   anomaly guard).
//! * *L2-latency-bound* (gobmk, nekbone): lower hot-zone weight with a
//!   small working set — lots of L2 hits, so these gain most from
//!   refresh-free banks (paper: gobmk 1.29x single-core, GkNe 1.48x
//!   dual-core).

use std::sync::OnceLock;

use crate::profile::{BenchmarkProfile, PhaseSpec, Suite};

/// Compact phase constructor; `dur = 0` means "single phase, never
/// expires". `hw` is the hot-zone weight (the L1-hit-rate dial).
#[allow(clippy::too_many_arguments)]
fn ph(
    dur: u64,
    mem: f64,
    wr: f64,
    hot: u64,
    hw: f64,
    ws: u64,
    decay: f64,
    zones: u8,
    stream_frac: f64,
    stream_blocks: u64,
    scan_frac: f64,
    scan_blocks: u64,
) -> PhaseSpec {
    PhaseSpec {
        duration_instrs: if dur == 0 { u64::MAX } else { dur },
        mem_ratio: mem,
        write_ratio: wr,
        hot_blocks: hot,
        hot_weight: hw,
        ws_blocks: ws,
        locality_decay: decay,
        zones,
        stream_frac,
        stream_blocks,
        scan_frac,
        scan_blocks,
    }
}

fn mk(
    name: &'static str,
    acronym: &'static str,
    suite: Suite,
    cpi_base: f64,
    mlp: f64,
    phases: Vec<PhaseSpec>,
) -> BenchmarkProfile {
    let p = BenchmarkProfile {
        name,
        acronym,
        suite,
        cpi_base,
        mlp,
        phases,
    };
    p.validate();
    p
}

/// The 29 SPEC CPU2006 profiles, in the paper's Table 1 order.
pub fn spec2006_benchmarks() -> Vec<BenchmarkProfile> {
    use Suite::Spec2006 as S;
    let m = 1u64 << 20; // 1 Mi blocks = 64 MB
    vec![
        mk(
            "astar",
            "As",
            S,
            0.50,
            1.3,
            vec![ph(
                0,
                0.30,
                0.20,
                256,
                0.91,
                90_000,
                0.32,
                6,
                0.015,
                4 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "bwaves",
            "Bw",
            S,
            0.45,
            2.5,
            vec![ph(
                0,
                0.32,
                0.30,
                256,
                0.90,
                30_000,
                0.35,
                6,
                0.55,
                3 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "bzip2",
            "Bz",
            S,
            0.50,
            1.6,
            vec![ph(
                0, 0.32, 0.30, 256, 0.92, 35_000, 0.32, 6, 0.02, m, 0.0, 0,
            )],
        ),
        mk(
            "cactusADM",
            "Cd",
            S,
            0.55,
            1.8,
            vec![ph(
                0,
                0.35,
                0.35,
                288,
                0.90,
                120_000,
                0.32,
                6,
                0.25,
                5 * m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "calculix",
            "Ca",
            S,
            0.45,
            1.5,
            vec![ph(
                0,
                0.30,
                0.20,
                240,
                0.95,
                9_000,
                0.40,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "dealII",
            "Dl",
            S,
            0.50,
            1.5,
            vec![ph(
                0, 0.33, 0.25, 256, 0.93, 28_000, 0.32, 6, 0.01, m, 0.0, 0,
            )],
        ),
        mk(
            "gamess",
            "Ga",
            S,
            0.45,
            1.4,
            vec![ph(
                0,
                0.30,
                0.15,
                256,
                0.96,
                2_800,
                0.35,
                6,
                0.002,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "gcc",
            "Gc",
            S,
            0.50,
            1.4,
            vec![
                ph(
                    25_000_000, 0.33, 0.30, 256, 0.92, 20_000, 0.32, 6, 0.015, m, 0.0, 0,
                ),
                ph(
                    25_000_000, 0.33, 0.30, 256, 0.92, 60_000, 0.35, 6, 0.015, m, 0.0, 0,
                ),
            ],
        ),
        mk(
            "gemsFDTD",
            "Gm",
            S,
            0.50,
            2.2,
            vec![ph(
                0,
                0.35,
                0.35,
                256,
                0.90,
                50_000,
                0.32,
                6,
                0.50,
                4 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "gobmk",
            "Gk",
            S,
            0.50,
            1.3,
            vec![ph(
                0,
                0.35,
                0.20,
                384,
                0.84,
                8_000,
                0.40,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "gromacs",
            "Gr",
            S,
            0.45,
            1.5,
            vec![ph(
                0,
                0.30,
                0.20,
                320,
                0.95,
                7_500,
                0.40,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            // h264ref's phase behaviour drives Figure 2 of the paper.
            "h264ref",
            "H2",
            S,
            0.50,
            1.6,
            vec![
                ph(
                    20_000_000, 0.34, 0.25, 256, 0.93, 5_000, 0.32, 6, 0.01, m, 0.0, 0,
                ),
                ph(
                    20_000_000, 0.34, 0.25, 256, 0.93, 22_000, 0.32, 6, 0.01, m, 0.0, 0,
                ),
                ph(
                    20_000_000, 0.34, 0.25, 256, 0.93, 45_000, 0.32, 6, 0.01, m, 0.0, 0,
                ),
            ],
        ),
        mk(
            "hmmer",
            "Hm",
            S,
            0.40,
            1.8,
            vec![ph(
                0,
                0.45,
                0.20,
                320,
                0.96,
                3_500,
                0.35,
                6,
                0.005,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "lbm",
            "Lb",
            S,
            0.45,
            2.8,
            vec![ph(
                0,
                0.30,
                0.45,
                224,
                0.93,
                18_000,
                0.35,
                6,
                0.68,
                4 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "leslie3d",
            "Ls",
            S,
            0.50,
            2.2,
            vec![ph(
                0,
                0.33,
                0.35,
                256,
                0.91,
                40_000,
                0.32,
                6,
                0.45,
                3 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "libquantum",
            "Lq",
            S,
            0.40,
            3.0,
            vec![ph(
                0,
                0.25,
                0.30,
                128,
                0.94,
                3_000,
                0.40,
                4,
                0.80,
                2 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "mcf",
            "Mc",
            S,
            0.60,
            1.5,
            vec![ph(
                0,
                0.34,
                0.20,
                288,
                0.78,
                1_800_000,
                0.80,
                7,
                0.02,
                2 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "milc",
            "Mi",
            S,
            0.50,
            2.4,
            vec![ph(
                0,
                0.30,
                0.35,
                176,
                0.93,
                8_000,
                0.35,
                5,
                0.70,
                3 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "namd",
            "Nd",
            S,
            0.45,
            1.6,
            vec![ph(
                0,
                0.30,
                0.20,
                320,
                0.95,
                7_000,
                0.40,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            // Non-LRU: cyclic scans of varying length (see module docs).
            "omnetpp",
            "Om",
            S,
            0.55,
            1.25,
            vec![
                ph(
                    3_000_000, 0.33, 0.30, 256, 0.90, 30_000, 0.80, 6, 0.02, m, 0.30, 16_384,
                ),
                ph(
                    3_000_000, 0.33, 0.30, 256, 0.90, 30_000, 0.80, 6, 0.02, m, 0.30, 24_576,
                ),
                ph(
                    3_000_000, 0.33, 0.30, 256, 0.90, 30_000, 0.80, 6, 0.02, m, 0.30, 32_768,
                ),
                ph(
                    3_000_000, 0.33, 0.30, 256, 0.90, 30_000, 0.80, 6, 0.02, m, 0.30, 40_960,
                ),
            ],
        ),
        mk(
            "perlbench",
            "Pe",
            S,
            0.50,
            1.4,
            vec![ph(
                0,
                0.35,
                0.30,
                256,
                0.93,
                18_000,
                0.32,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "povray",
            "Po",
            S,
            0.45,
            1.4,
            vec![ph(
                0,
                0.30,
                0.20,
                256,
                0.96,
                3_200,
                0.35,
                6,
                0.002,
                m / 4,
                0.0,
                0,
            )],
        ),
        mk(
            "sjeng",
            "Sj",
            S,
            0.50,
            1.3,
            vec![ph(
                0,
                0.25,
                0.20,
                256,
                0.93,
                15_000,
                0.32,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "soplex",
            "So",
            S,
            0.50,
            1.6,
            vec![ph(
                0,
                0.35,
                0.25,
                288,
                0.82,
                900_000,
                0.75,
                7,
                0.06,
                3 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "sphinx",
            "Sp",
            S,
            0.50,
            1.8,
            vec![ph(
                0,
                0.35,
                0.15,
                256,
                0.90,
                90_000,
                0.32,
                6,
                0.25,
                2 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "tonto",
            "To",
            S,
            0.45,
            1.5,
            vec![ph(
                0,
                0.30,
                0.25,
                320,
                0.95,
                5_500,
                0.35,
                6,
                0.005,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "wrf",
            "Wr",
            S,
            0.50,
            1.8,
            vec![ph(
                0,
                0.32,
                0.30,
                256,
                0.92,
                48_000,
                0.32,
                6,
                0.15,
                5 * m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "xalancbmk",
            "Xa",
            S,
            0.55,
            1.3,
            vec![
                ph(
                    3_000_000, 0.34, 0.25, 256, 0.90, 20_000, 0.80, 6, 0.01, m, 0.32, 16_384,
                ),
                ph(
                    3_000_000, 0.34, 0.25, 256, 0.90, 20_000, 0.80, 6, 0.01, m, 0.32, 24_576,
                ),
                ph(
                    3_000_000, 0.34, 0.25, 256, 0.90, 20_000, 0.80, 6, 0.01, m, 0.32, 32_768,
                ),
                ph(
                    3_000_000, 0.34, 0.25, 256, 0.90, 20_000, 0.80, 6, 0.01, m, 0.32, 40_960,
                ),
            ],
        ),
        mk(
            "zeusmp",
            "Ze",
            S,
            0.50,
            2.0,
            vec![ph(
                0,
                0.32,
                0.35,
                256,
                0.91,
                55_000,
                0.32,
                6,
                0.30,
                3 * m,
                0.0,
                0,
            )],
        ),
    ]
}

/// The 5 HPC proxy-app profiles (italicised in Table 1).
pub fn hpc_benchmarks() -> Vec<BenchmarkProfile> {
    use Suite::Hpc as H;
    let m = 1u64 << 20;
    vec![
        mk(
            "amg2013",
            "Am",
            H,
            0.50,
            1.7,
            vec![ph(
                0,
                0.36,
                0.25,
                288,
                0.87,
                400_000,
                0.50,
                7,
                0.30,
                4 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "comd",
            "Co",
            H,
            0.50,
            1.6,
            vec![ph(
                0, 0.30, 0.25, 256, 0.93, 13_000, 0.32, 6, 0.015, m, 0.0, 0,
            )],
        ),
        mk(
            "lulesh",
            "Lu",
            H,
            0.50,
            2.0,
            vec![ph(
                0,
                0.33,
                0.35,
                256,
                0.91,
                90_000,
                0.40,
                6,
                0.35,
                3 * m,
                0.0,
                0,
            )],
        ),
        mk(
            "nekbone",
            "Ne",
            H,
            0.45,
            1.5,
            vec![ph(
                0,
                0.34,
                0.25,
                384,
                0.84,
                5_500,
                0.50,
                6,
                0.01,
                m / 2,
                0.0,
                0,
            )],
        ),
        mk(
            "xsbench",
            "Xb",
            H,
            0.50,
            1.8,
            vec![ph(
                0,
                0.35,
                0.10,
                256,
                0.80,
                700_000,
                0.85,
                7,
                0.03,
                2 * m,
                0.0,
                0,
            )],
        ),
    ]
}

/// The 34 benchmarks, SPEC first then HPC (Table 1 order), built on
/// first use and never again.
fn suite() -> &'static [BenchmarkProfile] {
    static SUITE: OnceLock<Vec<BenchmarkProfile>> = OnceLock::new();
    SUITE.get_or_init(|| {
        let mut v = spec2006_benchmarks();
        v.extend(hpc_benchmarks());
        v
    })
}

/// All 34 benchmarks, SPEC first then HPC (Table 1 order).
pub fn all_benchmarks() -> Vec<BenchmarkProfile> {
    suite().to_vec()
}

/// Look up a benchmark by full name or acronym. Reads the suite table
/// built on the first call (it does not rebuild the 34 profiles) and
/// returns a copy of the entry.
pub fn benchmark_by_name(name: &str) -> Option<BenchmarkProfile> {
    suite()
        .iter()
        .find(|b| b.name.eq_ignore_ascii_case(name) || b.acronym.eq_ignore_ascii_case(name))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_match_table1() {
        assert_eq!(spec2006_benchmarks().len(), 29);
        assert_eq!(hpc_benchmarks().len(), 5);
        assert_eq!(all_benchmarks().len(), 34);
    }

    #[test]
    fn all_profiles_valid_and_unique() {
        let all = all_benchmarks();
        let names: BTreeSet<_> = all.iter().map(|b| b.name).collect();
        let acrs: BTreeSet<_> = all.iter().map(|b| b.acronym).collect();
        assert_eq!(names.len(), 34, "duplicate benchmark names");
        assert_eq!(acrs.len(), 34, "duplicate acronyms");
        for b in &all {
            b.validate();
        }
    }

    #[test]
    fn lookup_by_name_and_acronym() {
        // Table 1 prints "Si(sjeng)" but the dual mix is "SjWr"; we use "Sj".
        assert_eq!(benchmark_by_name("mcf").unwrap().acronym, "Mc");
        assert_eq!(benchmark_by_name("H2").unwrap().name, "h264ref");
        assert_eq!(benchmark_by_name("XSBENCH").unwrap().acronym, "Xb");
        assert!(benchmark_by_name("nonexistent").is_none());
    }

    #[test]
    fn taxonomy_spot_checks() {
        let get = |n: &str| benchmark_by_name(n).unwrap();
        // Cache-resident: working set under 1/4 of the 4MB L2, strong L1
        // locality.
        for n in ["gamess", "povray", "tonto", "hmmer"] {
            let b = get(n);
            assert!(b.max_ws_blocks() < 16_384, "{n} should be small");
            assert!(b.phases[0].hot_weight >= 0.9, "{n} should be L1-local");
        }
        // Huge working sets: well beyond an 8MB L2, leaky L1.
        for n in ["mcf", "soplex", "xsbench"] {
            let b = get(n);
            assert!(b.max_ws_blocks() > 300_000, "{n} should be huge");
            assert!(b.phases[0].hot_weight <= 0.82, "{n} leaks through L1");
        }
        // Streaming apps carry a dominant stream fraction.
        for n in ["libquantum", "milc", "lbm"] {
            assert!(get(n).phases[0].stream_frac >= 0.6, "{n} should stream");
        }
        // Non-LRU apps scan, with phase-varying scan lengths.
        for n in ["omnetpp", "xalancbmk"] {
            let b = get(n);
            assert!(b.phases.len() >= 3, "{n} needs scan phases");
            assert!(b.phases.iter().all(|p| p.scan_frac > 0.2));
            let lens: BTreeSet<_> = b.phases.iter().map(|p| p.scan_blocks).collect();
            assert!(lens.len() >= 3, "{n} scan lengths must vary");
        }
        // h264ref has the Figure 2 phase schedule.
        assert_eq!(get("h264ref").phases.len(), 3);
    }
}
