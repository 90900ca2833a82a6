//! The 17 dual-core multiprogrammed workloads (Table 1 of the paper).
//!
//! The paper builds these "randomly ... such that each benchmark is used
//! only once"; we reproduce the exact published pairings.

use std::sync::OnceLock;

use crate::profile::BenchmarkProfile;
use crate::suites::benchmark_by_name;

/// One dual-core mix: the published acronym and its two member benchmarks.
#[derive(Debug, Clone)]
pub struct DualMix {
    /// Published acronym, e.g. `"GkNe"`.
    pub acronym: &'static str,
    pub a: BenchmarkProfile,
    pub b: BenchmarkProfile,
}

impl DualMix {
    pub fn names(&self) -> (String, String) {
        (self.a.name.to_owned(), self.b.name.to_owned())
    }
}

/// `(acronym, benchmark_a, benchmark_b)` exactly as printed in Table 1.
pub const MIX_TABLE: [(&str, &str, &str); 17] = [
    ("GmDl", "gemsFDTD", "dealII"),
    ("AsXb", "astar", "xsbench"),
    ("GcGa", "gcc", "gamess"),
    ("BzXa", "bzip2", "xalancbmk"),
    ("LsLb", "leslie3d", "lbm"),
    ("GkNe", "gobmk", "nekbone"),
    ("OmGr", "omnetpp", "gromacs"),
    ("NdCd", "namd", "cactusADM"),
    ("CaTo", "calculix", "tonto"),
    ("SpBw", "sphinx", "bwaves"),
    ("LqPo", "libquantum", "povray"),
    ("SjWr", "sjeng", "wrf"),
    ("PeZe", "perlbench", "zeusmp"),
    ("HmH2", "hmmer", "h264ref"),
    ("SoMi", "soplex", "milc"),
    ("McLu", "mcf", "lulesh"),
    ("CoAm", "comd", "amg2013"),
];

/// The 17 mixes, in Table 1 order, built on first use and never again.
fn mixes() -> &'static [DualMix] {
    static MIXES: OnceLock<Vec<DualMix>> = OnceLock::new();
    MIXES.get_or_init(|| {
        MIX_TABLE
            .iter()
            .map(|&(acr, a, b)| DualMix {
                acronym: acr,
                a: benchmark_by_name(a).unwrap_or_else(|| panic!("unknown benchmark {a}")),
                b: benchmark_by_name(b).unwrap_or_else(|| panic!("unknown benchmark {b}")),
            })
            .collect()
    })
}

/// All 17 dual-core mixes, in Table 1 order.
pub fn dual_core_mixes() -> Vec<DualMix> {
    mixes().to_vec()
}

/// Look up a mix by its published acronym. Reads the mix table built on
/// the first call (it does not rebuild the mixes or their suites) and
/// returns a copy of the entry.
pub fn mix_by_acronym(acr: &str) -> Option<DualMix> {
    mixes()
        .iter()
        .find(|m| m.acronym.eq_ignore_ascii_case(acr))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn seventeen_mixes_each_benchmark_once() {
        let mixes = dual_core_mixes();
        assert_eq!(mixes.len(), 17);
        let mut used = BTreeSet::new();
        for m in &mixes {
            assert!(used.insert(m.a.name), "{} reused", m.a.name);
            assert!(used.insert(m.b.name), "{} reused", m.b.name);
        }
        assert_eq!(used.len(), 34, "every benchmark used exactly once");
    }

    #[test]
    fn acronyms_match_members() {
        for m in dual_core_mixes() {
            let expect = format!("{}{}", m.a.acronym, m.b.acronym);
            assert_eq!(m.acronym, expect, "acronym mismatch for {}", m.acronym);
        }
    }

    #[test]
    fn lookup() {
        let m = mix_by_acronym("GkNe").unwrap();
        assert_eq!(m.a.name, "gobmk");
        assert_eq!(m.b.name, "nekbone");
        assert!(mix_by_acronym("ZZ").is_none());
    }
}
