//! The run-cache fingerprints of the paper's workloads, pinned. A
//! fingerprint keys the run cache, the on-disk cache and every journal,
//! so a change that moves one must bump `FINGERPRINT_VERSION`; these
//! values are the ones the formatting-only fingerprint gave.

use esteem_serve::JobSpec;
use esteem_workloads::{all_benchmarks, mixes::MIX_TABLE};

/// `(workload, technique, fingerprint)` of default specs: every suite
/// benchmark under ESTEEM, then every Table 1 mix under baseline, ESTEEM
/// and RPV.
const PINNED: [(&str, &str, &str); 85] = [
    ("astar", "esteem", "480c4a2ff0519967"),
    ("bwaves", "esteem", "57cefd7030a1c101"),
    ("bzip2", "esteem", "b1c3a65ddb016d31"),
    ("cactusADM", "esteem", "1d00b97776eec17e"),
    ("calculix", "esteem", "4227fd5cef75ea04"),
    ("dealII", "esteem", "45db2a234783673f"),
    ("gamess", "esteem", "32f3694e47003469"),
    ("gcc", "esteem", "699f84fa336ce9a3"),
    ("gemsFDTD", "esteem", "869b1b6cbc7fa1fa"),
    ("gobmk", "esteem", "16ee607cd232f257"),
    ("gromacs", "esteem", "cf4eb6b3f815c1c7"),
    ("h264ref", "esteem", "aebe2597d9bccdd0"),
    ("hmmer", "esteem", "b139d1353d3a8a46"),
    ("lbm", "esteem", "0af25b0a71d5c2d8"),
    ("leslie3d", "esteem", "8660f946ed55a34c"),
    ("libquantum", "esteem", "9a5cd4f251261b92"),
    ("mcf", "esteem", "e7b1e74676f5f347"),
    ("milc", "esteem", "c4026c814ff2273b"),
    ("namd", "esteem", "d111cc0fa2863196"),
    ("omnetpp", "esteem", "f49118ba6ae3b799"),
    ("perlbench", "esteem", "3086d77425bb765e"),
    ("povray", "esteem", "3f56702c2d234151"),
    ("sjeng", "esteem", "4dbbbeb20ac8af5e"),
    ("soplex", "esteem", "dc8f91fe1b522b8e"),
    ("sphinx", "esteem", "fbb33b7d8f9b7b77"),
    ("tonto", "esteem", "2bd7ef34f8e96798"),
    ("wrf", "esteem", "871bceb78a22b6ae"),
    ("xalancbmk", "esteem", "cce95cb9ff547f06"),
    ("zeusmp", "esteem", "be9c78e042d0f9a9"),
    ("amg2013", "esteem", "657936b2a8db8811"),
    ("comd", "esteem", "a685d60c4831a530"),
    ("lulesh", "esteem", "4e772a7cc6877007"),
    ("nekbone", "esteem", "c463b28dd9d3b157"),
    ("xsbench", "esteem", "6cca43310cb0e14b"),
    ("GmDl", "baseline", "a2054bdea5fdadd0"),
    ("GmDl", "esteem", "5e14681868fad122"),
    ("GmDl", "rpv", "f25b092fc3156dfb"),
    ("AsXb", "baseline", "7d12fe06d5df164b"),
    ("AsXb", "esteem", "b61e7fea532dc211"),
    ("AsXb", "rpv", "959b1ea987de6192"),
    ("GcGa", "baseline", "86ba17553e7e9640"),
    ("GcGa", "esteem", "c63f18b76f19fd66"),
    ("GcGa", "rpv", "62fa2176a174a8c5"),
    ("BzXa", "baseline", "e94f590d87909edd"),
    ("BzXa", "esteem", "50a48e61c049e5d9"),
    ("BzXa", "rpv", "8aceeedb19c257ee"),
    ("LsLb", "baseline", "e648678e06bec026"),
    ("LsLb", "esteem", "ee98deef16a18632"),
    ("LsLb", "rpv", "9647206ae3c9f791"),
    ("GkNe", "baseline", "b3ae0425c4ebf066"),
    ("GkNe", "esteem", "808db7b3d537642a"),
    ("GkNe", "rpv", "bbe70f3ff683dee5"),
    ("OmGr", "baseline", "d41c064b38ae5bfd"),
    ("OmGr", "esteem", "781332bcf6317b75"),
    ("OmGr", "rpv", "579ab0d737859a46"),
    ("NdCd", "baseline", "38593da28c37ed1f"),
    ("NdCd", "esteem", "8ad6fe5d3089d6c7"),
    ("NdCd", "rpv", "90a07149cffd6ad2"),
    ("CaTo", "baseline", "3a74d52d5914471b"),
    ("CaTo", "esteem", "96afc3b2318102cb"),
    ("CaTo", "rpv", "acfe7e4b0f93bc4a"),
    ("SpBw", "baseline", "07a07a37b331635d"),
    ("SpBw", "esteem", "fa2bd5de5d7de0a3"),
    ("SpBw", "rpv", "6871d562b7eb0eda"),
    ("LqPo", "baseline", "6cdbfb349ae28797"),
    ("LqPo", "esteem", "73070e2e1dfcc011"),
    ("LqPo", "rpv", "dc922f935c2fe4cc"),
    ("SjWr", "baseline", "4f28c95409bebfad"),
    ("SjWr", "esteem", "8198275bda5e4c9b"),
    ("SjWr", "rpv", "fe520864cd717db4"),
    ("PeZe", "baseline", "3cf57a70d5588989"),
    ("PeZe", "esteem", "4d4f70455ea3d2cf"),
    ("PeZe", "rpv", "fe0894d29ead09e2"),
    ("HmH2", "baseline", "989fde792e335114"),
    ("HmH2", "esteem", "4d3adf07b5004a3c"),
    ("HmH2", "rpv", "30386a1cab262d63"),
    ("SoMi", "baseline", "1c200106fbdf93e8"),
    ("SoMi", "esteem", "f557f4f4ad99b2a6"),
    ("SoMi", "rpv", "41057dba991dee13"),
    ("McLu", "baseline", "09d2bbe4ec68fc5d"),
    ("McLu", "esteem", "f94590d3d16866f9"),
    ("McLu", "rpv", "26021b3a1d64a08a"),
    ("CoAm", "baseline", "b0bcc20a3b6ef39a"),
    ("CoAm", "esteem", "75e4e08aafbbfec4"),
    ("CoAm", "rpv", "3f2914510728d649"),
];

#[test]
fn suite_and_mix_fingerprints_match_the_pinned_values() {
    let mut expect: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
    expect.extend(MIX_TABLE.iter().flat_map(|&(acr, _, _)| [acr; 3]));
    let covered: Vec<&str> = PINNED.iter().map(|&(w, _, _)| w).collect();
    assert_eq!(covered, expect, "one pin per benchmark, three per mix");
    for (workload, technique, pinned) in PINNED {
        let fp = JobSpec {
            workload: workload.into(),
            technique: technique.into(),
            ..JobSpec::default()
        }
        .resolve()
        .unwrap()
        .fingerprint;
        assert_eq!(format!("{fp:016x}"), pinned, "{workload} under {technique}");
    }
}
