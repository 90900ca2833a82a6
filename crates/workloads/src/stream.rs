//! The access-stream generator.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::profile::BenchmarkProfile;
use crate::stable_hash;
use crate::zones::ZoneMixture;

/// One memory reference, block-granular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    pub block: u64,
    pub write: bool,
}

/// A bundle of `instrs` retired instructions whose last instruction is the
/// memory reference `mem`. (The generator emits exactly one memory
/// reference per bundle; the bundle size realises the phase's memory
/// intensity.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bundle {
    pub instrs: u32,
    pub mem: MemRef,
}

/// Address-space layout: each core's stream lives in a disjoint region
/// (multiprogrammed workloads share no data, paper §6.1), and within a
/// core's region the reuse/scan/stream components are disjoint.
const CORE_SHIFT: u32 = 52;
const REGION_SHIFT: u32 = 46;
const REGION_REUSE: u64 = 0;
const REGION_SCAN: u64 = 1;
const REGION_STREAM: u64 = 2;

/// Streaming accesses dwell on a block before advancing, mimicking
/// word-granular traversal of a line (8 x 8 B words per 64 B line; a bit
/// of the traversal is lost to the L1, hence 6).
const STREAM_DWELL: u32 = 6;
/// Cyclic scans also touch several words per line before moving on.
const SCAN_DWELL: u32 = 4;
/// Each scan lap covers between 2/3 and all of the scan region (the lap
/// length is re-drawn deterministically per lap). Real scan loops process
/// variable-length work lists; the varying depth also smears the scan's
/// LRU-position spike into a multi-position bump, which is what makes the
/// pattern detectably non-monotone ("non-LRU") at any cache geometry.
const SCAN_LAP_VARIATION: u64 = 2;

/// Per-phase constants precomputed for the per-bundle hot path.
///
/// The RNG draw `r = (u >> 11) as f64 * 2^-53` (the vendored `rand`'s
/// `Standard` f64, 53 high bits) is only ever *compared* against phase
/// fractions, so each comparison is translated once into an exact
/// integer threshold on `k = u >> 11`:
///
/// * `r < frac`  ⟺  `k < ceil(frac * 2^53)`  (and `frac * 2^53` is an
///   exponent shift of an f64, computed without rounding);
/// * `r <= cum`  ⟺  `k < floor(cum * 2^53) + 1`.
///
/// This removes every u64→f64 conversion and f64 compare from bundle
/// generation while keeping each decision bit-identical to the float
/// form — pinned by `fast_path_matches_float_path` below.
#[derive(Debug, Clone)]
struct PhaseFast {
    /// `ceil(stream_frac * 2^53)`: draws below this are stream refs.
    stream_t: u64,
    /// `ceil((stream_frac + scan_frac) * 2^53)` (the same f64 sum the
    /// float path computes): draws below this (and not stream) scan.
    source_t: u64,
    /// `ceil(write_ratio * 2^53)`: write-flag threshold.
    write_t: u64,
    /// `(floor(cum_weight * 2^53) + 1, base_offset, size)` per zone.
    zones_t: Vec<(u64, u64, u64)>,
    /// `1.0 / mem_ratio` (hoists the division; bit-identical).
    inv_mem_ratio: f64,
    duration_instrs: u64,
    /// `stream_blocks.max(1)` / `scan_blocks.max(1)`.
    stream_region: u64,
    scan_region: u64,
}

/// Exact integer threshold for `r < frac` (see `PhaseFast`).
fn lt_threshold(frac: f64) -> u64 {
    (frac * (1u64 << 53) as f64).ceil() as u64
}

/// Exact integer threshold for `r <= cum` (see `PhaseFast`).
fn le_threshold(cum: f64) -> u64 {
    (cum * (1u64 << 53) as f64).floor() as u64 + 1
}

impl PhaseFast {
    fn build(phase: &crate::profile::PhaseSpec, mixture: &ZoneMixture) -> Self {
        Self {
            stream_t: lt_threshold(phase.stream_frac),
            source_t: lt_threshold(phase.stream_frac + phase.scan_frac),
            write_t: lt_threshold(phase.write_ratio),
            zones_t: mixture
                .entries()
                .iter()
                .map(|&(cum, off, size)| (le_threshold(cum), off, size))
                .collect(),
            inv_mem_ratio: 1.0 / phase.mem_ratio,
            duration_instrs: phase.duration_instrs,
            stream_region: phase.stream_blocks.max(1),
            scan_region: phase.scan_blocks.max(1),
        }
    }
}

/// Deterministic, seeded generator of one benchmark's memory reference
/// stream. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct AccessStream {
    profile: BenchmarkProfile,
    rng: SmallRng,
    core_base: u64,
    /// Precomputed zone mixture per phase (float reference path).
    mixtures: Vec<ZoneMixture>,
    /// Precomputed per-phase hot-path constants (see `PhaseFast`).
    fast: Vec<PhaseFast>,
    phase_idx: usize,
    instrs_in_phase: u64,
    /// Fractional-instruction accumulator realising `mem_ratio` exactly.
    gap_credit: f64,
    stream_ptr: u64,
    stream_dwell: u32,
    scan_ptr: u64,
    scan_dwell: u32,
    scan_lap: u64,
    /// Current lap's wrap point (varies per lap, see `SCAN_LAP_VARIATION`).
    scan_limit: u64,
    total_instrs: u64,
    total_refs: u64,
}

impl AccessStream {
    pub fn new(profile: &BenchmarkProfile, core_id: u32, seed: u64) -> Self {
        profile.validate();
        let rng_seed = stable_hash(&[profile.name, &core_id.to_string(), &seed.to_string()]);
        let mixtures: Vec<ZoneMixture> = profile
            .phases
            .iter()
            .map(|ph| ZoneMixture::build(ph, profile.name))
            .collect();
        let fast = profile
            .phases
            .iter()
            .zip(&mixtures)
            .map(|(ph, zm)| PhaseFast::build(ph, zm))
            .collect();
        Self {
            profile: profile.clone(),
            rng: SmallRng::seed_from_u64(rng_seed),
            core_base: u64::from(core_id) << CORE_SHIFT,
            mixtures,
            fast,
            phase_idx: 0,
            instrs_in_phase: 0,
            gap_credit: 0.0,
            stream_ptr: 0,
            stream_dwell: 0,
            scan_ptr: 0,
            scan_dwell: 0,
            scan_lap: 0,
            scan_limit: u64::MAX, // set on first scan reference

            total_instrs: 0,
            total_refs: 0,
        }
    }

    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    pub fn total_instructions(&self) -> u64 {
        self.total_instrs
    }

    pub fn total_references(&self) -> u64 {
        self.total_refs
    }

    /// Current phase index (diagnostics).
    pub fn phase(&self) -> usize {
        self.phase_idx
    }

    /// Wrap point for the current scan lap: between 2/3 and all of the
    /// region, drawn deterministically from the lap number.
    fn next_scan_limit(&self, region: u64) -> u64 {
        scan_limit_for(self.profile.name, self.scan_lap, region)
    }

    /// Generates the next bundle.
    ///
    /// This is the *reference* implementation (per-call, f64 compares);
    /// the simulator's hot path is the batched [`Self::fill_encoded`],
    /// pinned bit-identical to this one by `fast_path_matches_reference`.
    pub fn next_bundle(&mut self) -> Bundle {
        let phase = &self.profile.phases[self.phase_idx];

        // Instructions carried by this bundle (>= 1, exact rate on average).
        self.gap_credit += self.fast[self.phase_idx].inv_mem_ratio;
        let instrs = (self.gap_credit.floor() as u32).max(1);
        self.gap_credit -= f64::from(instrs);

        // Reference source: stream | scan | zones.
        let r: f64 = self.rng.gen();
        let block = if r < phase.stream_frac {
            let b = self.core_base | (REGION_STREAM << REGION_SHIFT) | self.stream_ptr;
            self.stream_dwell += 1;
            if self.stream_dwell >= STREAM_DWELL {
                self.stream_dwell = 0;
                // Wrapping is rare (once per stream lap), so gate the
                // modulo behind a compare. The remainder (not plain zero)
                // matters when a phase switch shrinks the region.
                self.stream_ptr += 1;
                let region = phase.stream_blocks.max(1);
                if self.stream_ptr >= region {
                    self.stream_ptr %= region;
                }
            }
            b
        } else if r < phase.stream_frac + phase.scan_frac {
            let region = phase.scan_blocks.max(1);
            if self.scan_limit > region {
                self.scan_limit = self.next_scan_limit(region);
            }
            let b = self.core_base | (REGION_SCAN << REGION_SHIFT) | self.scan_ptr;
            self.scan_dwell += 1;
            if self.scan_dwell >= SCAN_DWELL {
                self.scan_dwell = 0;
                self.scan_ptr += 1;
                if self.scan_ptr >= self.scan_limit {
                    self.scan_ptr = 0;
                    self.scan_lap += 1;
                    self.scan_limit = self.next_scan_limit(region);
                }
            }
            b
        } else {
            let idx = self.mixtures[self.phase_idx].sample(&mut self.rng);
            self.core_base | (REGION_REUSE << REGION_SHIFT) | idx
        };
        let write = self.rng.gen_bool(phase.write_ratio);

        // Phase bookkeeping.
        self.total_instrs += u64::from(instrs);
        self.total_refs += 1;
        self.instrs_in_phase += u64::from(instrs);
        if self.instrs_in_phase >= phase.duration_instrs {
            self.instrs_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
        }

        Bundle {
            instrs,
            mem: MemRef { block, write },
        }
    }

    /// Batch-generates bundles until `enc` holds `upto` entries, pushing
    /// the packed `(block << 1) | write` encoding (the layout
    /// `esteem_cache::encode_l1_access` produces — block addresses are
    /// far below 2^63) and the per-bundle instruction counts.
    ///
    /// Emits the exact same bundle sequence as repeated
    /// [`Self::next_bundle`] calls: same RNG draw order, with every f64
    /// comparison replaced by its precomputed exact integer threshold
    /// (see `PhaseFast`) and all generator state held in locals across
    /// the loop. This is the simulator front end's hot path.
    ///
    /// A bundle's instruction count truncates the gap credit where the
    /// reference floors it: `(x as u32).max(1)` equals
    /// `(x.floor() as u32).max(1)` for every f64. At or above 1 floor and
    /// truncation agree; below 1 both come out at most 0, saturate to 0
    /// and become 1; NaN casts to 0 and huge values saturate alike. The
    /// cast is a few inline instructions, while `floor` on a target
    /// without SSE4.1 is a libm call on the loop-carried credit chain.
    pub fn fill_encoded(&mut self, enc: &mut Vec<u64>, instrs_out: &mut Vec<u32>, upto: usize) {
        if enc.len() >= upto {
            return;
        }
        enc.reserve(upto - enc.len());
        instrs_out.reserve(upto - enc.len());
        let mut rng = self.rng.clone();
        let mut gap_credit = self.gap_credit;
        let mut stream_ptr = self.stream_ptr;
        let mut stream_dwell = self.stream_dwell;
        let mut scan_ptr = self.scan_ptr;
        let mut scan_dwell = self.scan_dwell;
        let mut scan_lap = self.scan_lap;
        let mut scan_limit = self.scan_limit;
        let mut instrs_in_phase = self.instrs_in_phase;
        let mut total_instrs = self.total_instrs;
        let mut total_refs = self.total_refs;
        let core_base = self.core_base;
        let nphases = self.profile.phases.len();
        'phase: while enc.len() < upto {
            let pf = &self.fast[self.phase_idx];
            loop {
                if enc.len() >= upto {
                    break 'phase;
                }
                gap_credit += pf.inv_mem_ratio;
                let instrs = (gap_credit as u32).max(1);
                gap_credit -= f64::from(instrs);

                let k = rng.next_u64() >> 11;
                let block = if k < pf.stream_t {
                    let b = core_base | (REGION_STREAM << REGION_SHIFT) | stream_ptr;
                    stream_dwell += 1;
                    if stream_dwell >= STREAM_DWELL {
                        stream_dwell = 0;
                        stream_ptr += 1;
                        if stream_ptr >= pf.stream_region {
                            stream_ptr %= pf.stream_region;
                        }
                    }
                    b
                } else if k < pf.source_t {
                    let region = pf.scan_region;
                    if scan_limit > region {
                        scan_limit = scan_limit_for(self.profile.name, scan_lap, region);
                    }
                    let b = core_base | (REGION_SCAN << REGION_SHIFT) | scan_ptr;
                    scan_dwell += 1;
                    if scan_dwell >= SCAN_DWELL {
                        scan_dwell = 0;
                        scan_ptr += 1;
                        if scan_ptr >= scan_limit {
                            scan_ptr = 0;
                            scan_lap += 1;
                            scan_limit = scan_limit_for(self.profile.name, scan_lap, region);
                        }
                    }
                    b
                } else {
                    let k2 = rng.next_u64() >> 11;
                    // First zone with `k2 < threshold`, computed branchlessly
                    // (thresholds are cumulative, hence monotonic): counting
                    // the thresholds at or below `k2` gives the same index
                    // without a data-dependent branch to mispredict.
                    let mut pick = 0usize;
                    for &(t, _, _) in pf.zones_t.iter() {
                        pick += usize::from(k2 >= t);
                    }
                    let pick = pick.min(pf.zones_t.len() - 1);
                    let (_, offset, size) = pf.zones_t[pick];
                    core_base | (REGION_REUSE << REGION_SHIFT) | (offset + rng.gen_range(0..size))
                };
                let write = (rng.next_u64() >> 11) < pf.write_t;
                enc.push((block << 1) | u64::from(write));
                instrs_out.push(instrs);

                total_instrs += u64::from(instrs);
                total_refs += 1;
                instrs_in_phase += u64::from(instrs);
                if instrs_in_phase >= pf.duration_instrs {
                    instrs_in_phase = 0;
                    // Single-phase profiles (duration 0) take this branch on
                    // every bundle; the advance is the identity for them, so
                    // skip the division and the outer-loop re-borrow.
                    if nphases > 1 {
                        self.phase_idx = (self.phase_idx + 1) % nphases;
                        continue 'phase;
                    }
                }
            }
        }
        self.rng = rng;
        self.gap_credit = gap_credit;
        self.stream_ptr = stream_ptr;
        self.stream_dwell = stream_dwell;
        self.scan_ptr = scan_ptr;
        self.scan_dwell = scan_dwell;
        self.scan_lap = scan_lap;
        self.scan_limit = scan_limit;
        self.instrs_in_phase = instrs_in_phase;
        self.total_instrs = total_instrs;
        self.total_refs = total_refs;
    }
}

/// Wrap point for scan lap `lap`: between 2/3 and all of the region,
/// drawn deterministically from the benchmark name and lap number.
fn scan_limit_for(bench_name: &str, lap: u64, region: u64) -> u64 {
    let span = (region / SCAN_LAP_VARIATION).max(1);
    let off = stable_hash(&[bench_name, "lap", &lap.to_string()]) % span;
    (region - off).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{base_phase, BenchmarkProfile, Suite};

    fn profile(phases: Vec<crate::profile::PhaseSpec>) -> BenchmarkProfile {
        BenchmarkProfile {
            name: "synthetic",
            acronym: "Sy",
            suite: Suite::Spec2006,
            cpi_base: 0.5,
            mlp: 1.5,
            phases,
        }
    }

    /// The batched integer-threshold path must emit the exact bundle
    /// sequence of the per-call f64 reference path — across phase
    /// switches, scan laps, and ragged batch boundaries, and at the
    /// extremes of the instruction gap: a credit that lands on exact
    /// integers (`mem_ratio` 1.0, first so that it starts from zero), one
    /// that rounds to just below an integer (`mem_ratio` 0.55: about one
    /// bundle in eleven) and ~77 instructions a bundle (`mem_ratio`
    /// 0.013). These pin the truncation `fill_encoded` uses in place of
    /// the reference's `floor`.
    #[test]
    fn fast_path_matches_reference() {
        let mut every = base_phase();
        every.duration_instrs = 3_001;
        every.mem_ratio = 1.0;
        let mut a = base_phase();
        a.duration_instrs = 7_001;
        let mut b = base_phase();
        b.duration_instrs = 5_003;
        b.mem_ratio = 0.71;
        b.write_ratio = 0.45;
        b.stream_frac = 0.40;
        b.scan_frac = 0.35;
        b.scan_blocks = 97;
        let mut near = base_phase();
        near.duration_instrs = 2_999;
        near.mem_ratio = 0.55;
        let mut sparse = base_phase();
        sparse.duration_instrs = 40_009;
        sparse.mem_ratio = 0.013;
        let p = profile(vec![every, a, b, near, sparse]);
        let mut reference = AccessStream::new(&p, 0, 9);
        let mut fast = AccessStream::new(&p, 0, 9);
        let mut enc = Vec::new();
        let mut instrs = Vec::new();
        let mut consumed = 0usize;
        let mut visited = [false; 5];
        // Ragged batch sizes exercise mid-phase suspend/resume.
        for batch in [1usize, 2, 509, 1024, 3000, 777, 5000, 4096, 3000] {
            fast.fill_encoded(&mut enc, &mut instrs, consumed + batch);
            assert_eq!(enc.len(), consumed + batch);
            for i in consumed..enc.len() {
                visited[reference.phase()] = true;
                let want = reference.next_bundle();
                let packed = (want.mem.block << 1) | u64::from(want.mem.write);
                assert_eq!(enc[i], packed, "block/write diverged at bundle {i}");
                assert_eq!(instrs[i], want.instrs, "instrs diverged at bundle {i}");
            }
            consumed = enc.len();
            assert_eq!(fast.total_instructions(), reference.total_instructions());
            assert_eq!(fast.total_references(), reference.total_references());
            assert_eq!(fast.phase(), reference.phase());
        }
        assert_eq!(visited, [true; 5], "every phase is generated");
    }

    /// Same pin across every real benchmark profile (covers all phase
    /// parameter corners that exist in the suite tables).
    #[test]
    fn fast_path_matches_reference_on_suite() {
        for p in crate::all_benchmarks() {
            let mut reference = AccessStream::new(&p, 1, 3);
            let mut fast = AccessStream::new(&p, 1, 3);
            let mut enc = Vec::new();
            let mut instrs = Vec::new();
            fast.fill_encoded(&mut enc, &mut instrs, 20_000);
            for i in 0..enc.len() {
                let want = reference.next_bundle();
                let packed = (want.mem.block << 1) | u64::from(want.mem.write);
                assert_eq!(enc[i], packed, "{}: diverged at bundle {i}", p.name);
                assert_eq!(instrs[i], want.instrs, "{}: instrs at {i}", p.name);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = profile(vec![base_phase()]);
        let mut a = AccessStream::new(&p, 0, 42);
        let mut b = AccessStream::new(&p, 0, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_bundle(), b.next_bundle());
        }
    }

    #[test]
    fn different_seeds_or_cores_diverge() {
        let p = profile(vec![base_phase()]);
        let mut a = AccessStream::new(&p, 0, 1);
        let mut b = AccessStream::new(&p, 0, 2);
        let mut c = AccessStream::new(&p, 1, 1);
        let bundles_a: Vec<_> = (0..100).map(|_| a.next_bundle()).collect();
        let bundles_b: Vec<_> = (0..100).map(|_| b.next_bundle()).collect();
        let bundles_c: Vec<_> = (0..100).map(|_| c.next_bundle()).collect();
        assert_ne!(bundles_a, bundles_b);
        assert_ne!(bundles_a, bundles_c);
        // Cores never share blocks.
        for (x, y) in bundles_a.iter().zip(&bundles_c) {
            assert_ne!(x.mem.block >> CORE_SHIFT, y.mem.block >> CORE_SHIFT);
        }
    }

    #[test]
    fn mem_ratio_realised() {
        let mut ph = base_phase();
        ph.mem_ratio = 0.25;
        let p = profile(vec![ph]);
        let mut s = AccessStream::new(&p, 0, 0);
        for _ in 0..100_000 {
            s.next_bundle();
        }
        let ratio = s.total_references() as f64 / s.total_instructions() as f64;
        assert!(
            (ratio - 0.25).abs() < 0.01,
            "mem ratio {ratio} drifted from 0.25"
        );
    }

    #[test]
    fn write_ratio_realised() {
        let mut ph = base_phase();
        ph.write_ratio = 0.4;
        let p = profile(vec![ph]);
        let mut s = AccessStream::new(&p, 0, 0);
        let writes = (0..50_000).filter(|_| s.next_bundle().mem.write).count();
        let ratio = writes as f64 / 50_000.0;
        assert!((ratio - 0.4).abs() < 0.02, "write ratio {ratio}");
    }

    #[test]
    fn phases_cycle() {
        let mut a = base_phase();
        a.duration_instrs = 1000;
        a.ws_blocks = 1 << 10;
        let mut b = a.clone();
        b.duration_instrs = 1000;
        b.ws_blocks = 1 << 15;
        let p = profile(vec![a, b]);
        let mut s = AccessStream::new(&p, 0, 0);
        let mut seen = [false, false];
        for _ in 0..5000 {
            s.next_bundle();
            seen[s.phase()] = true;
        }
        assert!(seen[0] && seen[1], "both phases must be visited");
    }

    #[test]
    fn streaming_advances_sequentially() {
        let mut ph = base_phase();
        ph.stream_frac = 1.0;
        ph.scan_frac = 0.0;
        ph.stream_blocks = 1 << 20;
        let p = profile(vec![ph]);
        let mut s = AccessStream::new(&p, 0, 0);
        let blocks: Vec<u64> = (0..60).map(|_| s.next_bundle().mem.block).collect();
        // Dwell STREAM_DWELL times per block, then advance by one.
        let distinct: std::collections::BTreeSet<_> = blocks.iter().collect();
        assert_eq!(distinct.len(), 60 / STREAM_DWELL as usize);
        let mut sorted: Vec<u64> = distinct.iter().map(|&&b| b).collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert_eq!(w[1] - w[0], 1, "stream must be sequential");
        }
    }

    #[test]
    fn scan_is_cyclic_with_varying_laps() {
        let mut ph = base_phase();
        ph.stream_frac = 0.0;
        ph.scan_frac = 1.0;
        ph.scan_blocks = 30;
        let p = profile(vec![ph]);
        let mut s = AccessStream::new(&p, 0, 0);
        let blocks: Vec<u64> = (0..30 * SCAN_DWELL as usize * 6)
            .map(|_| s.next_bundle().mem.block)
            .collect();
        // Always ascending-from-zero sweeps over the scan region...
        let low = *blocks.iter().min().unwrap();
        let distinct: std::collections::BTreeSet<_> = blocks.iter().collect();
        assert!(distinct.len() <= 30);
        assert!(distinct.len() >= 20, "laps must cover most of the region");
        // ...restarting from the region base each lap.
        assert!(blocks.iter().filter(|&&b| b == low).count() >= 2);
        // Lap lengths vary: consecutive wrap distances are not all equal.
        let wraps: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == low)
            .map(|(i, _)| i)
            .collect();
        let gaps: std::collections::BTreeSet<usize> =
            wraps.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() >= 2, "lap lengths should vary, got {gaps:?}");
    }
}
