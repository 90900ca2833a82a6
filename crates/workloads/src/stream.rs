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
    /// `inv_mem_ratio` in fixed point: it equals
    /// `credit_step / 2^credit_shift` exactly (see `CreditSum`).
    credit_step: u64,
    credit_shift: u32,
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

/// The reference's gap credit after a bundle's add (`gap_credit +
/// inv_mem_ratio`, an f64), held in fixed point: `sum / 2^shift`, with
/// `shift = 52 - e` for the phase's `inv_mem_ratio` in `[2^e, 2^(e+1))`.
///
/// The conversion is exact because the credit before an add lies in
/// `[0, 1)` and the sum in `[2^e, 2^(e+1) + 1)`: any f64 in that range is
/// a multiple of `2^(e-52)`. A bundle carries the sum's integer part
/// (`sum >> shift`, at least `2^e >= 1`, so the reference's `floor` and
/// `max(1)` agree with it) and leaves the fraction (`sum & mask`, exact
/// in f64 as well) as the next credit. Adding the step to a fraction is
/// then integer arithmetic with the f64 rounding done by hand: below
/// `2^53` units the sum has at most 53 significant bits and is exact; at
/// or above it (a sum of `2^(e+1)` or more) it has one bit too many, and
/// an odd sum is a tie that f64 rounds to the neighbour with an even
/// half. Unlike the f64 form, whose add, float-to-int and int-to-float
/// conversions and subtract form a loop-carried chain of about 25
/// cycles, this chain is a few integer operations.
#[derive(Debug, Clone, Copy)]
struct CreditSum {
    sum: u64,
    shift: u32,
}

impl CreditSum {
    /// The sum for a bundle of phase `pf` that follows a credit of
    /// `gap_credit` (an f64 in `[0, 1)`, as both generation paths leave it).
    /// The add is the reference's f64 add, so a credit left in a finer
    /// unit by another phase rounds exactly as the reference rounds it.
    #[inline]
    fn start(gap_credit: f64, pf: &PhaseFast) -> Self {
        let sum = gap_credit + pf.inv_mem_ratio;
        Self {
            sum: (sum * (1u64 << pf.credit_shift) as f64) as u64,
            shift: pf.credit_shift,
        }
    }

    /// The bundle's instruction count.
    #[inline]
    fn instrs(self) -> u32 {
        (self.sum >> self.shift) as u32
    }

    /// The credit the bundle leaves, in units of `2^-shift`.
    #[inline]
    fn fraction(self) -> u64 {
        self.sum & ((1 << self.shift) - 1)
    }

    /// The sum for the next bundle: `fraction + step`, rounded as f64
    /// addition rounds it.
    #[inline]
    fn next(self, step: u64) -> Self {
        let s = self.fraction() + step;
        // 1 iff the sum needs 54 bits and is odd: a tie.
        let tie = s & (s >> 53);
        Self {
            sum: (s + tie) & !(tie << 1),
            shift: self.shift,
        }
    }

    /// A fraction as the reference's f64 credit (exact: it is below
    /// `2^shift <= 2^52`).
    #[inline]
    fn credit(fraction: u64, shift: u32) -> f64 {
        fraction as f64 / (1u64 << shift) as f64
    }
}

impl PhaseFast {
    fn build(phase: &crate::profile::PhaseSpec, mixture: &ZoneMixture) -> Self {
        let inv_mem_ratio = 1.0 / phase.mem_ratio;
        // `inv_mem_ratio` lies in `[2^e, 2^(e+1))` with `0 <= e <= 30`
        // (`PhaseSpec::validate` bounds `mem_ratio`); its 53-bit
        // significand counts units of `2^(e-52)`.
        let bits = inv_mem_ratio.to_bits();
        let e = (bits >> 52) as i32 - 1023;
        assert!(
            (0..=30).contains(&e),
            "mem_ratio {} out of range",
            phase.mem_ratio
        );
        Self {
            stream_t: lt_threshold(phase.stream_frac),
            source_t: lt_threshold(phase.stream_frac + phase.scan_frac),
            write_t: lt_threshold(phase.write_ratio),
            zones_t: mixture
                .entries()
                .iter()
                .map(|&(cum, off, size)| (le_threshold(cum), off, size))
                .collect(),
            inv_mem_ratio,
            credit_step: (bits & ((1 << 52) - 1)) | (1 << 52),
            credit_shift: (52 - e) as u32,
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
    walks: Walks,
    total_instrs: u64,
    total_refs: u64,
}

/// Positions of the stream and scan walks. Both generation paths step
/// them through [`Walks::stream`] and [`Walks::scan`]; the batched path
/// leaves them in memory, so the registers of its per-bundle loop hold
/// only what every bundle needs.
#[derive(Debug, Clone)]
struct Walks {
    stream_ptr: u64,
    stream_dwell: u32,
    scan_ptr: u64,
    scan_dwell: u32,
    scan_lap: u64,
    /// Current lap's wrap point (varies per lap, see `SCAN_LAP_VARIATION`).
    scan_limit: u64,
}

impl Walks {
    /// Block offset of the next streaming reference in a region of
    /// `region` blocks.
    #[inline]
    fn stream(&mut self, region: u64) -> u64 {
        let b = self.stream_ptr;
        self.stream_dwell += 1;
        if self.stream_dwell >= STREAM_DWELL {
            self.stream_dwell = 0;
            // Wrapping is rare (once per stream lap), so gate the modulo
            // behind a compare. The remainder (not plain zero) matters when
            // a phase switch shrinks the region.
            self.stream_ptr += 1;
            if self.stream_ptr >= region {
                self.stream_ptr %= region;
            }
        }
        b
    }

    /// Block offset of the next scan reference in a region of `region`
    /// blocks; `bench_name` seeds the lap lengths.
    #[inline]
    fn scan(&mut self, bench_name: &str, region: u64) -> u64 {
        if self.scan_limit > region {
            self.redraw_scan_limit(bench_name, region);
        }
        let b = self.scan_ptr;
        self.scan_dwell += 1;
        if self.scan_dwell >= SCAN_DWELL {
            self.scan_dwell = 0;
            self.scan_ptr += 1;
            if self.scan_ptr >= self.scan_limit {
                self.scan_ptr = 0;
                self.scan_lap += 1;
                self.redraw_scan_limit(bench_name, region);
            }
        }
        b
    }

    /// Draws the current lap's wrap point: once per lap, and when a phase
    /// switch shrinks the region below it. Out of line, so that the hash
    /// it calls does not cost the per-bundle loop its registers.
    #[cold]
    #[inline(never)]
    fn redraw_scan_limit(&mut self, bench_name: &str, region: u64) {
        self.scan_limit = scan_limit_for(bench_name, self.scan_lap, region);
    }
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
            walks: Walks {
                stream_ptr: 0,
                stream_dwell: 0,
                scan_ptr: 0,
                scan_dwell: 0,
                scan_lap: 0,
                scan_limit: u64::MAX, // set on first scan reference
            },
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
            let region = phase.stream_blocks.max(1);
            self.core_base | (REGION_STREAM << REGION_SHIFT) | self.walks.stream(region)
        } else if r < phase.stream_frac + phase.scan_frac {
            let region = phase.scan_blocks.max(1);
            let offset = self.walks.scan(self.profile.name, region);
            self.core_base | (REGION_SCAN << REGION_SHIFT) | offset
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

    /// Batch-generates bundles until `enc` holds `upto` entries, appending
    /// the packed `(block << 1) | write` encoding (the layout
    /// `esteem_cache::encode_l1_access` produces — block addresses are
    /// far below 2^63) and the per-bundle instruction counts.
    ///
    /// Emits the exact same bundle sequence as repeated
    /// [`Self::next_bundle`] calls: same RNG draw order, with every f64
    /// comparison replaced by its precomputed exact integer threshold
    /// (see `PhaseFast`) and the f64 gap credit counted in fixed point
    /// (see `CreditSum`). This is the simulator front end's hot path: it
    /// sizes both outputs once and fills them one phase segment at a time
    /// (`fill_segment`).
    pub fn fill_encoded(&mut self, enc: &mut Vec<u64>, instrs_out: &mut Vec<u32>, upto: usize) {
        let start = enc.len();
        if start >= upto {
            return;
        }
        let n = upto - start;
        let instrs_start = instrs_out.len();
        enc.resize(upto, 0);
        instrs_out.resize(instrs_start + n, 0);
        let (mut enc, mut instrs) = (&mut enc[start..], &mut instrs_out[instrs_start..]);
        while !enc.is_empty() {
            let k = self.fill_segment(enc, instrs);
            enc = &mut enc[k..];
            instrs = &mut instrs[k..];
        }
    }

    /// Fills `enc` and `instrs` (of equal length) from the front with
    /// bundles of the current phase, up to the end of both or of the phase.
    /// Returns the bundles written.
    ///
    /// The per-bundle loop carries the RNG, the gap credit (in fixed
    /// point), the phase countdown and the output position; the walks
    /// stay in `self.walks` and the totals are summed once per segment.
    fn fill_segment(&mut self, enc: &mut [u64], instrs: &mut [u32]) -> usize {
        let nphases = self.profile.phases.len();
        let name = self.profile.name;
        let pf = &self.fast[self.phase_idx];
        let walks = &mut self.walks;
        let core_base = self.core_base;
        let mut rng = self.rng.clone();
        let mut credit = CreditSum::start(self.gap_credit, pf);
        let mut fraction = 0;
        // Instructions left in the phase: the reference's
        // `instrs_in_phase >= duration` is `instrs >= left` here.
        let mut left = pf.duration_instrs - self.instrs_in_phase;
        let mut written = enc.len();
        let mut phase_done = false;
        for (i, (e, ins)) in enc.iter_mut().zip(instrs.iter_mut()).enumerate() {
            let bundle_instrs = credit.instrs();
            fraction = credit.fraction();
            credit = credit.next(pf.credit_step);

            let k = rng.next_u64() >> 11;
            let block = if k < pf.stream_t {
                core_base | (REGION_STREAM << REGION_SHIFT) | walks.stream(pf.stream_region)
            } else if k < pf.source_t {
                core_base | (REGION_SCAN << REGION_SHIFT) | walks.scan(name, pf.scan_region)
            } else {
                let k2 = rng.next_u64() >> 11;
                // Most reuse draws land in the hot zone: one compare.
                let (hot_t, hot_offset, hot_size) = pf.zones_t[0];
                let (offset, size) = if k2 < hot_t {
                    (hot_offset, hot_size)
                } else {
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
                    (offset, size)
                };
                core_base | (REGION_REUSE << REGION_SHIFT) | (offset + rng.gen_range(0..size))
            };
            let write = (rng.next_u64() >> 11) < pf.write_t;
            *e = (block << 1) | u64::from(write);
            *ins = bundle_instrs;

            if u64::from(bundle_instrs) >= left {
                left = pf.duration_instrs;
                // A single-phase profile's advance is the identity: it
                // stays in this segment.
                if nphases > 1 {
                    written = i + 1;
                    phase_done = true;
                    break;
                }
            } else {
                left -= u64::from(bundle_instrs);
            }
        }
        self.rng = rng;
        self.gap_credit = CreditSum::credit(fraction, pf.credit_shift);
        self.total_refs += written as u64;
        self.total_instrs += instrs[..written].iter().map(|&x| u64::from(x)).sum::<u64>();
        if phase_done {
            self.instrs_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % nphases;
        } else {
            self.instrs_in_phase = pf.duration_instrs - left;
        }
        written
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
    /// 0.013). These pin the fixed-point credit `fill_encoded` keeps in
    /// place of the reference's f64 one.
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

    /// Every multi-phase suite profile (gcc, h264ref, omnetpp, xalancbmk,
    /// ...), filled in ragged steps through a whole cycle of its phases
    /// and into the next, matches `next_bundle` bundle for bundle. Scan
    /// profiles also run at least two scan laps. About 60M bundles.
    #[test]
    #[ignore = "about a minute in a debug build; CI runs it in release"]
    fn fill_matches_reference_across_suite_phases() {
        let steps = [1usize, 4095, 4096, 3, 8191, 977, 12_288, 65_536];
        let mut checked = 0;
        for p in crate::all_benchmarks() {
            let nphases = p.phases.len();
            if nphases < 2 {
                continue;
            }
            let scans = p.phases.iter().any(|ph| ph.scan_frac > 0.0);
            let mut reference = AccessStream::new(&p, 1, 3);
            let mut fast = AccessStream::new(&p, 1, 3);
            let (mut enc, mut instrs) = (Vec::new(), Vec::new());
            let mut switches = 0;
            let mut step = 0;
            while switches <= nphases || (scans && fast.walks.scan_lap < 2) {
                // Keep a prefix in place now and then: the fill appends.
                let keep = if step % 3 == 0 { 0 } else { enc.len().min(5) };
                enc.truncate(keep);
                instrs.truncate(keep);
                let upto = keep + steps[step % steps.len()];
                step += 1;
                fast.fill_encoded(&mut enc, &mut instrs, upto);
                assert_eq!((enc.len(), instrs.len()), (upto, upto));
                for i in keep..upto {
                    let phase = reference.phase();
                    let want = reference.next_bundle();
                    let packed = (want.mem.block << 1) | u64::from(want.mem.write);
                    assert_eq!(enc[i], packed, "{}: diverged at step {step}", p.name);
                    assert_eq!(instrs[i], want.instrs, "{}: instrs at step {step}", p.name);
                    switches += usize::from(reference.phase() != phase);
                }
                assert_eq!(fast.phase(), reference.phase(), "{}", p.name);
                assert_eq!(fast.instrs_in_phase, reference.instrs_in_phase);
                assert_eq!(fast.total_instructions(), reference.total_instructions());
                assert_eq!(fast.total_references(), reference.total_references());
                assert!(step < 10_000, "{}: phases or laps never came round", p.name);
            }
            checked += 1;
        }
        assert!(checked >= 4, "only {checked} multi-phase profiles");
    }

    /// The fixed-point credit steps exactly as the reference's f64 credit,
    /// for `mem_ratio`s at the bounds, just either side of powers of two
    /// (where sums cross a binade and round) and drawn at random, each
    /// phase starting from the credit the previous one left in another
    /// unit.
    #[test]
    fn fixed_point_credit_matches_f64() {
        let mut ratios = vec![1.0, 0.5, 0.55, 0.71, 0.013, 1.0 / 3.0, 2f64.powi(-30)];
        for j in 0..30 {
            let p = 2f64.powi(-j);
            ratios.extend([p * (1.0 - 1e-12), p * 0.999, p * 0.75, p * 0.5000001]);
        }
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..200 {
            let r: f64 = rng.gen();
            ratios.push(2f64.powf(-8.0 * r));
        }
        let mut gap_credit = 0.0f64;
        for &m in &ratios {
            let mut ph = base_phase();
            ph.mem_ratio = m;
            let pf = PhaseFast::build(&ph, &ZoneMixture::build(&ph, "credit"));
            let mut credit = CreditSum::start(gap_credit, &pf);
            for step in 0..3000 {
                gap_credit += pf.inv_mem_ratio;
                let want = (gap_credit.floor() as u32).max(1);
                gap_credit -= f64::from(want);
                assert_eq!(credit.instrs(), want, "mem_ratio {m}, step {step}");
                let got = CreditSum::credit(credit.fraction(), pf.credit_shift);
                assert_eq!(
                    got.to_bits(),
                    gap_credit.to_bits(),
                    "mem_ratio {m}, step {step}"
                );
                credit = credit.next(pf.credit_step);
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
