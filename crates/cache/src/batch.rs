//! Batched access kernel for the L1 cache shape.
//!
//! [`SetAssocCache::access_batch_l1`] performs a whole block of demand
//! accesses in one call on a cache that qualifies for it
//! ([`SetAssocCache::supports_l1_batch`]: single module, single bank, no
//! leader sampling, no retention clock, all ways active, at most four
//! ways) — i.e. every L1 the simulator builds. It is *state-equivalent*
//! to issuing the same accesses one-by-one through
//! [`SetAssocCache::access`], with one deliberate difference: the
//! lifetime [`crate::CacheStats`] counters are **deferred**. The caller
//! applies them per consumed access ([`SetAssocCache::apply_rec_stats`]),
//! so the counters stay exact even when a block generated ahead of the
//! core is only partially consumed. The L2 keeps the scalar [`SetAssocCache::access`]
//! path: it is the only cache with modules, banks, leader sets,
//! retention clocks and reconfigured ways.

use crate::cache::{full_mask, LeaderRule, SetAssocCache};
use crate::lru;
use crate::{BlockAddr, CacheStats};

/// Compact per-access outcome of [`SetAssocCache::access_batch_l1`]:
/// everything the simulator's consume path needs from an L1 access, in
/// one byte instead of the 32-byte [`crate::AccessOutcome`]. Bit 7 flags
/// a miss, bit 6 flags a dirty eviction (whose block address travels in
/// the kernel's side `writebacks` vector, in access order), bits 0..6
/// hold the recency position of a hit. At the front end's chunk size the
/// byte-sized record is the difference between a chunk staying
/// CPU-cache-resident and streaming through DRAM every fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Rec(u8);

impl L1Rec {
    const MISS_BIT: u8 = 0x80;
    const WB_BIT: u8 = 0x40;

    /// A hit whose line sat at recency position `pos` (0 = MRU).
    #[inline]
    pub fn hit_at(pos: u8) -> Self {
        debug_assert!(pos < 0x40);
        Self(pos)
    }

    /// A miss; `writeback` marks a dirty eviction.
    #[inline]
    pub fn miss(writeback: bool) -> Self {
        Self(Self::MISS_BIT | if writeback { Self::WB_BIT } else { 0 })
    }

    #[inline]
    pub fn hit(self) -> bool {
        self.0 & Self::MISS_BIT == 0
    }

    /// Recency position of the hit (0 = MRU); meaningless on a miss.
    #[inline]
    pub fn hit_pos(self) -> u8 {
        self.0 & 0x3F
    }

    /// Whether the miss evicted a dirty line (the block address is the
    /// next unconsumed entry of the kernel's `writebacks` vector).
    #[inline]
    pub fn has_writeback(self) -> bool {
        self.0 & Self::WB_BIT != 0
    }
}

/// Packs one `(block, write)` pair into the 8-byte input format of
/// [`SetAssocCache::access_batch_l1`] (write flag in bit 0).
#[inline]
pub fn encode_l1_access(block: BlockAddr, write: bool) -> u64 {
    debug_assert!(block < 1 << 63, "block address overflows the L1 encoding");
    (block << 1) | u64::from(write)
}

impl SetAssocCache {
    /// Whether this cache qualifies for the compact
    /// [`SetAssocCache::access_batch_l1`] fast path: single module, single
    /// bank, no leader sampling, no retention clock, all ways active, and
    /// at most four ways (the coded recency repr) — i.e. every L1 the
    /// simulator builds.
    pub fn supports_l1_batch(&self) -> bool {
        self.geom.modules == 1
            && self.geom.banks == 1
            && matches!(self.leader_rule, LeaderRule::None)
            && !self.track_retention
            && self.module_ways[0] == self.geom.ways
            && self.geom.ways <= 4
    }

    /// Batched [`SetAssocCache::access`] for the L1 shape
    /// ([`SetAssocCache::supports_l1_batch`]): 8-byte packed inputs
    /// ([`encode_l1_access`]), byte-sized [`L1Rec`] outcomes appended to
    /// `out` (dirty-eviction block addresses go to `writebacks`, in access
    /// order), and an inner loop with the leader/ATD/retention/module
    /// branches compiled out. Recency is one code per set and each
    /// access costs two table lookups (`POS4` and `TOUCH4` on a hit,
    /// `VICTIM4` and `TOUCH4` on a miss; see [`lru`]). State
    /// effects are identical to the scalar path; lifetime stats are
    /// deferred (see the module docs) — apply them per consumed access
    /// via [`SetAssocCache::apply_rec_stats`].
    pub fn access_batch_l1(
        &mut self,
        encoded: &[u64],
        out: &mut Vec<L1Rec>,
        writebacks: &mut Vec<u64>,
    ) {
        assert!(
            self.supports_l1_batch(),
            "access_batch_l1 called on a non-L1-shaped cache"
        );
        let g = self.geom;
        let a = g.ways as usize;
        let sets = g.sets as usize;
        let set_mask = u64::from(g.sets - 1);
        let tag_shift = g.sets.trailing_zeros();
        let full = full_mask(g.ways);
        // Per-set arrays cut to `sets` entries: one bounds check of `set`
        // serves both `bits[set]` and `codes[set]`.
        let tags = &mut self.tags[..sets * a];
        let bits = &mut self.bits[..sets];
        let codes = &mut self
            .order
            .codes_mut()
            .expect("supports_l1_batch implies the coded recency repr")[..sets];
        let mut valid_delta = 0u64;
        out.extend(encoded.iter().map(|&enc| {
            let write = enc & 1;
            let block = enc >> 1;
            let set = (block & set_mask) as usize;
            let tag = block >> tag_shift;
            let base = set * a;
            // One load per per-set array; `sb` and `code` live in registers
            // for the whole access and are stored back exactly once below.
            let mut sb = bits[set];
            let code = usize::from(codes[set]);
            // Branch-free hit detection: compare the tag against every way
            // at once and mask by validity, instead of walking the valid
            // ways with a data-dependent (misprediction-prone) loop.
            let stags = &tags[base..base + a];
            let mut eq = 0u64;
            for w in 0..4 {
                if let Some(&t) = stags.get(w) {
                    eq |= u64::from(t == tag) << w;
                }
            }
            let rec = match (eq & sb.valid).trailing_zeros() {
                64.. => {
                    // Miss: same victim policy as the scalar path — the
                    // least recent invalid way if any, else the LRU way.
                    let invalid = !sb.valid & full;
                    let candidates = if invalid != 0 { invalid } else { full };
                    let victim = lru::VICTIM4[code][(candidates & 0xF) as usize];
                    let vbit = 1u64 << victim;
                    let slot = base + usize::from(victim);
                    let mut wb = false;
                    if sb.valid & vbit != 0 {
                        if sb.dirty & vbit != 0 {
                            writebacks.push((tags[slot] << tag_shift) | set as u64);
                            wb = true;
                        }
                    } else {
                        sb.valid |= vbit;
                        valid_delta += 1;
                    }
                    tags[slot] = tag;
                    if write != 0 {
                        sb.dirty |= vbit;
                    } else {
                        sb.dirty &= !vbit;
                    }
                    codes[set] = lru::TOUCH4[code][usize::from(victim & 3)];
                    L1Rec::miss(wb)
                }
                way => {
                    let way = (way & 3) as usize;
                    sb.dirty |= write << way;
                    codes[set] = lru::TOUCH4[code][way];
                    L1Rec::hit_at(lru::POS4[code][way])
                }
            };
            bits[set] = sb;
            #[cfg(feature = "strict-invariants")]
            {
                let b = bits[set];
                assert_eq!(b.dirty & !b.valid, 0, "L1 set {set}: dirty invalid line");
                let c = usize::from(codes[set]);
                assert!(
                    c < lru::CODES4,
                    "L1 set {set}: recency code {c} out of range"
                );
                for w in a..4 {
                    assert_eq!(
                        usize::from(lru::POS4[c][w]),
                        w,
                        "L1 set {set}: absent way {w} left its position"
                    );
                }
            }
            rec
        }));
        self.valid_lines += valid_delta;
        self.valid_per_bank[0] += valid_delta;
    }

    /// Folds the lifetime-stats deltas of one consumed [`L1Rec`] into the
    /// cache's counters. Incrementing per consumed access keeps the
    /// counters exact even when the caller stops mid-batch (the
    /// simulator's instruction-target break).
    #[inline]
    pub fn apply_rec_stats(&mut self, rec: L1Rec, write: bool) {
        self.stats.apply_rec(rec, write);
    }
}

impl CacheStats {
    /// Folds one consumed [`L1Rec`] into these counters, as
    /// [`SetAssocCache::apply_rec_stats`] does for the cache's own. A
    /// consumer that keeps the stats apart from the cache (the simulator,
    /// whose L1 may run on another thread) calls this directly.
    #[inline]
    pub fn apply_rec(&mut self, rec: L1Rec, write: bool) {
        self.writes += u64::from(write);
        if rec.hit() {
            self.hits += 1;
            self.pos_hits[rec.hit_pos() as usize] += 1;
        } else {
            self.misses += 1;
            self.writebacks += u64::from(rec.has_writeback());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheGeometry;

    /// Address stream with heavy set reuse so hits, misses, evictions and
    /// writebacks all occur.
    fn stream(geom: &CacheGeometry, n: usize, seed: u64) -> Vec<(u64, bool)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let set = (x >> 8) as u32 & (geom.sets - 1);
                let tag = (x >> 40) % (u64::from(geom.ways) * 2 + 2);
                (geom.block_of(tag, set), x & 4 == 0)
            })
            .collect()
    }

    /// Drives `ops` through a scalar cache and an `access_batch_l1` clone
    /// (in blocks), asserting rec-for-rec, stats and state equivalence.
    fn check_l1_equivalence(geom: CacheGeometry, ops: &[(u64, bool)], block: usize) {
        let mut scalar = SetAssocCache::new(geom, None);
        scalar.set_retention_tracking(false);
        let mut batched = scalar.clone();
        assert!(batched.supports_l1_batch());
        let mut expected = Vec::new();
        for &(blk, write) in ops {
            expected.push(scalar.access(blk, write, 0));
        }
        let mut recs = Vec::new();
        let mut wbs = Vec::new();
        for chunk in ops.chunks(block) {
            let enc: Vec<u64> = chunk
                .iter()
                .map(|&(blk, write)| encode_l1_access(blk, write))
                .collect();
            batched.access_batch_l1(&enc, &mut recs, &mut wbs);
        }
        assert_eq!(
            batched.stats,
            CacheStats::new(geom.ways),
            "stats are deferred until applied"
        );
        assert_eq!(recs.len(), expected.len());
        let mut wb_iter = wbs.iter();
        for ((rec, exp), &(_, write)) in recs.iter().zip(expected.iter()).zip(ops.iter()) {
            assert_eq!(rec.hit(), exp.hit, "hit/miss diverged");
            if exp.hit {
                assert_eq!(rec.hit_pos(), exp.hit_pos, "hit position diverged");
            }
            let wb = rec.has_writeback().then(|| *wb_iter.next().expect("wb"));
            assert_eq!(wb, exp.writeback, "writeback diverged");
            batched.apply_rec_stats(*rec, write);
        }
        assert!(wb_iter.next().is_none(), "stray writeback entries");
        assert_eq!(batched.stats, scalar.stats, "stats diverged");
        assert_eq!(batched.valid_lines(), scalar.valid_lines());
        assert_eq!(
            batched.valid_lines_per_bank(),
            scalar.valid_lines_per_bank()
        );
        for set in 0..geom.sets {
            for way in 0..geom.ways {
                assert_eq!(batched.line(set, way), scalar.line(set, way));
                assert_eq!(
                    batched.lru_position_of(set, way),
                    scalar.lru_position_of(set, way),
                    "LRU order diverged at set {set} way {way}"
                );
            }
        }
        batched.assert_invariants();
    }

    #[test]
    fn l1_fast_path_matches_scalar() {
        for ways in 1u8..=4 {
            let g = CacheGeometry::try_from_capacity(u64::from(ways) * 64 * 64, ways, 64, 1, 1)
                .unwrap();
            let ops = stream(&g, 5000, 0xA5A5 + u64::from(ways));
            check_l1_equivalence(g, &ops, 997);
        }
    }

    /// The simulator's L1 shape (32 KB, 4-way) over a million accesses in
    /// front-end-sized blocks.
    #[test]
    #[ignore = "slow in a debug build; CI runs it in release"]
    fn l1_fast_path_matches_scalar_at_scale() {
        let g = CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1);
        let ops = stream(&g, 1_000_000, 0x5EED);
        check_l1_equivalence(g, &ops, 4096);
    }

    #[test]
    fn l1_fast_path_eligibility() {
        let mut l1 = SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        l1.set_retention_tracking(false);
        assert!(l1.supports_l1_batch());
        // Retention tracking (the construction default) disqualifies.
        let ret = SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        assert!(!ret.supports_l1_batch());
        // Leader sampling disqualifies.
        let mut led =
            SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), Some(8));
        led.set_retention_tracking(false);
        assert!(!led.supports_l1_batch());
        // Multiple modules/banks disqualify.
        let mut l2 = SetAssocCache::new(CacheGeometry::from_capacity(1 << 20, 8, 64, 8, 16), None);
        l2.set_retention_tracking(false);
        assert!(!l2.supports_l1_batch());
        // A deactivated way disqualifies.
        let mut shrunk =
            SetAssocCache::new(CacheGeometry::from_capacity(32 << 10, 4, 64, 1, 1), None);
        shrunk.set_retention_tracking(false);
        shrunk.set_module_active_ways(0, 3, 0);
        assert!(!shrunk.supports_l1_batch());
    }
}
