//! The banked set-associative cache with per-module way masks.

use crate::atd::AtdCounters;
use crate::config::CacheGeometry;
use crate::line::Line;
use crate::lru;
use crate::stats::CacheStats;
use crate::BlockAddr;

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    pub hit: bool,
    /// LRU recency position of the hit (0 = MRU); meaningless on a miss.
    pub hit_pos: u8,
    pub set: u32,
    pub way: u8,
    pub bank: u8,
    pub module: u16,
    pub leader: bool,
    /// Whether the fill evicted a valid line (clean or dirty); meaningful
    /// only on a miss.
    pub evicted_valid: bool,
    /// Block address of a dirty line evicted by this access's fill, which
    /// the caller must forward to the next memory level.
    pub writeback: Option<BlockAddr>,
}

/// Result of one module reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconfigOutcome {
    /// Dirty lines flushed to the next level by way turn-off.
    pub writebacks: u64,
    /// Clean lines discarded by way turn-off.
    pub discards: u64,
    /// Line slots that changed power state (on->off plus off->on); this is
    /// the paper's `N_L`, charged `E_chi` each in the energy model.
    pub slot_transitions: u64,
}

impl ReconfigOutcome {
    pub fn merge(&mut self, o: ReconfigOutcome) {
        self.writebacks += o.writebacks;
        self.discards += o.discards;
        self.slot_transitions += o.slot_transitions;
    }
}

/// A banked, set-associative, true-LRU, allocate-on-miss cache whose sets
/// are divided into `M` contiguous modules, each with an independently
/// configurable number of active ways. See the crate docs for the role of
/// leader sets.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    pub(crate) geom: CacheGeometry,
    /// `tags[set * ways + way]`; gated by the valid bitmask (a slot keeps
    /// its stale tag after invalidation). Keeping the tags contiguous and
    /// bare lets the hit scan touch 8 bytes per way instead of a whole
    /// line-state struct — this is the simulator's hottest loop.
    pub(crate) tags: Vec<u64>,
    /// Per-set valid/dirty bitmasks, stored together so the hit path pulls
    /// both in one host cache line (they are almost always used together).
    pub(crate) bits: Vec<SetBits>,
    /// `last_update[set * ways + way]`: cycle of the last charge-restoring
    /// operation (fill, hit, or refresh) — the eDRAM retention clock.
    pub(crate) last_update: Vec<u64>,
    /// Recency orders, one code, packed word or byte run per set.
    pub(crate) order: lru::OrderStore,
    /// Active way count per module (`1..=A`). Leader sets ignore this.
    pub(crate) module_ways: Vec<u8>,
    /// Leader-set selection rule, precomputed from the stride.
    pub(crate) leader_rule: LeaderRule,
    /// Interval-scoped profiling counters fed by leader-set hits.
    pub atd: AtdCounters,
    /// Lifetime counters.
    pub stats: CacheStats,
    pub(crate) valid_lines: u64,
    /// Valid lines per bank; consumed by refresh policies that only refresh
    /// valid lines (the counts are exact, maintained incrementally).
    pub(crate) valid_per_bank: Vec<u64>,
    active_slots: u64,
    /// Monotone count of valid lines invalidated without a demand access:
    /// way turn-off and [`Self::invalidate_line`]. A refresh engine that
    /// keeps lines out of its per-line schedule compares it across
    /// advances to learn that some of them may have gone.
    invalidated: u64,
    /// Whether demand accesses record `last_update`. Only refresh policies
    /// that consult per-line retention clocks (the polyphase family and
    /// multi-periodic scrub) need the store; periodic-valid refresh and the
    /// L1s never read it, so the simulator turns it off for them to spare
    /// a random 8-byte store per access on the hot path.
    pub(crate) track_retention: bool,
}

/// One set's way-state bitmasks (bit `w` = physical way `w`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetBits {
    pub(crate) valid: u64,
    pub(crate) dirty: u64,
}

/// How leader sets are selected — resolved once at construction so the
/// per-access check is a mask compare for the (universal) power-of-two
/// strides instead of a division.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LeaderRule {
    /// No sampling (the L1s).
    None,
    /// Power-of-two stride: leader iff `set & mask == 0`.
    Pow2 { mask: u32 },
    /// General stride fallback.
    Modulo { stride: u32 },
}

impl LeaderRule {
    #[inline]
    pub(crate) fn is_leader(self, set: u32) -> bool {
        match self {
            LeaderRule::None => false,
            LeaderRule::Pow2 { mask } => set & mask == 0,
            LeaderRule::Modulo { stride } => set.is_multiple_of(stride),
        }
    }
}

impl SetAssocCache {
    /// Builds a cache with all ways active. `leader_stride` is the paper's
    /// `R_s` (e.g. 64); pass `None` for unmonitored caches.
    pub fn new(geom: CacheGeometry, leader_stride: Option<u32>) -> Self {
        geom.validate();
        if let Some(rs) = leader_stride {
            assert!(rs >= 1, "leader stride must be >= 1");
        }
        let slots = geom.total_slots() as usize;
        let order = lru::OrderStore::new(geom.sets, geom.ways);
        let atd = AtdCounters::new(
            geom.modules,
            geom.ways,
            geom.sets,
            geom.sets_per_module(),
            leader_stride,
        );
        let leader_rule = match leader_stride {
            None => LeaderRule::None,
            Some(rs) if rs.is_power_of_two() => LeaderRule::Pow2 { mask: rs - 1 },
            Some(rs) => LeaderRule::Modulo { stride: rs },
        };
        Self {
            geom,
            tags: vec![0; slots],
            bits: vec![SetBits::default(); geom.sets as usize],
            last_update: vec![0; slots],
            order,
            module_ways: vec![geom.ways; geom.modules as usize],
            leader_rule,
            atd,
            stats: CacheStats::new(geom.ways),
            valid_lines: 0,
            valid_per_bank: vec![0; geom.banks as usize],
            active_slots: geom.total_slots(),
            invalidated: 0,
            track_retention: true,
        }
    }

    /// Enables or disables per-access `last_update` maintenance. Disable
    /// only when no consumer reads line retention clocks (see the field
    /// doc); [`Self::refresh_line`] still records refreshes regardless.
    pub fn set_retention_tracking(&mut self, on: bool) {
        self.track_retention = on;
    }

    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Whether `set` is a profiling leader set (never reconfigured).
    #[inline]
    pub fn is_leader(&self, set: u32) -> bool {
        self.leader_rule.is_leader(set)
    }

    /// Way-enable mask for a set: full for leaders, else the lowest
    /// `module_ways[m]` ways.
    #[inline]
    pub fn mask_for_set(&self, set: u32) -> u64 {
        let a = self.geom.ways;
        if self.is_leader(set) {
            full_mask(a)
        } else {
            full_mask(self.module_ways[self.geom.module_of(set) as usize])
        }
    }

    /// Active way count of a module (follower sets).
    pub fn module_active_ways(&self, module: u16) -> u8 {
        self.module_ways[module as usize]
    }

    /// Active way counts of every module, in module order.
    pub fn module_ways(&self) -> &[u8] {
        &self.module_ways
    }

    /// Performs one demand access: on a hit, updates recency/dirty state;
    /// on a miss, allocates (evicting the LRU enabled way) and reports any
    /// dirty eviction as a write-back.
    pub fn access(&mut self, block: BlockAddr, write: bool, now: u64) -> AccessOutcome {
        let g = self.geom;
        let set = g.set_of(block);
        let tag = g.tag_of(block);
        let module = g.module_of(set);
        let leader = self.is_leader(set);
        // Inlined `mask_for_set` so the leader test runs once, not twice.
        let mask = if leader {
            full_mask(g.ways)
        } else {
            full_mask(self.module_ways[module as usize])
        };
        let a = g.ways as usize;
        let set_idx = set as usize;
        let base = set_idx * a;

        if write {
            self.stats.writes += 1;
        }

        // Hit scan: tag-compare only the valid *and* enabled ways, walking
        // the candidate bitmask. The tags are bare contiguous u64s, so a
        // full 16-way set costs two cache lines instead of six.
        let mut cand = self.bits[set_idx].valid & mask;
        while cand != 0 {
            let way = cand.trailing_zeros() as u8;
            cand &= cand - 1;
            if self.tags[base + way as usize] == tag {
                let pos = self.order.touch_returning_pos(set_idx, way);
                self.stats.hits += 1;
                self.stats.pos_hits[pos as usize] += 1;
                if leader {
                    self.atd.record_hit(module, pos);
                }
                if write {
                    self.bits[set_idx].dirty |= 1u64 << way;
                }
                if self.track_retention {
                    self.last_update[base + way as usize] = now;
                }
                #[cfg(feature = "strict-invariants")]
                {
                    assert_eq!(leader, self.is_leader(set), "leader rule split-brain");
                    assert_eq!(module, g.module_of(set), "hit credited to wrong module");
                    self.assert_set_invariants(set);
                }
                return AccessOutcome {
                    hit: true,
                    hit_pos: pos,
                    set,
                    way,
                    bank: g.bank_of(set),
                    module,
                    leader,
                    evicted_valid: false,
                    writeback: None,
                };
            }
        }

        // Miss: pick a victim — an invalid enabled way if any (search from
        // the LRU end so refilled ways reuse the stalest slot first),
        // otherwise the LRU enabled way.
        self.stats.misses += 1;
        let invalid_enabled = !self.bits[set_idx].valid & mask;
        let victim = self
            .order
            .lru_victim(
                set_idx,
                if invalid_enabled != 0 {
                    invalid_enabled
                } else {
                    mask
                },
            )
            .expect("a module must always have at least one enabled way");

        let vbit = 1u64 << victim;
        let slot = base + victim as usize;
        let mut writeback = None;
        let evicted_valid = self.bits[set_idx].valid & vbit != 0;
        if evicted_valid {
            if self.bits[set_idx].dirty & vbit != 0 {
                writeback = Some(g.block_of(self.tags[slot], set));
                self.stats.writebacks += 1;
            }
        } else {
            self.bits[set_idx].valid |= vbit;
            self.valid_lines += 1;
            self.valid_per_bank[g.bank_of(set) as usize] += 1;
        }
        self.tags[slot] = tag;
        if write {
            self.bits[set_idx].dirty |= vbit;
        } else {
            self.bits[set_idx].dirty &= !vbit;
        }
        if self.track_retention {
            self.last_update[slot] = now;
        }
        self.order.touch(set_idx, victim);

        #[cfg(feature = "strict-invariants")]
        {
            assert!(mask & vbit != 0, "victim way {victim} is not enabled");
            self.assert_set_invariants(set);
        }

        AccessOutcome {
            hit: false,
            hit_pos: 0,
            set,
            way: victim,
            bank: g.bank_of(set),
            module,
            leader,
            evicted_valid,
            writeback,
        }
    }

    /// Recency position of `way` in `set` (0 = MRU). Observability for the
    /// differential checker's whole-state comparisons; not on the hot path.
    pub fn lru_position_of(&self, set: u32, way: u8) -> u8 {
        self.order.position_of(set as usize, way)
    }

    /// Non-mutating presence check (no recency update).
    pub fn probe(&self, block: BlockAddr) -> bool {
        let g = self.geom;
        let set = g.set_of(block);
        let tag = g.tag_of(block);
        let base = set as usize * g.ways as usize;
        let mut cand = self.bits[set as usize].valid & self.mask_for_set(set);
        while cand != 0 {
            let way = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            if self.tags[base + way] == tag {
                return true;
            }
        }
        false
    }

    /// Reconfigures module `m` to keep exactly `new_ways` ways active in
    /// its follower sets. Shrinking flushes the lines held in turned-off
    /// ways (clean discarded, dirty counted for write-back, paper §5);
    /// growing enables empty ways. Returns the flush/transition counts the
    /// system simulator charges to traffic and `E_chi`.
    pub fn set_module_active_ways(&mut self, m: u16, new_ways: u8, _now: u64) -> ReconfigOutcome {
        assert!(
            (1..=self.geom.ways).contains(&new_ways),
            "active ways must be in 1..=A"
        );
        let old = self.module_ways[m as usize];
        if old == new_ways {
            return ReconfigOutcome::default();
        }
        #[cfg(feature = "strict-invariants")]
        let valid_before = self.valid_lines;
        let g = self.geom;
        let spm = g.sets_per_module();
        let first_set = u32::from(m) * spm;
        let mut out = ReconfigOutcome::default();
        let mut follower_sets = 0u64;

        for set in first_set..first_set + spm {
            if self.is_leader(set) {
                continue;
            }
            follower_sets += 1;
            if new_ways < old {
                let set_idx = set as usize;
                for way in new_ways..old {
                    let bit = 1u64 << way;
                    if self.bits[set_idx].valid & bit != 0 {
                        if self.bits[set_idx].dirty & bit != 0 {
                            out.writebacks += 1;
                        } else {
                            out.discards += 1;
                        }
                        self.bits[set_idx].valid &= !bit;
                        self.bits[set_idx].dirty &= !bit;
                        self.valid_lines -= 1;
                        self.valid_per_bank[g.bank_of(set) as usize] -= 1;
                        self.invalidated += 1;
                    }
                }
            }
        }

        let delta = u64::from(old.abs_diff(new_ways));
        out.slot_transitions = delta * follower_sets;
        let slots_delta = delta * follower_sets;
        if new_ways > old {
            self.active_slots += slots_delta;
        } else {
            self.active_slots -= slots_delta;
        }
        self.module_ways[m as usize] = new_ways;
        #[cfg(feature = "strict-invariants")]
        {
            // Dirty-writeback conservation: every valid line lost to the
            // shrink is accounted as exactly one write-back or discard.
            assert_eq!(
                valid_before - self.valid_lines,
                out.writebacks + out.discards,
                "reconfiguration flush conservation"
            );
            self.assert_invariants();
        }
        out
    }

    /// Number of currently valid lines (all valid lines live in active
    /// ways, because turn-off invalidates).
    pub fn valid_lines(&self) -> u64 {
        self.valid_lines
    }

    /// Exact per-bank valid-line counts.
    pub fn valid_lines_per_bank(&self) -> &[u64] {
        &self.valid_per_bank
    }

    /// Valid lines resident in one module — the data at stake when a
    /// controller shrinks it. Walks the module's sets (a contiguous
    /// range), so this is for interval-boundary observability, not the
    /// access path.
    pub fn module_valid_lines(&self, module: u16) -> u64 {
        let spm = self.geom.sets_per_module();
        let first = u32::from(module) * spm;
        (first..first + spm)
            .map(|set| u64::from(self.bits[set as usize].valid.count_ones()))
            .sum()
    }

    /// Invalidates one line (no write-back; the caller is responsible for
    /// any traffic accounting). Returns `(was_valid, was_dirty)`. Used by
    /// the RPD refresh policy, which eagerly invalidates clean blocks
    /// instead of refreshing them.
    pub fn invalidate_line(&mut self, set: u32, way: u8) -> (bool, bool) {
        let set_idx = set as usize;
        let bit = 1u64 << way;
        let was_valid = self.bits[set_idx].valid & bit != 0;
        let was_dirty = self.bits[set_idx].dirty & bit != 0;
        if was_valid {
            self.bits[set_idx].valid &= !bit;
            self.bits[set_idx].dirty &= !bit;
            self.valid_lines -= 1;
            self.valid_per_bank[self.geom.bank_of(set) as usize] -= 1;
            self.invalidated += 1;
        }
        (was_valid, was_dirty)
    }

    /// Lifetime count of lines invalidated by way turn-off or
    /// [`Self::invalidate_line`] (see the field docs). Evictions are not
    /// counted: the fill that evicts is itself a demand access.
    pub fn invalidated_lines(&self) -> u64 {
        self.invalidated
    }

    /// Number of powered-on line slots (leader sets count fully).
    pub fn active_slots(&self) -> u64 {
        self.active_slots
    }

    /// Fraction of the cache that is powered on — the paper's `F_A`.
    pub fn active_fraction(&self) -> f64 {
        self.active_slots as f64 / self.geom.total_slots() as f64
    }

    /// Snapshot of one line slot's state. (The storage is struct-of-arrays
    /// internally, so this assembles a [`Line`] view by value; an invalid
    /// slot reports its stale tag/`last_update`.)
    #[inline]
    pub fn line(&self, set: u32, way: u8) -> Line {
        let set_idx = set as usize;
        let slot = set_idx * self.geom.ways as usize + way as usize;
        let bit = 1u64 << way;
        Line {
            tag: self.tags[slot],
            valid: self.bits[set_idx].valid & bit != 0,
            dirty: self.bits[set_idx].dirty & bit != 0,
            last_update: self.last_update[slot],
        }
    }

    /// Restores the charge of one line (a refresh): bumps `last_update`
    /// and returns whether the line was valid (invalid slots are ignored).
    #[inline]
    pub fn refresh_line(&mut self, set: u32, way: u8, now: u64) -> bool {
        let set_idx = set as usize;
        if self.bits[set_idx].valid & (1u64 << way) == 0 {
            return false;
        }
        self.last_update[set_idx * self.geom.ways as usize + way as usize] = now;
        true
    }

    /// Visits every valid line (used by refresh engines).
    pub fn for_each_valid(&self, mut f: impl FnMut(u32, u8, Line)) {
        for set in 0..self.geom.sets {
            let mut bits = self.bits[set as usize].valid;
            while bits != 0 {
                let way = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                f(set, way, self.line(set, way));
            }
        }
    }

    /// Recomputed (non-incremental) valid-line count, for invariant checks.
    #[doc(hidden)]
    pub fn recount_valid(&self) -> u64 {
        self.bits
            .iter()
            .map(|b| u64::from(b.valid.count_ones()))
            .sum()
    }

    /// Full structural self-check (`O(sets * ways)`): every incremental
    /// counter agrees with a recount, every set satisfies
    /// [`Self::assert_set_invariants`]-style local invariants, and the ATD
    /// leader bookkeeping matches the leader rule. Panics on violation.
    ///
    /// Called by the differential checker after every refresh advance and,
    /// under the `strict-invariants` feature, after every reconfiguration.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let g = self.geom;
        let mut valid_total = 0u64;
        let mut per_bank = vec![0u64; g.banks as usize];
        let mut slots = 0u64;
        let mut leaders = vec![0u32; g.modules as usize];
        for set in 0..g.sets {
            let set_idx = set as usize;
            let mask = self.mask_for_set(set);
            slots += u64::from(mask.count_ones());
            if self.is_leader(set) {
                leaders[g.module_of(set) as usize] += 1;
            }
            let b = self.bits[set_idx];
            assert_eq!(
                b.valid & !mask,
                0,
                "set {set}: valid line in a disabled way"
            );
            assert_eq!(
                b.dirty & !b.valid,
                0,
                "set {set}: dirty bit on an invalid line"
            );
            valid_total += u64::from(b.valid.count_ones());
            per_bank[g.bank_of(set) as usize] += u64::from(b.valid.count_ones());
            // The LRU order is a permutation of the physical ways.
            let mut seen = 0u64;
            for way in 0..g.ways {
                let p = self.order.position_of(set_idx, way);
                assert!(p < g.ways, "set {set}: way {way} at position {p} >= A");
                assert_eq!(
                    seen & (1u64 << p),
                    0,
                    "set {set}: LRU position {p} duplicated"
                );
                seen |= 1u64 << p;
            }
        }
        assert_eq!(valid_total, self.valid_lines, "valid-line counter drift");
        assert_eq!(
            per_bank, self.valid_per_bank,
            "per-bank valid counter drift"
        );
        assert_eq!(slots, self.active_slots, "active-slot counter drift");
        for (m, &w) in self.module_ways.iter().enumerate() {
            assert!(
                (1..=g.ways).contains(&w),
                "module {m}: {w} ways out of 1..=A"
            );
        }
        for m in 0..g.modules {
            assert_eq!(
                self.atd.leaders_in_module(m),
                leaders[m as usize],
                "module {m}: ATD leader count disagrees with the leader rule"
            );
        }
    }

    /// One set's local invariants, checked after every mutation under the
    /// `strict-invariants` feature: the LRU order is a permutation of the
    /// physical ways, no disabled way holds a valid line, dirty implies
    /// valid.
    #[cfg(feature = "strict-invariants")]
    fn assert_set_invariants(&self, set: u32) {
        let set_idx = set as usize;
        let mask = self.mask_for_set(set);
        let b = self.bits[set_idx];
        assert_eq!(
            b.valid & !mask,
            0,
            "set {set}: valid line in a disabled way"
        );
        assert_eq!(
            b.dirty & !b.valid,
            0,
            "set {set}: dirty bit on an invalid line"
        );
        let mut seen = 0u64;
        for way in 0..self.geom.ways {
            let p = self.order.position_of(set_idx, way);
            assert!(
                p < self.geom.ways,
                "set {set}: way {way} at position {p} >= A"
            );
            assert_eq!(
                seen & (1u64 << p),
                0,
                "set {set}: LRU position {p} duplicated"
            );
            seen |= 1u64 << p;
        }
    }
}

impl esteem_stats::StatsSource for SetAssocCache {
    /// Registers the cache's lifetime counters and occupancy gauges
    /// (`hits`, `misses`, `writebacks`, `writes`, `valid_lines`,
    /// `active_slots`, `active_fraction`) into the stats tree.
    fn collect(&self, out: &mut esteem_stats::Scope<'_>) {
        out.counter("hits", self.stats.hits);
        out.counter("misses", self.stats.misses);
        out.counter("writebacks", self.stats.writebacks);
        out.counter("writes", self.stats.writes);
        out.gauge("valid_lines", self.valid_lines as f64);
        out.gauge("active_slots", self.active_slots as f64);
        out.gauge("active_fraction", self.active_fraction());
    }
}

#[inline]
pub(crate) fn full_mask(ways: u8) -> u64 {
    if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 64 sets x 4 ways x 64B = 16KB, 2 banks, 4 modules, leaders @8.
        let g = CacheGeometry::from_capacity(16 << 10, 4, 64, 2, 4);
        SetAssocCache::new(g, Some(8))
    }

    /// Block address landing in `set` with tag `t`.
    fn blk(c: &SetAssocCache, set: u32, t: u64) -> BlockAddr {
        c.geometry().block_of(t, set)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        let b = blk(&c, 5, 7);
        let r1 = c.access(b, false, 10);
        assert!(!r1.hit);
        assert_eq!(c.valid_lines(), 1);
        let r2 = c.access(b, false, 20);
        assert!(r2.hit);
        assert_eq!(r2.hit_pos, 0);
        assert_eq!(c.line(r2.set, r2.way).last_update, 20);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn module_valid_lines_tracks_fills_and_turnoff() {
        let mut c = small();
        // 4 modules x 16 sets. Fill 3 lines in module 0, 2 in module 2.
        for t in 0..3u64 {
            c.access(blk(&c, 1, 100 + t), false, 0);
        }
        c.access(blk(&c, 33, 7), false, 0);
        c.access(blk(&c, 34, 7), false, 0);
        assert_eq!(c.module_valid_lines(0), 3);
        assert_eq!(c.module_valid_lines(1), 0);
        assert_eq!(c.module_valid_lines(2), 2);
        let per_module: u64 = (0..4).map(|m| c.module_valid_lines(m)).sum();
        assert_eq!(per_module, c.valid_lines());
        // Turn-off invalidates follower lines; set 1 is a follower.
        c.set_module_active_ways(0, 1, 10);
        assert!(c.module_valid_lines(0) <= 1);
    }

    #[test]
    fn lru_eviction_and_writeback() {
        let mut c = small();
        // Fill set 1 with 4 blocks, the first written dirty.
        let b0 = blk(&c, 1, 100);
        c.access(b0, true, 0);
        for t in 101..104 {
            c.access(blk(&c, 1, t), false, t);
        }
        assert_eq!(c.valid_lines(), 4);
        // Fifth distinct block evicts b0 (LRU, dirty) -> writeback of b0.
        let r = c.access(blk(&c, 1, 200), false, 300);
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(b0));
        assert_eq!(c.stats.writebacks, 1);
        assert_eq!(c.valid_lines(), 4);
        // b0 is gone.
        assert!(!c.probe(b0));
    }

    #[test]
    fn hit_positions_follow_recency() {
        let mut c = small();
        let bs: Vec<_> = (0..4).map(|t| blk(&c, 2, 100 + t)).collect();
        for &b in &bs {
            c.access(b, false, 0);
        }
        // bs[3] is MRU, bs[0] is LRU.
        assert_eq!(c.access(bs[0], false, 1).hit_pos, 3);
        // Now bs[0] is MRU.
        assert_eq!(c.access(bs[0], false, 2).hit_pos, 0);
        assert_eq!(c.access(bs[3], false, 3).hit_pos, 1);
    }

    #[test]
    fn shrink_flushes_and_grow_enables() {
        let mut c = small();
        // Touch every way of every set of module 1 (sets 16..32).
        for set in 16..32u32 {
            for t in 0..4u64 {
                c.access(blk(&c, set, 10 + t), t == 0, 0);
            }
        }
        let valid_before = c.valid_lines();
        let out = c.set_module_active_ways(1, 2, 1000);
        // 15 follower sets (set 16 and 24 are leaders: stride 8 -> 16, 24).
        // Sets 16 and 24 are leaders -> 14 follower sets, 2 ways flushed.
        let followers = (16..32u32).filter(|s| !c.is_leader(*s)).count() as u64;
        assert_eq!(out.writebacks + out.discards, followers * 2);
        assert_eq!(out.slot_transitions, followers * 2);
        assert_eq!(c.valid_lines(), valid_before - followers * 2);
        assert_eq!(c.recount_valid(), c.valid_lines());
        assert!(c.active_fraction() < 1.0);

        // Grow back: no flushes, same transition count.
        let out2 = c.set_module_active_ways(1, 4, 2000);
        assert_eq!(out2.writebacks + out2.discards, 0);
        assert_eq!(out2.slot_transitions, followers * 2);
        assert_eq!(c.active_fraction(), 1.0);
    }

    #[test]
    fn leaders_ignore_reconfiguration() {
        let mut c = small();
        c.set_module_active_ways(0, 1, 0);
        // Set 0 is a leader: all four distinct tags must coexist.
        for t in 0..4u64 {
            c.access(blk(&c, 0, 50 + t), false, 0);
        }
        for t in 0..4u64 {
            assert!(c.probe(blk(&c, 0, 50 + t)), "leader set lost a way");
        }
        // Set 1 is a follower with 1 active way: only the last survives.
        for t in 0..4u64 {
            c.access(blk(&c, 1, 50 + t), false, 0);
        }
        assert!(c.probe(blk(&c, 1, 53)));
        assert!(!c.probe(blk(&c, 1, 50)));
    }

    #[test]
    fn leader_hits_feed_atd() {
        let mut c = small();
        let b = blk(&c, 8, 3); // set 8 is a leader (stride 8)
        c.access(b, false, 0);
        c.access(b, false, 1);
        let m = c.geometry().module_of(8);
        assert_eq!(c.atd.module_hits(m)[0], 1);
        // Follower hits must not feed the ATD.
        let bf = blk(&c, 9, 3);
        c.access(bf, false, 0);
        c.access(bf, false, 1);
        let sum: u64 = (0..4u16)
            .map(|mm| c.atd.module_hits(mm).iter().sum::<u64>())
            .sum();
        assert_eq!(sum, 1);
    }

    /// `R_s = 1`: every set is a leader, so reconfiguration has nothing
    /// to act on — no flushes, no slot transitions, and every module
    /// reports a full complement of leaders.
    #[test]
    fn all_leader_stride_makes_reconfig_a_noop() {
        let g = CacheGeometry::from_capacity(16 << 10, 4, 64, 2, 4);
        let mut c = SetAssocCache::new(g, Some(1));
        for t in 0..32u64 {
            c.access(blk(&c, (t % 64) as u32, t), true, t);
        }
        let before = c.valid_lines();
        let out = c.set_module_active_ways(1, 1, 100);
        assert_eq!(out.writebacks, 0);
        assert_eq!(out.discards, 0);
        assert_eq!(out.slot_transitions, 0, "no follower sets to transition");
        assert_eq!(c.valid_lines(), before, "leader contents untouched");
        assert_eq!(c.active_fraction(), 1.0, "all-leader cache never shrinks");
        for m in 0..4 {
            assert_eq!(c.atd.leaders_in_module(m), g.sets_per_module());
        }
    }

    /// `R_s` larger than the set count leaves exactly one leader (set 0,
    /// in module 0); every other module must report zero leaders and fall
    /// back to the global profile.
    #[test]
    fn stride_beyond_sets_leaves_single_leader() {
        let g = CacheGeometry::from_capacity(16 << 10, 4, 64, 2, 4);
        let c = SetAssocCache::new(g, Some(1000));
        assert!(c.is_leader(0));
        assert_eq!((1..64).filter(|&s| c.is_leader(s)).count(), 0);
        assert_eq!(c.atd.leaders_in_module(0), 1);
        assert!(c.atd.module_has_leaders(0));
        for m in 1..4 {
            assert_eq!(c.atd.leaders_in_module(m), 0);
            assert!(!c.atd.module_has_leaders(m));
        }
    }

    /// A leader hit is credited to the module that *owns* the leader set,
    /// not to module 0 (checked here on the last module's leader).
    #[test]
    fn leader_hit_credits_owning_module() {
        let mut c = small();
        // Sets 48..64 belong to module 3; set 56 is a leader (stride 8).
        let set = 56;
        assert!(c.is_leader(set));
        assert_eq!(c.geometry().module_of(set), 3);
        let b = blk(&c, set, 7);
        c.access(b, false, 0);
        let r = c.access(b, false, 1);
        assert!(r.hit && r.leader);
        assert_eq!(c.atd.module_hits(3)[0], 1);
        for m in 0..3 {
            assert_eq!(c.atd.module_hits(m).iter().sum::<u64>(), 0);
        }
        assert_eq!(c.atd.global_hits()[0], 1);
    }

    #[test]
    fn noop_reconfig_is_free() {
        let mut c = small();
        let out = c.set_module_active_ways(2, 4, 0);
        assert_eq!(out, ReconfigOutcome::default());
    }

    #[test]
    fn active_fraction_accounts_leaders() {
        let mut c = small();
        for m in 0..4 {
            c.set_module_active_ways(m, 1, 0);
        }
        // 8 leader sets keep 4 ways; 56 followers keep 1.
        let expect = (8.0 * 4.0 + 56.0 * 1.0) / 256.0;
        assert!((c.active_fraction() - expect).abs() < 1e-12);
    }

    #[test]
    fn write_sets_dirty_on_hit() {
        let mut c = small();
        let b = blk(&c, 3, 9);
        c.access(b, false, 0);
        let r = c.access(b, true, 1);
        assert!(c.line(r.set, r.way).dirty);
    }

    #[test]
    #[should_panic(expected = "1..=A")]
    fn zero_ways_rejected() {
        let mut c = small();
        c.set_module_active_ways(0, 0, 0);
    }
}
